"""Tests of the vertex-sequence oracle and of the benchmark's plans.

Run with ``python3 -m pytest perfbench``; nothing here imports the package.
"""

import json
from pathlib import Path

import expected
import oracle
import tracing
import workloads


def totals(table):
    return sum(r[2] for r in table), sum(r[3] for r in table)


def test_standard_simplices_match_the_known_totals():
    assert totals(oracle.kan_table(oracle.simplex(3), 3)) == (228, 20)
    assert totals(oracle.kan_table(oracle.simplex(4), 4)) == (1065, 40)


def test_only_outer_two_horns_are_unfillable_in_a_standard_simplex():
    for n in (2, 3, 4):
        for p, k, _, unfillable in oracle.kan_table(oracle.simplex(n), n):
            if (p, k) in ((2, 0), (2, 2)):
                # a <= b, a <= c and b > c: choose a <= c < b
                assert unfillable == sum(c + 1 for b in range(n + 1) for c in range(b))
            else:
                assert unfillable == 0


def test_monotone_sequence_counts():
    # Λ[p,k] for p >= 3 holds every edge, so its maps into Δ[n] are the
    # nondecreasing (p+1)-sequences in {0..n}: C(n+p+1, p+1)
    assert oracle.horn_counts(oracle.simplex(4), 3, 1) == (70, 0)
    assert oracle.horn_counts(oracle.simplex(3), 4, 2) == (56, 0)
    # Λ[1,k] is one vertex
    assert oracle.horn_counts(oracle.simplex(3), 1, 0) == (4, 0)


def test_boundary_and_horn_lose_exactly_the_missing_top_simplex():
    # the identity sequence (0,1,2,3) is the only unfillable 3-horn map
    assert oracle.horn_counts(oracle.boundary(3), 3, 2) == (35, 1)
    assert oracle.horn_counts(oracle.horn(3, 0), 3, 0) == (32, 1)


def test_rlp_of_a_collapse_counts_the_horn_maps():
    f = oracle.named_map("collapse_boundary3")
    assert oracle.rlp_counts(f, "J", 4) == (488, 24)
    assert oracle.rlp_counts(f, "J", 3) == (228, 24)
    assert oracle.rlp_counts(f, "J", 3) == totals(oracle.kan_table(oracle.boundary(3), 3))


def test_rlp_against_boundaries_and_points():
    # I(0): one square per target vertex, failing where no vertex lies over it
    assert oracle.rlp_counts(oracle.named_map("delta0_identity"), "I", 0) == (1, 0)
    # Δ[1] -> Δ[0] against I(0) and I(1): one square for the point, four for
    # the vertex pairs of ∂Δ[1] -> Δ[1]; only the pair (1, 0) has no edge
    assert oracle.rlp_counts(oracle.named_map("delta1_to_delta0"), "I", 1) == (5, 1)


def test_subcomplexes_are_closed_under_faces():
    for sub in (oracle.boundary(3), oracle.horn(3, 1), oracle.horn(4, 0)):
        for s in sub.simplices:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                assert not face or face in sub.simplices


def test_plans_are_deterministic_and_every_cli_job_has_a_digest():
    catalogue = set(workloads.cli_catalogue())
    assert set(expected.GOLDEN) == {" ".join(argv) for argv in catalogue}
    for name in workloads.WORKLOADS:
        for seed in range(20):
            specs = workloads.plan(name, seed)
            assert specs == workloads.plan(name, seed)
            assert len(specs) % 2 == 1    # the median is one job of the round
            for spec in specs:
                if spec.kind == "cli":
                    assert spec.args in catalogue


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [m.name for m in tracing.METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_deform_contracts_catch_a_point_that_does_not_move():
    z = (0.5, 0.3, 0.2)
    assert expected.deform_contracts("full", 2, 0, [(z, 0.0, z)]) is None
    assert "land in the horn" in expected.deform_contracts("full", 2, 0, [(z, 1.0, z)])
    assert "identity" in expected.deform_contracts(
        "full", 2, 0, [(z, 0.0, (1.0, 0.0, 0.0))])
