import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fractions import Fraction

from smoothsimplex import cli, engine, geometry, homotopy, realization
from smoothsimplex.cli import Report, main, named_complex, named_map, run
from smoothsimplex.geometry import AffineSimplexMap, Bary, ChartDecomp, float_grid
from smoothsimplex.simplicial import SimplicialMap


def invoke(argv):
    report, code = run(argv)
    return report, code


def test_axiom1_passes():
    report, code = invoke(["verify-axiom1", "--p", "2", "--grid", "10"])
    assert code == 0
    assert all(c["status"] == "pass" for c in report.checks)


def test_axiom2_small():
    report, code = invoke(["verify-axiom2", "--p", "1", "--q", "2",
                           "--trials", "2", "--seed", "7"])
    assert code == 0
    names = [c["name"] for c in report.checks]
    assert "kink-control-fails" in names


def test_axiom3_small():
    report, code = invoke(["verify-axiom3", "--p", "2", "--trials", "300",
                           "--seed", "1"])
    assert code == 0


def test_axiom4_single():
    report, code = invoke(["verify-axiom4", "--p", "2", "--k", "1",
                           "--grid", "20", "--tol", "1e-9"])
    assert code == 0
    names = [c["name"] for c in report.checks]
    assert "identity-at-0-(2,1)" in names
    assert "lands-in-horn-(2,1)" in names


def test_axiom4_grid_has_a_floor():
    # Δ^2 runs on at least 25 steps, so --grid 5 checks what --grid 25
    # checks and --grid 26 is the first grid of its own
    def checks(grid):
        return invoke(["verify-axiom4", "--p", "2", "--k", "1",
                       "--grid", str(grid)])[0].checks

    assert checks(5) == checks(25) != checks(26)


def test_rlp_fixed_verdicts():
    report, code = invoke(["rlp", "--map", "delta0_identity", "--gens", "J",
                           "--max-dim", "2"])
    assert code == 0
    report, code = invoke(["rlp", "--map", "delta1_to_delta0", "--gens", "J",
                           "--max-dim", "2"])
    assert code == 1
    gens = [c["witness"]["generator"] for c in report.checks
            if c["witness"]]
    assert any(g.startswith("J(2,") for g in gens)
    report, code = invoke(["rlp", "--map", "boundary1_to_delta0",
                           "--gens", "I", "--max-dim", "1"])
    assert code == 1


@pytest.mark.parametrize("gens, max_dim, squares", [("I", "0", 1), ("J", "1", 2)])
def test_lowest_max_dim_checks_squares(gens, max_dim, squares):
    report, code = invoke(["rlp", "--map", "delta0_identity", "--gens", gens,
                           "--max-dim", max_dim])
    assert code == 0 and report.parameters["checked_squares"] == squares


def test_rlp_against_horns_of_more_than_1000_cells(capsys):
    # Λ[9,k] has 1021 nondegenerate cells
    assert main(["rlp", "--map", "delta0_identity", "--gens", "J",
                 "--max-dim", "9"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_text_report(capsys):
    assert main(["rlp", "--map", "delta1_to_delta0", "--gens", "J",
                 "--max-dim", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] rlp  max violation 2.000e+00" in lines
    assert any(ln.startswith("       witness: {") for ln in lines)
    assert lines[-1] == "result: FAILURES"
    assert main(["pi", "--complex", "boundary1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "[skip] edge-group-rank" in lines
    assert lines[-1] == "result: all checks passed"


def test_readme_examples_exit_as_documented(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    examples = [line.split()[1:] for line in readme.read_text().splitlines()
                if line.startswith("smoothsimplex ") and "-file" not in line]
    codes = {argv[0]: main(argv) for argv in examples}
    capsys.readouterr()
    # rlp finds squares without a lift, and factorize stops at its stage
    # budget with problems left
    assert codes == {"verify-axiom1": 0, "verify-axiom2": 0, "verify-axiom3": 0,
                     "verify-axiom4": 0, "fill-horn": 0, "rlp": 1,
                     "factorize": 1, "pi": 0, "homotopy-eval": 0}
    assert len(examples) == 9


def test_factorize_horn_inclusion():
    report, code = invoke(["factorize", "--map", "horn2_1_incl", "--gens", "J",
                           "--max-dim", "2", "--max-stages", "1",
                           "--max-problems", "8"])
    names = {c["name"]: c for c in report.checks}
    assert names["stage-0-invariants"]["status"] == "pass"
    assert names["stage-1-invariants"]["status"] == "pass"


def test_stage_invariants_fail_when_q_breaks_the_factorization(monkeypatch, capsys):
    # a failing control: the factorization's q_1 sends the image of the
    # source's vertex to the other vertex of Δ[1], so q_1 ∘ j_1 ≠ f there
    argv = ["factorize", "--map", "horn1_0_incl", "--gens", "J", "--max-dim", "1",
            "--max-stages", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    real = engine.igc_factor

    def bent(f, gens, **kwargs):
        stages = real(f, gens, **kwargs)
        st = stages[1]
        (word, v), = f.assignment.values()
        q = dict(st.q.assignment)
        q[st.j.assignment[0][1].id] = (word, f.target.ref(1 - v.id))
        stages[1] = dataclasses.replace(st, q=SimplicialMap(st.complex, f.target, q))
        return stages

    monkeypatch.setattr(engine, "igc_factor", bent)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    i = lines.index("[FAIL] stage-1-invariants")
    assert lines[i + 1].startswith('       witness: {"attached": ')
    assert "[ok  ] stage-0-invariants" in lines and lines[-1] == "result: FAILURES"


def _failed(argv, check, capsys):
    """``main(argv)`` exits 1, and ``check`` fails with a positive
    violation; the line after its ``[FAIL]`` line."""
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"[FAIL] {check}  "))
    assert float(lines[i].split("max violation ")[1]) > 0
    return lines[i + 1]


def _passes(argv, capsys):
    assert main(argv) == 0
    capsys.readouterr()


def test_injectivity_fails_when_two_normal_forms_share_an_image(monkeypatch, capsys):
    argv = ["verify-axiom3", "--p", "2", "--trials", "50"]
    _passes(argv, capsys)
    real = realization.canonical_injection

    def merged(incl, pt):
        # vertex 1 of Δ^p, the image of a normal form of its own, lands on
        # vertex 0
        img, p = real(incl, pt), incl.target.dimension
        return Bary.vertex(p, 0) if img == Bary.vertex(p, 1) else img

    monkeypatch.setattr(realization, "canonical_injection", merged)
    witness = _failed(argv, "injectivity-boundary2", capsys)
    assert witness == '       witness: {"complex": "boundary2", "image": ["1", "0", "0"]}'


def test_chart_covering_fails_when_a_decomposition_is_off(monkeypatch, capsys):
    argv = ["verify-axiom1", "--p", "2", "--grid", "4"]
    _passes(argv, capsys)
    real = cli.chart_decompose

    def swapped(z, i):
        dec = real(z, i)
        x = dec.x.coords
        return ChartDecomp(Bary((x[1], x[0], *x[2:])), dec.t)

    monkeypatch.setattr(cli, "chart_decompose", swapped)
    assert _failed(argv, "chart-covering-p2", capsys).startswith("       witness: [[")


def test_chart_transition_fails_when_t_prime_is_off(monkeypatch, capsys):
    argv = ["verify-axiom1", "--p", "2", "--grid", "2"]
    _passes(argv, capsys)
    real = geometry.chart_transition

    def scaled(i, j, y, tau, t):
        # t' shrinks, so the chart-j input is still a point
        y, s, t_new = real(i, j, y, tau, t)
        return y, s, t_new * Fraction(96, 97)

    monkeypatch.setattr(geometry, "chart_transition", scaled)
    witness = _failed(argv, "chart-transition-exact-p2", capsys)
    assert witness.startswith('       witness: {"i": ')


def test_affine_probes_fail_on_a_map_that_is_not_affine(monkeypatch, capsys):
    argv = ["verify-axiom2", "--p", "2", "--q", "2", "--trials", "2"]
    _passes(argv, capsys)
    real = AffineSimplexMap.__call__

    def squared(f, x):
        # smooth, but not affine: its derivative misses the oracle's
        sq = [c * c for c in real(f, x).coords]
        total = sum(sq)
        return Bary(tuple(c / total for c in sq))

    monkeypatch.setattr(AffineSimplexMap, "__call__", squared)
    # the check reports no witness
    assert _failed(argv, "affine-probes-p2-q2", capsys) == "[ok  ] kink-control-fails"


def test_measure_time_fills_in_only_the_timing(capsys):
    argv = ["verify-axiom1", "--p", "1", "--grid", "4", "--format", "json"]
    reports = []
    for extra in ([], ["--measure-time"]):
        assert main(argv + extra) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, timed = reports
    t = timed.pop("timing_s")
    assert type(t) is float and math.isfinite(t) and t >= 0
    assert plain.pop("timing_s") is None and timed == plain


def test_pi_command():
    report, code = invoke(["pi", "--complex", "boundary2"])
    assert code == 0
    rank = [c for c in report.checks if c["name"] == "edge-group-rank"]
    assert rank[0]["witness"]["rank"] == 1


def test_homotopy_eval_payload():
    report, code = invoke(["homotopy-eval", "--p", "2", "--k", "0",
                           "--kind", "full", "--point", "0.2,0.3,0.5",
                           "--s", "1.0"])
    assert code == 0
    payload = report.checks[0]["witness"]
    assert set(payload) == {"point", "s", "result", "stage"}
    assert min(payload["result"][1:]) <= 1e-9


def test_fill_horn_command():
    report, code = invoke(["fill-horn", "--p", "2", "--k", "0",
                           "--grid", "10"])
    assert code == 0


def test_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify-axiom2", "--p", "1", "--q", "1", "--trials", "2",
            "--seed", "3", "--format", "json"]
    rc1 = main(argv + ["--json", str(a)])
    rc2 = main(argv + ["--json", str(b)])
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["timing_s"] is None


def test_cli_error_on_unknown_map(capsys):
    rc = main(["rlp", "--map", "nonsense", "--gens", "J"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-axiom1", "--p", "0"],
    ["verify-axiom1", "--grid", "0"],
    ["verify-axiom2", "--trials", "0"],
    ["verify-axiom2", "--q", "-1"],
    ["verify-axiom3", "--trials", "0"],
    ["verify-axiom4", "--p", "4"],
    ["verify-axiom4", "--p", "2", "--k", "3"],
    ["verify-axiom4", "--k", "2"],
    ["verify-axiom4", "--grid", "0"],
    ["verify-axiom4", "--p", "1", "--tol", "nan"],
    ["fill-horn", "--p", "0", "--k", "0"],
    ["fill-horn", "--p", "4", "--k", "0"],
    ["factorize", "--map", "horn2_1_incl", "--gens", "J", "--max-problems", "0"],
    ["factorize", "--map", "horn2_1_incl", "--gens", "J", "--max-problems", "-3"],
    ["rlp", "--map", "delta0_identity", "--map-file", "m.json", "--gens", "J"],
    ["rlp", "--map", "delta0_identity", "--gens", "I", "--max-dim", "30"],
    ["rlp", "--map", "delta0_identity", "--gens", "I", "--max-dim", "-1"],
    ["rlp", "--map", "delta0_identity", "--gens", "J", "--max-dim", "0"],
    ["factorize", "--map", "horn2_1_incl", "--gens", "J", "--max-dim",
     str(cli.MAX_NAMED_DIM + 1)],
    ["fill-horn", "--p", "2", "--k", "-1"],
    ["factorize", "--map", "horn2_1_incl", "--gens", "J", "--max-stages", "-1"],
    ["homotopy-eval", "--p", "4", "--point", "1,0,0,0,0", "--s", "0.5"],
    ["homotopy-eval", "--p", "1", "--point", "0.5,0.5", "--s", "inf"],
    ["verify-axiom1", "--p", str(cli.MAX_NAMED_DIM + 1)],
    ["verify-axiom1", "--p", "60"],
    ["verify-axiom2", "--p", "300"],
    ["verify-axiom2", "--q", str(cli.MAX_NAMED_DIM + 1)],
    ["verify-axiom3", "--p", "40", "--trials", "1"],
    ["verify-axiom2", "--tol", "-1"],
    ["verify-axiom4", "--p", "1", "--tol", "-1e-9"],
    ["fill-horn", "--p", "1", "--k", "0", "--tol", "-1"],
], ids=" ".join)
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    for entry in (main, run):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines() if "error:" in ln] == \
            [err.splitlines()[-1]]
        assert "error: argument" in err and "Traceback" not in err


@pytest.mark.parametrize("point", ["nan,1", "0.5,nan", "inf,0", "inf,-inf"])
def test_homotopy_eval_rejects_non_finite_points(point, capsys):
    rc = main(["homotopy-eval", "--p", "1", "--point", point, "--s", "1",
               "--format", "json"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and len(out.err.splitlines()) == 1


def test_main_never_prints_nan(monkeypatch, capsys):
    def nan_report(args):
        rep = Report("pi", {})
        rep.add("nan", True, max_violation=float("nan"))
        return rep

    monkeypatch.setitem(cli.RUNNERS, "pi", nan_report)
    assert main(["pi", "--complex", "delta0", "--format", "json"]) == 2
    assert "NaN" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, usage", [
    (["rlp", "--map", "delta0_identity", "--gens", "J", "--max-dim", "0"],
     "usage: smoothsimplex rlp "),
    (["fill-horn", "--p", "2", "--k", "5"], "usage: smoothsimplex fill-horn "),
], ids=["rlp", "fill-horn"])
def test_cross_argument_errors_show_the_subcommand_usage(argv, usage, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(usage)


#: one command of each subcommand, each followed by a usage error of its own
ONE_OF_EACH = [
    (["verify-axiom1", "--p", "2", "--grid", "4"], ["--p", "0"]),
    (["verify-axiom2", "--p", "1", "--q", "2", "--trials", "1"], ["--tol", "-1"]),
    (["verify-axiom3", "--p", "2", "--trials", "50"], ["--trials", "0"]),
    (["verify-axiom4", "--p", "2", "--k", "1", "--grid", "3"], ["--k", "3"]),
    (["fill-horn", "--p", "2", "--k", "1", "--grid", "4"], ["--k", "-1"]),
    (["rlp", "--map", "delta1_to_delta0", "--gens", "J"], ["--max-dim", "0"]),
    (["factorize", "--map", "horn2_1_incl", "--gens", "J", "--max-stages", "1"],
     ["--max-stages", "-1"]),
    (["pi", "--complex", "boundary2"], ["--complex", "x", "--complex-file", "y"]),
    (["homotopy-eval", "--p", "2", "--point", "0.2,0.3,0.5", "--s", "0.4"],
     ["--s", "nan"]),
]


def test_one_parser_serves_every_command(monkeypatch, capsys):
    # reference: a fresh parser for every command
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = []
    for argv, _ in ONE_OF_EACH:
        fresh.append((main(argv + ["--format", "json"]), capsys.readouterr().out))
    monkeypatch.undo()

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for (argv, bad), want in zip(ONE_OF_EACH, fresh):
            assert (main(argv + ["--format", "json"]), capsys.readouterr().out) == want
            with pytest.raises(SystemExit) as exc:
                main(argv + bad)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith(f"usage: smoothsimplex {argv[0]} ")
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def _replaced(H, replace):
    """``H`` with ``H(z, 1)`` replaced by ``replace(z, H(z, 1))``."""
    def ev(z, s):
        out = H(z, s).coords
        return replace(tuple(z), out) if s == 1.0 else out
    return homotopy.EvaluableHomotopy(H.domain, H.p, H.schedule, _step=ev)


def _direct_idempotency(H, pts):
    """The worst ``|H(H(z, 1), 1) - H(z, 1)|`` over ``pts`` and the first
    point reaching it, with every value evaluated."""
    worst, arg = 0.0, None
    for z in pts:
        once = H(z, 1.0).coords
        d = max(abs(a - b) for a, b in zip(once, H(once, 1.0).coords))
        if d > worst:
            worst, arg = d, z
    return worst, arg


@pytest.mark.parametrize("lands_on_grid", [True, False], ids=["hit", "miss"])
def test_idempotency_reuse_keeps_failures(lands_on_grid, monkeypatch):
    n, k = 2, 0
    H = homotopy.build_full_horn_deformation(n, k)
    pts = float_grid(n, 25)   # the grid verify-axiom4 --p 2 --grid 1 uses
    grid = set(pts)
    end = {z: H(z, 1.0).coords for z in pts}
    if lands_on_grid:
        # a grid point that other grid points land on is sent elsewhere
        w = next(end[z] for z in pts if end[z] in grid and end[z] != z)
        w2 = next(z for z in pts if end[z] == z != w)
        bad = _replaced(H, lambda z, out: w2 if z == w else out)
    else:
        # H(y, 1) is moved a little wherever y is not a grid point
        bad = _replaced(H, lambda z, out: out if z in grid else
                        tuple(0.999 * c + 0.001 / (n + 1) for c in out))
    worst, arg = _direct_idempotency(bad, pts)
    assert worst > 1e-6 and (end[arg] in grid) == lands_on_grid

    monkeypatch.setattr(homotopy, "build_full_horn_deformation", lambda n, k: bad)
    report, code = run(["verify-axiom4", "--p", str(n), "--k", str(k), "--grid", "1"])
    (check,) = [c for c in report.checks
                if c["name"].startswith("retraction-idempotent")]
    assert code == 1 and check["status"] == "fail"
    assert check["max_violation"] == worst
    assert check["witness"]["argmax_point"] == list(arg)


def test_on_horn_is_the_any_zero_definition():
    # a coordinate other than the k-th equals 0 (-0.0 does)
    for n in (1, 2, 3):
        pts = float_grid(n, 12) + [(-0.0,) + (1.0 / n,) * n, (0.5,) * n + (-0.0,)]
        for k in range(n + 1):
            ref = [z for z in pts if any(z[i] == 0 for i in range(n + 1) if i != k)]
            assert cli._on_horn(pts, k) == ref
            assert ref and len(ref) < len(pts)


def _axiom4_by_point(args):
    """``verify-axiom4`` as it was before paths: one ``H(z, s)`` per point
    and time, ``H(z, 1)`` read from a table of the grid's images."""
    rep = Report("verify-axiom4",
                 {"p": args.p, "k": args.k, "grid": args.grid, "tol": args.tol})
    for n in [args.p] if args.p else [1, 2, 3]:
        ks = [args.k] if args.k is not None else list(range(n + 1))
        steps = max(args.grid, {1: 200, 2: 25, 3: 12}[n])
        pts = float_grid(n, steps)
        coarse = pts if steps <= 12 else float_grid(n, 12)
        for k in ks:
            H = homotopy.build_full_horn_deformation(n, k)
            end = {z: H(z, 1.0).coords for z in pts}

            def image(z, s):
                return end[z] if s == 1.0 and z in end else H(z, s).coords

            at = f"-({n},{k})"
            cli._add_contract(rep, "identity-at-0", at, 1e-12, pts,
                              lambda z: cli._dist(image(z, 0.0), z))
            cli._add_contract(rep, "horn-fixed", at, args.tol,
                              ((z, s) for z in cli._on_horn(coarse, k)
                               for s in (0.2, 0.45, 0.7, 0.9, 1.0)),
                              lambda zs: cli._dist(image(*zs), zs[0]),
                              witness=lambda zs: {"point": list(zs[0]), "s": zs[1]})
            cli._add_contract(rep, "lands-in-horn", at, args.tol, pts,
                              lambda z: min(end[z][:k] + end[z][k + 1:]))
            cli._add_contract(rep, "retraction-idempotent", at, args.tol, pts,
                              lambda z: cli._dist(end[z], image(end[z], 1.0)))
    return rep


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("flags", [[], ["--tol", "1e-18"],
                                   ["--grid", "30", "--tol", "1e-18"]], ids=" ".join)
def test_axiom4_paths_report_as_pointwise_calls(n, flags):
    # every witness holds its argmax, and at --tol 1e-18 the failing checks
    # hold their times too
    for k in range(n + 1):
        argv = ["verify-axiom4", "--p", str(n), "--k", str(k), *flags]
        report, code = run(argv)
        want = _axiom4_by_point(cli._parse_args(argv))
        assert report.to_json_dict() == want.to_json_dict()
        assert code == (0 if want.ok else 1)


def _fails_mid_check(args):
    raise ValueError("a fault inside a check")


def _nan_homotopy(n, k):
    return homotopy.EvaluableHomotopy(f"Δ^{n}", n, (("nan", (0.0, 1.0)),),
                                      _step=lambda z, s: (float("nan"),) * (n + 1))


@pytest.mark.parametrize("argv, patch", [
    (["pi", "--complex", "delta1"], (cli.RUNNERS, "pi", _fails_mid_check)),
    (["verify-axiom4", "--p", "1", "--k", "0"],
     (homotopy, "build_full_horn_deformation", _nan_homotopy)),
], ids=["runner", "homotopy-output"])
def test_error_inside_a_check_is_not_a_usage_error(argv, patch, monkeypatch, capsys):
    target, name, value = patch
    if isinstance(target, dict):
        monkeypatch.setitem(target, name, value)
    else:
        monkeypatch.setattr(target, name, value)
    # exit status 2 means bad input; a fault in a check propagates instead
    with pytest.raises(ValueError):
        main(argv)
    assert capsys.readouterr().err == ""


_POINT = {"dims": [[0]]}
_DELTA1 = {"dims": [[0, 1], [2]], "faces": {"2": [[[], 1], [[], 0]]}}
_RLP = ["rlp", "--gens", "J", "--map-file", "{file}"]
_PI = ["pi", "--complex-file", "{file}"]


#: explicit ids, so that a case added anywhere leaves every other id as it
#: is; the numbered ones are the ids pytest once gave these cases by position
MALFORMED_IDS = [
    *(f"argv{i}-body{i}" for i in range(9)), "argv9-None", "argv10-body10",
    *(f"argv{i}-None" for i in range(11, 26)),
    *(f"argv{i}-body{i}" for i in range(26, 33)),
    "rlp-nested", "rlp-truncated", "pi-nested", "pi-truncated", "argv37-body37",
    "pi-id-key-written-twice", "rlp-id-key-written-twice", "pi-name-repeated",
    "pi-simplicial-identity",
]


@pytest.mark.parametrize("argv, body", [
    (_RLP, {}),
    (_RLP, [1]),
    (_RLP, {"source": [1], "target": _POINT, "assignment": {}}),
    (_RLP, {"source": _POINT, "target": _POINT}),
    (_RLP, {"source": _POINT, "target": _POINT, "assignment": {"0": [[], 7]}}),
    (["factorize", "--gens", "J", "--map-file", "{file}"], {
        "source": {"dims": [[0], [1]], "faces": {"1": [[[], 0], 5]}},
        "target": _POINT, "assignment": {}}),
    (_PI, [1]),
    (_PI, {"dims": [[0], [1]]}),
    (_PI, {"dims": [[0], [1]], "faces": []}),
    (["pi"], None),
    (["pi", "--complex", "delta1", "--complex-file", "{file}"], _POINT),
    (["rlp", "--gens", "J"], None),
    (["factorize", "--gens", "J"], None),
    (["pi", "--complex", "horn3"], None),
    (["pi", "--complex", "delta"], None),
    (["pi", "--complex", f"delta{cli.MAX_NAMED_DIM + 1}"], None),
    (["pi", "--complex", "boundary30"], None),
    (["rlp", "--gens", "J", "--map", "collapse_delta30"], None),
    (["rlp", "--gens", "J", "--map", "horn3_incl"], None),
    (["rlp", "--gens", "J", "--map", "horn18_0_incl", "--max-dim", "1"], None),
    (["factorize", "--gens", "J", "--map", "horn2_5_incl"], None),
    (["homotopy-eval", "--p", "2", "--point", "0.5,0.5,0", "--s", "2"], None),
    (["homotopy-eval", "--p", "2", "--point", "0.5,0.5", "--s", "0.5"], None),
    (["homotopy-eval", "--p", "2", "--point", "a,0.5,0.5", "--s", "0.5"], None),
    (["homotopy-eval", "--p", "2", "--kind", "halfopen", "--point", "0,0.5,0.5",
      "--s", "0.5"], None),
    (["homotopy-eval", "--p", "2", "--kind", "boundary-t", "--eps", "0.5",
      "--point", "0.2,0.3,0.5", "--s", "0.5"], None),
    # an assignment key that is not a cell of the source
    (_RLP, {"source": _POINT, "target": _POINT,
            "assignment": {"0": [[], 0], "7": [[], 0]}}),
    # a simplex id listed twice, within a dimension or across two
    (_PI, {"dims": [[0, 0]]}),
    (_PI, {"dims": [[0], [0]], "faces": {"0": [[[], 0], [[], 0]]}}),
    # a face entry for an id that is no cell
    (_PI, {"dims": [[0], [5]], "faces": {"5": [[[], 0], [[], 0]], "9": [[[], 0]]}}),
    # an edge sent to a degeneracy word that is not valid on a vertex
    *((["rlp", "--map-file", "{file}", "--gens", "I", "--max-dim", "1"], {
        "source": {"dims": [[0, 1], [2]], "faces": {"2": [[[], 1], [[], 0]]}},
        "target": _POINT,
        "assignment": {"0": [[], 0], "1": [[], 0], "2": [word, 0]}})
      for word in ([5], [-1])),
    # a face entry for a vertex
    (_PI, {"dims": [[0]], "faces": {"0": [[[], 0]]}}),
    # raw text that is not JSON: nested past the parser's recursion limit,
    # or cut off inside a list
    *(pytest.param(argv, text, id=f"{argv[0]}-{name}") for argv in (_RLP, _PI)
      for name, text in (("nested", "[" * 100000 + "]" * 100000),
                         ("truncated", '{"dims": [[0'))),
    # both vertices of Δ[1] to vertex 0 and the edge to itself: no map
    (_RLP, {"source": _DELTA1, "target": _DELTA1,
            "assignment": {"0": [[], 0], "1": [[], 0], "2": [[], 2]}}),
    # one id as two keys, "2" and "02": edge 2 from v0 to v1 and a loop at
    # v1; edge 2 sent to itself and to the degenerate edge on v0
    (_PI, {"dims": [[0, 1], [2]],
           "faces": {"2": [[[], 1], [[], 0]], "02": [[[], 1], [[], 1]]}}),
    (_RLP, {"source": _DELTA1, "target": _DELTA1,
            "assignment": {"0": [[], 0], "1": [[], 0], "2": [[], 2], "02": [[0], 0]}}),
    # one name twice in one object, which json.load would read as its last
    (_PI, '{"dims": [[0, 1], [2]], '
          '"faces": {"2": [[[], 1], [[], 0]], "2": [[[], 1], [[], 1]]}}'),
    # a triangle on the edges 0->1, 1->2, 0->2 with d_0 the edge 0->1:
    # d_0 d_1 is vertex 2 but d_0 d_0 is vertex 1
    (_PI, {"dims": [[0, 1, 2], [3, 4, 5], [6]],
           "faces": {"3": [[[], 1], [[], 0]], "4": [[[], 2], [[], 1]],
                     "5": [[[], 2], [[], 0]], "6": [[[], 3], [[], 5], [[], 3]]}}),
], ids=MALFORMED_IDS)
def test_malformed_input_is_a_usage_error(argv, body, tmp_path, capsys):
    path = tmp_path / "input.json"
    # a str body is the file's raw text
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    try:
        code = main([str(path) if a == "{file}" else a for a in argv])
        read = "{file}" in argv
    except SystemExit as exc:   # argparse usage errors, before any file is read
        code, read = exc.code, False
    assert code == 2
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if "error:" in ln] == [err.splitlines()[-1]]
    if read:   # an error in the file names it once
        assert err.splitlines()[-1].count(str(path)) == 1


def test_pi_of_the_empty_complex_skips_the_edge_group():
    report, code = invoke(["pi", "--complex", "empty"])
    assert code == 0
    assert [(c["name"], c["status"], c["witness"]) for c in report.checks] == [
        ("pi0", "pass", {"components": 0, "classes": []}),
        ("edge-group-rank", "skipped", "complex is not connected")]


def test_named_registry():
    assert named_complex("delta2").counts() == [3, 3, 1]
    assert named_complex("horn3_1").counts() == [4, 6, 3]
    assert named_map("horn2_0_incl").source.counts() == [3, 2]
    with pytest.raises(ValueError):
        named_complex("whatever")
    with pytest.raises(ValueError, match="expected .*horn<p>_<k>"):
        named_complex("horn3")
    assert named_complex(f"delta{cli.MAX_NAMED_DIM}").dimension == cli.MAX_NAMED_DIM
    with pytest.raises(ValueError, match="above the limit"):
        named_complex(f"horn{cli.MAX_NAMED_DIM + 1}_0")
    with pytest.raises(ValueError, match="expected .*horn<p>_<k>_incl"):
        named_map("horn3_incl")
    with pytest.raises(ValueError, match="above the limit"):
        named_map(f"horn{cli.MAX_NAMED_DIM + 1}_0_incl")


def test_map_file_round_trip(tmp_path):
    from smoothsimplex.simplicial import boundary_complex

    B, incl = boundary_complex(2)
    payload = incl.to_json_dict()
    payload["source"] = B.to_json_dict()
    payload["target"] = incl.target.to_json_dict()
    path = tmp_path / "map.json"
    path.write_text(json.dumps(payload))
    report, code = invoke(["rlp", "--map-file", str(path), "--gens", "J",
                           "--max-dim", "1"])
    assert report.parameters["checked_squares"] > 0


def _subprocess_env(**extra: str) -> dict:
    """The environment of a subprocess that imports the package from where
    this test found it."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


def test_console_entry_point_runs():
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "smoothsimplex.cli", "verify-axiom1",
         "--p", "1", "--grid", "6", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["command"] == "verify-axiom1"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_with_the_report_status(fmt, tmp_path):
    # the read end is closed before the child writes, so every write fails
    # with EPIPE: no traceback, the report's own status, --json still written
    out = tmp_path / "out.json"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "smoothsimplex.cli", "verify-axiom1",
             "--p", "1", "--grid", "6", "--format", fmt, "--json", str(out)],
            stdout=w, stderr=subprocess.PIPE, env=_subprocess_env())
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(out.read_text(encoding="utf-8"))["command"] == "verify-axiom1"


def test_json_files_are_utf8_under_any_locale(tmp_path):
    # RFC 8259 JSON is UTF-8: a non-ASCII character, here in a member the
    # reader ignores, is read under an ASCII locale with UTF-8 mode off
    env = _subprocess_env(LC_ALL="POSIX", PYTHONUTF8="0")
    source = tmp_path / "c.json"
    source.write_bytes('{"dims": [[0]], "note": "Δ^0"}'.encode("utf-8"))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "smoothsimplex.cli", "pi",
         "--complex-file", str(source), "--json", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_bytes().decode("utf-8"))["command"] == "pi"


@pytest.mark.parametrize("argv", [
    ["pi", "--complex", "delta02"],
    ["pi", "--complex", "boundary00"],
    ["pi", "--complex", "horn02_1"],
    ["pi", "--complex", "horn2_01"],
    ["rlp", "--map", "horn2_01_incl", "--gens", "J"],
    ["rlp", "--map", "collapse_delta01", "--gens", "J"],
], ids=" ".join)
def test_named_inputs_take_numbers_as_written_by_str(argv, capsys):
    # a number with a leading zero names nothing, as a JSON key "02" names
    # no simplex id, so a report never echoes an alias of a catalogue name
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and len(err.splitlines()) == 1


def test_worst_takes_the_first_largest_positive_deviation():
    for items, deviation in [([], abs), ("abc", lambda _: Fraction(0)),
                             ("ab", {"a": float("nan"), "b": -1.0}.get)]:
        worst, argmax = cli._worst(items, deviation)
        assert (worst, argmax) == (0.0, None) and type(worst) is float
    assert cli._worst("abcd", {"a": 1, "b": 3, "c": 3, "d": 2}.get) == (3, "b")
    # a NaN is never taken, before or after the largest deviation
    nan = float("nan")
    assert cli._worst("abc", {"a": nan, "b": Fraction(1, 2), "c": nan}.get) == (
        Fraction(1, 2), "b")
    # a check whose deviations are all zero Fractions prints the float 0.0
    rep = Report("verify-test", {})
    cli._add_contract(rep, "exact", "-p1", 0.0, [1, 2], lambda _: Fraction(0))
    check = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))["checks"][0]
    assert check["status"] == "pass" and check["max_violation"] == 0.0
    assert '"max_violation": 0.0' in json.dumps(rep.to_json_dict(), sort_keys=True)
    assert check["witness"] == {"argmax_point": None, "contract": "exact",
                                "max_violation": 0.0}


def test_reports_match_benchmark_golden_digests(monkeypatch):
    """Every CLI report the benchmark can plan is byte-identical to the
    digest recorded for it in perfbench/golden.json."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    golden = json.loads((bench / "golden.json").read_text())
    argvs = workloads.cli_catalogue()
    assert len(argvs) == len(golden) == 244
    changed = [" ".join(argv) for argv in argvs
               if workloads.report_digest(run(list(argv))[0]) != golden[" ".join(argv)]]
    assert changed == []
