"""Expected verdicts, written down without running the package.

* Kan and lifting counts come from the vertex-sequence oracle (``oracle.py``).
* Gluing-stage counts, check names and exit statuses are hand-written here.
* Each CLI report is pinned by a digest in ``golden.json``, recorded from
  the reports of the first commit this benchmark measured; a report that
  stops being byte-identical counts as a failed job.
* Deformation batches are checked against the contracts the deformations
  promise (identity at time 0, the horn or boundary fixed, landing at
  time 1), not against values the code produced.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import oracle

PASS, FAIL = "pass", "fail"

GOLDEN: dict[str, str] = json.loads(
    Path(__file__).with_name("golden.json").read_text())

#: (attached, cells, residual problems) per stage of ``igc_factor(map,
#: GeneratingSet(kind, dim), max_stages, max_problems)``.  Residual lists are
#: capped at ``max_problems``; collapse_boundary2 against I stops early once
#: its residual is empty.
IGC_STAGES = {
    **{(f"horn2_{a}_incl", "J", 2, 3, 8):
       ((0, 5, 3), (6, 11, 8), (16, 27, 8), (16, 43, 8)) for a in range(3)},
    **{(f"horn2_{a}_incl", "I", 2, 3, 16):
       ((0, 5, 1), (1, 6, 1), (1, 7, 0)) for a in range(3)},
    ("delta1_to_delta0", "J", 2, 3, 8):
        ((0, 3, 2), (4, 7, 8), (16, 23, 8), (16, 39, 8)),
    ("collapse_boundary2", "I", 2, 3, 16): ((0, 6, 4), (4, 10, 11), (11, 21, 0)),
    ("collapse_boundary2", "J", 2, 2, 8): ((0, 6, 8), (16, 22, 8), (16, 38, 8)),
}

#: ``factorize`` runs: (stages reported, residual problems left at the end)
FACTORIZE = {
    "factorize --map horn2_1_incl --gens J --max-dim 2 --max-stages 2": (3, True),
}

#: ``verify-axiom2 --seed`` values whose kink control is missed: the probe
#: draws its curves from ``Random(seed + 11)`` and, for these seeds, no
#: stencil straddles the kink, so ``kink-control-fails`` reports FAIL and the
#: command exits 1.  This is a known weakness of the control check, kept in
#: the mix so that it shows; a fix changes these two expected verdicts.
KINK_CONTROL_MISSED = frozenset({"4", "5"})

AXIOM4_CONTRACTS = ("identity-at-0", "horn-fixed", "lands-in-horn",
                    "retraction-idempotent")


def cli_checks(argv: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    """The (name, status) of every check a CLI report must carry."""
    cmd, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if cmd == "verify-axiom1":
        p = opts["--p"]
        return ((f"chart-covering-p{p}", PASS), (f"chart-transition-exact-p{p}", PASS))
    if cmd == "verify-axiom2":
        missed = opts["--seed"] in KINK_CONTROL_MISSED
        return ((f"affine-probes-p{opts['--p']}-q{opts['--q']}", PASS),
                ("kink-control-fails", FAIL if missed else PASS))
    if cmd == "verify-axiom3":
        p = int(opts["--p"])
        return ((f"injectivity-boundary{p}", PASS),) + tuple(
            (f"injectivity-horn{p}_{k}", PASS) for k in range(p + 1))
    if cmd == "verify-axiom4":
        n, k = opts["--p"], opts["--k"]
        return tuple((f"{c}-({n},{k})", PASS) for c in AXIOM4_CONTRACTS)
    if cmd == "fill-horn":
        return (("restriction-reproduces-input", PASS),)
    if cmd == "homotopy-eval":
        return (("evaluation", PASS),)
    if cmd == "rlp":
        _, failing = oracle.rlp_counts(oracle.named_map(opts["--map"]),
                                       opts["--gens"], int(opts["--max-dim"]))
        return (("rlp", FAIL if failing else PASS),)
    if cmd == "factorize":
        stages, residual = FACTORIZE[" ".join(argv)]
        return tuple((f"stage-{n}-invariants", PASS) for n in range(stages)) + (
            ("rlp-clean-within-budget", FAIL if residual else PASS),)
    if cmd == "pi":
        # every complex the plans name is connected
        return (("pi0", PASS), ("edge-group-rank", PASS))
    raise ValueError(f"no expected checks for {cmd!r}")


def exit_status(checks: tuple[tuple[str, str], ...]) -> int:
    return 1 if any(status == FAIL for _, status in checks) else 0


TOL_ID = 1e-12
TOL = 1e-9
BOUNDARY_EPS = 0.2


def deform_contracts(kind: str, n: int, k: int, results) -> Optional[str]:
    """The first broken contract among ``(z, s, H(z, s))`` triples, or None.

    ``full`` retracts Δ^n onto the horn at k and ``halfopen`` the half-open
    simplex ``z_k > 0`` onto the half-open horn, both fixing the horn; the
    ``boundary-t`` homotopy moves the ``BOUNDARY_EPS``-collar onto the
    boundary and fixes the boundary.
    """
    name = f"{kind}({n},{k})"
    for z, s, out in results:
        where = f"{name} at z={z}, s={s}: {out}"
        if len(out) != n + 1 or min(out) < -TOL_ID or abs(sum(out) - 1.0) > TOL:
            return f"left the simplex, {where}"
        moved = max(abs(a - b) for a, b in zip(out, z))
        if s == 0.0 and moved > TOL_ID:
            return f"not the identity at time 0, {where}"
        if kind == "boundary-t":
            if min(z) == 0.0 and moved > TOL:
                return f"moved a boundary point, {where}"
            if s == 1.0 and min(z) <= BOUNDARY_EPS and min(out) > TOL:
                return f"collar point off the boundary at time 1, {where}"
            continue
        if any(z[i] == 0.0 for i in range(n + 1) if i != k) and moved > TOL:
            return f"moved a horn point, {where}"
        if s == 1.0:
            if min(c for i, c in enumerate(out) if i != k) > TOL:
                return f"did not land in the horn, {where}"
            if kind == "halfopen" and out[k] <= 0.0:
                return f"left the half-open simplex, {where}"
    return None
