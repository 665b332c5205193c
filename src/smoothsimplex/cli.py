"""Command-line verification harness.

Every subcommand runs a fixed battery of checks at the requested
dimensions and emits a machine-readable report; the exit status is 0
exactly when all checks pass.  Reports are byte-identical across runs for
identical flags and seed (wall-clock timing is only filled in on request,
since it would break that reproducibility).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import sub
from typing import Callable, Optional

from . import engine, homotopy, probe, realization
from .geometry import (
    AffineSimplexMap,
    Bary,
    barycentric_grid,
    chart_decompose,
    float_grid,
    phi_chart,
    transition_identity_gap,
)
from .simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    SimplicialMap,
    boundary_complex,
    horn_complex,
    standard_simplicial_set,
)

DEFAULT_TOL = 1e-9
DEFAULT_DERIV_TOL = 1e-6
DEFAULT_GRID = 20
DEFAULT_SEED = 0


@dataclass
class Report:
    command: str
    parameters: dict
    seed: Optional[int] = None
    checks: list[dict] = field(default_factory=list)
    timing_s: Optional[float] = None

    def add(self, name: str, passed: bool, max_violation=None, witness=None,
            skipped: bool = False) -> None:
        self.checks.append({
            "name": name,
            "status": "skipped" if skipped else ("pass" if passed else "fail"),
            "max_violation": max_violation,
            "witness": witness,
        })

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"command": self.command, "parameters": self.parameters,
                "seed": self.seed, "checks": self.checks,
                "timing_s": self.timing_s}

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, val in sorted(self.parameters.items()):
            lines.append(f"  {key} = {val}")
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[c["status"]]
            extra = ""
            if c["max_violation"] is not None:
                extra = f"  max violation {c['max_violation']:.3e}"
            lines.append(f"[{mark}] {c['name']}{extra}")
            if c["status"] == "fail" and c["witness"] is not None:
                lines.append(f"       witness: {json.dumps(c['witness'], sort_keys=True)}")
        lines.append("result: " + ("all checks passed" if self.ok else "FAILURES"))
        return "\n".join(lines)


# -- named inputs -------------------------------------------------------------


#: the largest p of a named complex: Δ[p] has 2^(p+1) - 1 nondegenerate
#: simplices, so each step up doubles the time and memory of a command on it
MAX_NAMED_DIM = 12

#: a number as ``str(int)`` writes it, as JSON simplex ids are read
_NUM = "(0|[1-9][0-9]*)"
_HORN = f"horn{_NUM}_{_NUM}"


def _named_dim(name: str, digits: str) -> int:
    p = int(digits)
    if p > MAX_NAMED_DIM:
        raise ValueError(f"{name!r}: dimension {p} is above the limit "
                         f"{MAX_NAMED_DIM}")
    return p


def named_complex(name: str) -> FiniteSimplicialSet:
    """``delta<p>``, ``boundary<p>``, ``horn<p>_<k>`` or ``empty``."""
    if name == "empty":
        return FiniteSimplicialSet("empty")
    m = re.fullmatch(f"(delta|boundary){_NUM}|{_HORN}", name)
    if m is None:
        raise ValueError(f"unknown complex name {name!r}: expected delta<p>, "
                         "boundary<p>, horn<p>_<k> or empty")
    p = _named_dim(name, m[2] or m[3])
    if m[1] == "delta":
        return standard_simplicial_set(p)
    if m[1] == "boundary":
        return boundary_complex(p)[0]
    return horn_complex(p, int(m[4]))[0]


def _collapse_to_point(X: FiniteSimplicialSet) -> SimplicialMap:
    pt = standard_simplicial_set(0)
    return SimplicialMap(X, pt, {
        r.id: (tuple(range(r.dim - 1, -1, -1)), pt.ref(0))
        for r in X.nondegenerate()})


def _unique_names(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a name given twice is a ``ValueError``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError("a JSON object names one member twice")
    return obj


def _read_json(path: str, build: Callable[[object], object]) -> object:
    """``build`` of the JSON value in the file at ``path``.  Malformed JSON,
    JSON nested too deeply to parse, a member named twice and a value that
    ``build`` rejects are each a ``ValueError`` that names ``path`` once."""
    with open(path, encoding="utf-8") as fh:   # RFC 8259 JSON is UTF-8
        try:
            return build(json.load(fh, object_pairs_hook=_unique_names))
        except (ValueError, RecursionError) as exc:
            why = "JSON nested too deeply" if isinstance(exc, RecursionError) else exc
            raise ValueError(f"{path}: {why}") from None


def _map_of_json(data: object) -> SimplicialMap:
    """A simplicial map from ``{"source": <complex>, "target": <complex>,
    "assignment": {...}}`` in the library formats."""
    if not isinstance(data, dict) or not {"source", "target"} <= data.keys():
        raise ValueError('a map file must be a JSON object with '
                         '"source", "target" and "assignment"')
    source = FiniteSimplicialSet.from_json_dict(data["source"], "source")
    target = FiniteSimplicialSet.from_json_dict(data["target"], "target")
    return SimplicialMap.from_json_dict(data, source, target)


def named_map(name: str) -> SimplicialMap:
    if name == "delta1_to_delta0":
        return _collapse_to_point(standard_simplicial_set(1))
    if name == "boundary1_to_delta0":
        return _collapse_to_point(boundary_complex(1)[0])
    if name == "delta0_identity":
        return SimplicialMap.identity(standard_simplicial_set(0))
    if name == "empty_to_delta0":
        return SimplicialMap(FiniteSimplicialSet("empty"),
                             standard_simplicial_set(0), {})
    m = re.fullmatch(_HORN + "_incl", name)
    if m is not None:
        return horn_complex(_named_dim(name, m[1]), int(m[2]))[1]
    if name.startswith("collapse_"):
        return _collapse_to_point(named_complex(name[len("collapse_"):]))
    raise ValueError(f"unknown map name {name!r}: expected delta1_to_delta0, "
                     "boundary1_to_delta0, delta0_identity, empty_to_delta0, "
                     "horn<p>_<k>_incl or collapse_<complex>")


# -- command implementations ---------------------------------------------------


def run_axiom1(args) -> Report:
    rep = Report("verify-axiom1", {"p": args.p, "grid": args.grid})
    for p in ([args.p] if args.p else [1, 2, 3]):
        grid = barycentric_grid(p, args.grid)
        uncovered = []
        for z in grid:
            hits = 0
            for i, zn in enumerate(z.ratio[0]):   # the grid's points are exact
                if zn > 0:
                    dec = chart_decompose(z, i)
                    if phi_chart(i, dec.x, dec.t) == z:
                        hits += 1
            if hits == 0:
                uncovered.append(list(z.as_floats()))
        rep.add(f"chart-covering-p{p}", not uncovered,
                max_violation=float(len(uncovered)),
                witness=uncovered[:1] or None)
        taus = (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5), Fraction(1))
        ts = (Fraction(1, 5), Fraction(1, 2), Fraction(6, 7))
        ys = barycentric_grid(p - 2, 3) if p >= 2 else []
        worst, arg = _worst(
            ((i, j, y, tau, t) for i in range(p + 1) for j in range(p + 1)
             if i != j for y in ys for tau in taus for t in ts),
            lambda c: transition_identity_gap(p, *c))
        witness = None if arg is None else {
            "i": arg[0], "j": arg[1], "tau": str(arg[3]), "t": str(arg[4])}
        rep.add(f"chart-transition-exact-p{p}", worst == 0,
                max_violation=float(worst), witness=witness)
    return rep


def run_axiom2(args) -> Report:
    rep = Report("verify-axiom2",
                 {"p": args.p, "q": args.q, "trials": args.trials,
                  "tol": args.tol}, seed=args.seed)
    rng = random.Random(args.seed)
    ps = [args.p] if args.p else [1, 2, 3]
    qs = [args.q] if args.q else [1, 2, 3]
    for p in ps:
        for q in qs:
            worst = 0.0
            ok = True
            for trial in range(args.trials):
                cols = []
                for _ in range(p + 1):
                    raw = tuple([rng.randrange(1, 9) for _ in range(q + 1)])
                    cols.append(Bary.of_ratio(raw, sum(raw)))
                f = AffineSimplexMap(tuple(cols))
                report = probe.smoothness_probe(
                    f, p, order=1, tol=args.tol, seed=rng.randrange(10**6),
                    oracle=lambda curve, tau0: probe.affine_curve_derivative(
                        f, curve, tau0))
                worst = max(worst, report.max_oracle_error)
                ok = ok and report.passed
            rep.add(f"affine-probes-p{p}-q{q}", ok and worst <= args.tol,
                    max_violation=worst)

    def kink(z: Bary):
        z0, z1 = z.as_floats()
        v = abs(z0 - z1)
        return (v, 1.0 - v)

    control = probe.smoothness_probe(kink, 1, order=2, tol=args.tol,
                                     seed=args.seed + 11)
    rep.add("kink-control-fails", not control.passed,
            max_violation=None,
            witness=None if not control.passed else "control map passed")
    return rep


def _subcomplexes_of(p: int):
    yield f"boundary{p}", boundary_complex(p)
    for k in range(p + 1):
        yield f"horn{p}_{k}", horn_complex(p, k)


def run_axiom3(args) -> Report:
    rep = Report("verify-axiom3", {"p": args.p, "trials": args.trials},
                 seed=args.seed)
    ps = [args.p] if args.p else [2, 3]
    rng = random.Random(args.seed)
    for p in ps:
        for name, (K, incl) in _subcomplexes_of(p):
            seen: dict[tuple, tuple] = {}
            collisions = 0
            witness = None
            cells = K.nondegenerate()
            for _ in range(args.trials):
                ref = cells[rng.randrange(len(cells))]
                raw = tuple([rng.randrange(1, 30) for _ in range(ref.dim + 1)])
                u = Bary.of_ratio(raw, sum(raw))
                pt = realization.normalize(K, (EMPTY, ref), u)
                img = realization.canonical_injection(incl, pt)
                # exact points in lowest terms: equal ratios, equal points
                key = (pt.simplex.id, pt.coords.ratio)
                if seen.setdefault(img.ratio, key) != key:
                    collisions += 1
                    witness = {"complex": name,
                               "image": [str(c) for c in img.coords]}
                    seen[img.ratio] = key
            rep.add(f"injectivity-{name}", collisions == 0,
                    max_violation=float(collisions), witness=witness)
    return rep


def _worst(items, deviation):
    """The largest ``deviation(item)`` over ``items`` and the first item
    reaching it; ``(0.0, None)`` when no deviation is positive."""
    worst, argmax = 0.0, None
    for item in items:
        d = deviation(item)
        if d > worst:
            worst, argmax = d, item
    return worst, argmax


def _dist(a, b) -> float:
    return max(map(abs, map(sub, a, b)))


def _add_contract(rep: Report, contract: str, at: str, tol: float, items,
                  deviation, witness=list) -> None:
    """The check ``contract + at``: the worst ``deviation`` over ``items`` is
    at most ``tol``; its witness names the contract, the worst deviation and
    ``witness(argmax)``."""
    worst, argmax = _worst(items, deviation)
    rep.add(contract + at, worst <= tol, worst, witness={
        "contract": contract, "max_violation": worst,
        "argmax_point": None if argmax is None else witness(argmax)})


def _on_horn(grid, k: int):
    """The points of ``grid`` with a coordinate other than the ``k``-th equal
    to 0 (``in`` tests with ``==``)."""
    return [z for z in grid if 0 in z[:k] or 0 in z[k + 1:]]


#: the times of the horn-fixed check
HORN_TIMES = (0.2, 0.45, 0.7, 0.9, 1.0)


def run_axiom4(args) -> Report:
    rep = Report("verify-axiom4",
                 {"p": args.p, "k": args.k, "grid": args.grid,
                  "tol": args.tol})
    ns = [args.p] if args.p else homotopy.DIMS
    for n in ns:
        ks = [args.k] if args.k is not None else list(range(n + 1))
        steps = max(args.grid, {1: 200, 2: 25, 3: 12}[n])
        pts = float_grid(n, steps)
        coarse = pts if steps <= 12 else float_grid(n, 12)   # horn-fixed's grid
        for k in ks:
            H = homotopy.build_full_horn_deformation(n, k)
            horn = _on_horn(coarse, k)
            # one path per point: H(z, 0), then H(z, 1) or, on the horn, H at
            # each horn-fixed time; the grid points and times are valid by
            # construction, so only H's outputs are checked
            times = dict.fromkeys(pts, (0.0, 1.0))
            times.update(dict.fromkeys(horn, (0.0, *HORN_TIMES)))
            path = {z: H._path(z, ts) for z, ts in times.items()}
            end = {z: images[-1] for z, images in path.items()}

            at = f"-({n},{k})"
            _add_contract(rep, "identity-at-0", at, 1e-12, pts,
                          lambda z: _dist(path[z][0], z))
            _add_contract(rep, "horn-fixed", at, args.tol,
                          ((z, i, s) for z in horn
                           for i, s in enumerate(HORN_TIMES, 1)),
                          lambda zis: _dist(path[zis[0]][zis[1]], zis[0]),
                          witness=lambda zis: {"point": list(zis[0]), "s": zis[2]})
            _add_contract(rep, "lands-in-horn", at, args.tol, pts,
                          lambda z: min(end[z][:k] + end[z][k + 1:]))
            # H is pure, so end[w] is H(w, 1) wherever w is a grid point, and
            # any other w = end[z], validated as an output of H, is evaluated
            # once and kept in end with them
            def again(w):
                if w not in end:
                    end[w] = H._path(w, (1.0,))[0]
                return end[w]
            _add_contract(rep, "retraction-idempotent", at, args.tol, pts,
                          lambda z: _dist(end[z], again(end[z])))
    return rep


def run_fill_horn(args) -> Report:
    rep = Report("fill-horn", {"p": args.p, "k": args.k, "grid": args.grid,
                               "tol": args.tol})
    filled = engine.fill_horn_numeric(lambda z: z, args.p, args.k)
    _add_contract(rep, "restriction-reproduces-input", "", args.tol,
                  _on_horn(float_grid(args.p, args.grid), args.k),
                  lambda z: _dist(filled(z).coords, z))
    return rep


def run_rlp(args) -> Report:
    f = args.f
    gens = engine.GeneratingSet(args.gens, args.max_dim)
    rep = Report("rlp", {"map": args.map or args.map_file, "gens": args.gens,
                         "max_dim": args.max_dim})
    report = engine.rlp_check(f, gens)
    rep.add("rlp", report.has_rlp,
            max_violation=float(len(report.failures)),
            witness=(report.failures[0].to_json_dict()
                     if report.failures else None))
    rep.parameters["checked_squares"] = report.checked
    rep.parameters["failing_squares"] = len(report.failures)
    return rep


def run_factorize(args) -> Report:
    f = args.f
    gens = engine.GeneratingSet(args.gens, args.max_dim)
    rep = Report("factorize", {"map": args.map or args.map_file,
                               "gens": args.gens,
                               "max_dim": args.max_dim,
                               "max_stages": args.max_stages})
    stages = engine.igc_factor(f, gens, max_stages=args.max_stages,
                               max_problems=args.max_problems)
    for st in stages:
        ok = st.j.is_injective()
        comp = st.q.compose(st.j)
        exact = all(comp.assignment[r.id] == f.assignment[r.id]
                    for r in f.source.nondegenerate())
        rep.add(f"stage-{st.n}-invariants", ok and exact,
                witness=st.to_json_dict())
    rep.add("rlp-clean-within-budget", not stages[-1].residual,
            max_violation=float(len(stages[-1].residual)))
    return rep


def run_pi(args) -> Report:
    X = args.X
    rep = Report("pi", {"complex": args.complex or args.complex_file})
    count, comps = engine.pi0(X)
    rep.add("pi0", True, witness={"components": count,
                                  "classes": [list(c) for c in comps]})
    if count == 1:
        rep.add("edge-group-rank", True, witness=engine.edge_group_rank(X))
    else:
        rep.add("edge-group-rank", True, skipped=True,
                witness="complex is not connected")
    return rep


def run_homotopy_eval(args) -> Report:
    H, coords = args.H, args.coords
    rep = Report("homotopy-eval",
                 {"p": args.p, "k": args.k, "kind": args.kind,
                  "point": list(coords), "s": args.s, "eps": args.eps})
    # the point and time were checked where they were read
    payload = {"point": list(coords), "s": args.s,
               "result": list(H._path(coords, (args.s,))[0]),
               "stage": H.stage_of(args.s)}
    rep.add("evaluation", True, witness=payload)
    return rep


# -- argument parsing -----------------------------------------------------------


def _at_least(lo: int, at_most: Optional[int] = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {value}")
        return value
    return parse


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


#: ``--p``/``--q`` of the exact checks: Δ^p and ∂Δ[p] grow like 2^p
_EXACT_DIM = _at_least(1, at_most=MAX_NAMED_DIM)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smoothsimplex",
        description="verification suites for the smooth-simplex constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-axiom1", help="chart covering and transitions")
    sp.add_argument("--p", type=_EXACT_DIM, default=None)
    sp.add_argument("--grid", type=_at_least(1), default=DEFAULT_GRID)

    sp = sub.add_parser("verify-axiom2", help="smoothness probes on affine maps")
    sp.add_argument("--p", type=_EXACT_DIM, default=None)
    sp.add_argument("--q", type=_EXACT_DIM, default=None)
    sp.add_argument("--trials", type=_at_least(1), default=10)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--tol", type=_tolerance, default=DEFAULT_DERIV_TOL)

    sp = sub.add_parser("verify-axiom3", help="canonical-injection injectivity")
    sp.add_argument("--p", type=_EXACT_DIM, default=None)
    sp.add_argument("--trials", type=_at_least(1), default=10000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("verify-axiom4", help="horn deformation contracts")
    sp.add_argument("--p", type=int, choices=homotopy.DIMS, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--grid", type=_at_least(1), default=DEFAULT_GRID)
    sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    sp = sub.add_parser("fill-horn", help="numeric horn filling")
    sp.add_argument("--p", type=int, choices=homotopy.DIMS, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--grid", type=_at_least(1), default=DEFAULT_GRID)
    sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    def map_and_gens(sp):
        which = sp.add_mutually_exclusive_group(required=True)
        which.add_argument("--map", default=None, help="a named built-in map")
        which.add_argument("--map-file", default=None,
                           help="JSON file with source, target, and assignment")
        sp.add_argument("--gens", choices=("I", "J"), required=True)
        sp.add_argument("--max-dim", type=int, choices=range(MAX_NAMED_DIM + 1),
                        default=2, metavar=f"0..{MAX_NAMED_DIM}")

    sp = sub.add_parser("rlp", help="right-lifting-property check")
    map_and_gens(sp)

    sp = sub.add_parser("factorize", help="bounded gluing factorization")
    map_and_gens(sp)
    sp.add_argument("--max-stages", type=_at_least(0), default=2)
    sp.add_argument("--max-problems", type=_at_least(1), default=16)

    sp = sub.add_parser("pi", help="components and edge-group rank")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--complex", default=None)
    which.add_argument("--complex-file", default=None)

    sp = sub.add_parser("homotopy-eval", help="evaluate a deformation")
    sp.add_argument("--p", type=int, choices=homotopy.DIMS, required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--kind", choices=("full", "halfopen", "boundary-t"),
                    default="full")
    sp.add_argument("--point", required=True,
                    help="comma-separated barycentric coordinates")
    sp.add_argument("--s", type=_finite, required=True)
    sp.add_argument("--eps", type=_finite, default=0.2)

    for sp in sub.choices.values():   # the output flags, last on every command
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--json", dest="json_path", default=None,
                        help="also write the JSON report to this path")
        sp.add_argument("--measure-time", action="store_true",
                        help="fill in wall-clock timing (breaks byte-identical reports)")
        sp.set_defaults(usage_error=sp.error)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first parse and reused by every later one."""
    return build_parser()


RUNNERS = {
    "verify-axiom1": run_axiom1,
    "verify-axiom2": run_axiom2,
    "verify-axiom3": run_axiom3,
    "verify-axiom4": run_axiom4,
    "fill-horn": run_fill_horn,
    "rlp": run_rlp,
    "factorize": run_factorize,
    "pi": run_pi,
    "homotopy-eval": run_homotopy_eval,
}


def _parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    """Parse ``argv``; bad flags and out-of-range values exit with status 2,
    under the subcommand's usage line."""
    args = _parser().parse_args(argv)
    # without --p the axiom commands start at dimension 1
    top = getattr(args, "p", None) or 1
    if getattr(args, "k", None) is not None and not 0 <= args.k <= top:
        args.usage_error(f"argument --k: horn index {args.k} outside 0..{top}")
    # J starts at Λ[1,k]: below 1 it is empty and any map would pass
    if getattr(args, "gens", None) == "J" and args.max_dim < 1:
        args.usage_error(f"argument --max-dim: must be at least 1 for J, "
                         f"got {args.max_dim}")
    return args


def _read_inputs(args: argparse.Namespace) -> None:
    """Read the command's named or file inputs and its point into ``args``;
    bad input raises ``ValueError`` or ``OSError``."""
    if args.command in ("rlp", "factorize"):
        args.f = (_read_json(args.map_file, _map_of_json) if args.map_file
                  else named_map(args.map))
    elif args.command == "pi" and args.complex_file:
        args.X = _read_json(args.complex_file, FiniteSimplicialSet.from_json_dict)
    elif args.command == "pi":
        args.X = named_complex(args.complex)
    elif args.command == "homotopy-eval":
        point = tuple(float(c) for c in args.point.split(","))
        if args.kind == "full":
            args.H = homotopy.build_full_horn_deformation(args.p, args.k)
        elif args.kind == "halfopen":
            args.H = homotopy.build_halfopen_deformation(args.p, args.k)
        else:
            args.H = homotopy.build_boundary_homotopy_T(args.p, args.eps)
        args.coords = args.H.checked_point(point, args.s)


def _execute(args: argparse.Namespace) -> tuple[Report, int]:
    """Run the command on its read inputs; return the report with its exit
    status."""
    t0 = time.perf_counter()
    report = RUNNERS[args.command](args)
    if args.measure_time:
        report.timing_s = time.perf_counter() - t0
    return report, (0 if report.ok else 1)


def run(argv: Optional[list[str]] = None) -> tuple[Report, int]:
    """Parse, read the inputs, execute, and return the report with its exit
    status."""
    args = _parse_args(argv)
    _read_inputs(args)
    return _execute(args)


def _input_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    """Exit 2 on bad input (flags, named or file inputs, the point, an
    unwritable report); an error inside a check is not caught here."""
    args = _parse_args(argv)
    try:
        _read_inputs(args)
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    report, code = _execute(args)
    try:
        payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2,
                             allow_nan=False)
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    if args.format == "json":
        print(payload)
    else:
        print(report.render_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
