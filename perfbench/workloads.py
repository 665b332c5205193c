"""The four workloads: what each job calls and what verdict it must return.

A workload is planned from the seed alone (``plan``), before the package is
imported, so the plan and its expected verdicts owe nothing to the code
under test.  ``bind`` is the set-up the benchmark times: it builds the
package objects the jobs need (complexes, maps, homotopies, grids) and
returns one round of runnable jobs.  Every run repeats that round.

Jobs look package functions up through their module at call time, so the
traced run sees the calls it wraps.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from types import SimpleNamespace
from typing import Callable, Optional

import expected
import oracle

WORKLOADS = ("kan", "glue", "deform", "exact")


@dataclass(frozen=True)
class Spec:
    """One job of a round: ``kind`` selects how it is run and checked,
    ``expect`` is its expected verdict and ``seeded`` any seeded data it
    needs beyond ``args``."""

    kind: str
    args: tuple
    expect: object = None
    seeded: tuple = ()

    @property
    def label(self) -> str:
        return f"{self.kind} {' '.join(str(a) for a in self.args)}"

    @property
    def group(self) -> str:
        """The kind, with the command for CLI jobs and the dimension for
        horn jobs: jobs of one group cost about the same."""
        if self.kind == "cli":
            return f"cli {self.args[0]}"
        if self.kind == "kan.horn":
            return f"kan.horn p={self.args[1]}"
        return self.kind


@dataclass
class Job:
    spec: Spec
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


# -- plans --------------------------------------------------------------------

# Λ[3,0] ⊂ Δ[3] with the apex as vertex 0 is the cone on ∂Δ[2] as the
# package builds it (apex first, cone simplices ordered apex-first).
KAN_COMPLEXES = {
    "delta2": oracle.simplex(2),
    "delta3": oracle.simplex(3),
    "delta4": oracle.simplex(4),
    "boundary3": oracle.boundary(3),
    "cone_boundary2": oracle.horn(3, 0),
    **{f"horn3_{k}": oracle.horn(3, k) for k in range(4)},
}


def plan_kan(rng: random.Random) -> list[Spec]:
    k0 = rng.randrange(4)
    specs = [Spec("kan.is_kan", (name, 3), tuple(oracle.kan_table(KAN_COMPLEXES[name], 3)))
             for name in ("delta2", "delta3")]
    for name, dims in (("delta4", (2, 3)), ("boundary3", (2, 3)),
                       (f"horn3_{k0}", (2, 3)), ("cone_boundary2", (2, 3)),
                       ("delta2", (4,))):
        for p in dims:
            for k in range(p + 1):
                specs.append(Spec("kan.horn", (name, p, k), oracle.horn_counts(
                    KAN_COMPLEXES[name], p, k)))
    return specs


def plan_glue(rng: random.Random) -> list[Spec]:
    a = rng.randrange(3)        # which Λ[2,a] where one is used
    b = rng.randrange(4)        # which Λ[3,b]
    rlp = [("collapse_boundary3", "J", 3), (f"collapse_horn3_{b}", "J", 2),
           (f"horn3_{b}_incl", "J", 2), ("collapse_delta3", "I", 3),
           ("collapse_boundary2", "J", 3), (f"horn2_{a}_incl", "J", 3),
           (f"horn2_{a}_incl", "I", 3), (f"collapse_horn2_{a}", "J", 3),
           (f"collapse_horn2_{a}", "I", 3), ("collapse_delta2", "I", 3),
           ("delta1_to_delta0", "J", 3), ("boundary1_to_delta0", "J", 3),
           ("boundary1_to_delta0", "I", 3), ("delta0_identity", "J", 3)]
    specs = [Spec("glue.rlp", args, oracle.rlp_counts(oracle.named_map(args[0]),
                                                      args[1], args[2]))
             for args in rlp]
    igc = [(f"horn2_{h}_incl", "J", 2, 3, 8) for h in range(3)]
    igc += [("delta1_to_delta0", "J", 2, 3, 8), ("collapse_boundary2", "I", 2, 3, 16),
            ("collapse_boundary2", "J", 2, 2, 8), (f"horn2_{a}_incl", "I", 2, 3, 16)]
    specs += [Spec("glue.igc", args, expected.IGC_STAGES[args]) for args in igc]
    specs += [cli_spec(argv) for argv in glue_argvs(a, b)]
    return specs


def glue_argvs(a: int, b: int) -> list[tuple[str, ...]]:
    """The README's ``rlp`` and ``factorize`` runs, plus two seeded ones."""
    return [("rlp", "--map", "delta1_to_delta0", "--gens", "J", "--max-dim", "2"),
            ("factorize", "--map", "horn2_1_incl", "--gens", "J", "--max-dim", "2",
             "--max-stages", "2"),
            ("rlp", "--map", f"collapse_horn2_{a}", "--gens", "I", "--max-dim", "2"),
            ("pi", "--complex", f"horn3_{b}")]


HOMOTOPY_POINTS = {
    1: ((0.3, 0.7), (0.85, 0.15), (0.5, 0.5)),
    2: ((0.2, 0.3, 0.5), (0.6, 0.25, 0.15), (0.05, 0.9, 0.05)),
    3: ((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1), (0.25, 0.05, 0.6, 0.1)),
}
HOMOTOPY_TIMES = ("0.3", "1.0")


def homotopy_eval_argvs() -> list[tuple[str, ...]]:
    """Every ``homotopy-eval`` job a seed can choose (all points are interior,
    so every kind and horn index accepts them)."""
    out = []
    for kind in ("full", "halfopen", "boundary-t"):
        for p, points in HOMOTOPY_POINTS.items():
            for k in (range(p + 1) if kind != "boundary-t" else (0,)):
                for z in points:
                    for s in HOMOTOPY_TIMES:
                        out.append(("homotopy-eval", "--p", str(p), "--k", str(k),
                                    "--kind", kind,
                                    "--point", ",".join(str(c) for c in z),
                                    "--s", s))
    return out


#: grid steps of the batch points; a batch evaluates every grid point (of
#: the domain) at times 0, a seeded time and 1, so its cost does not hang on
#: which points a seed picks
BATCH_GRID = {2: 20, 3: 10}


def axiom4_argv(n: int, k: int) -> tuple[str, ...]:
    return ("verify-axiom4", "--p", str(n), "--k", str(k), "--grid", "12")


def fill_horn_argv(p: int, k: int) -> tuple[str, ...]:
    return ("fill-horn", "--p", str(p), "--k", str(k), "--grid", "10")


def plan_deform(rng: random.Random) -> list[Spec]:
    specs = [cli_spec(axiom4_argv(n, k)) for n in (1, 2, 3) for k in range(n + 1)]
    specs += [cli_spec(fill_horn_argv(p, rng.randrange(p + 1))) for p in (1, 2, 3, 3)]
    specs += [cli_spec(argv) for argv in rng.sample(homotopy_eval_argvs(), 6)]
    for kind in ("full", "halfopen", "boundary-t"):
        for n in (2, 3):
            k = rng.randrange(n + 1) if kind != "boundary-t" else 0
            size = comb(BATCH_GRID[n] + n, n)
            times = tuple(rng.uniform(0.05, 0.95) for _ in range(size))
            specs.append(Spec("deform.batch", (kind, n, k), seeded=times))
    return specs


CATALOGUE_SEEDS = 8


AXIOM1_ARGVS = [("verify-axiom1", "--p", str(p), "--grid", str(g))
                for p, g in ((1, 20), (2, 12), (3, 6))]


def axiom2_argv(p: int, q: int, seed: int) -> tuple[str, ...]:
    return ("verify-axiom2", "--p", str(p), "--q", str(q), "--trials", "1",
            "--seed", str(seed))


def axiom3_argv(p: int, seed: int) -> tuple[str, ...]:
    return ("verify-axiom3", "--p", str(p), "--trials", "200", "--seed", str(seed))


def plan_exact(rng: random.Random) -> list[Spec]:
    """Seeds of the axiom commands come from a catalogue of
    ``CATALOGUE_SEEDS``, so that every report has a golden digest."""
    specs = [cli_spec(argv) for argv in AXIOM1_ARGVS]
    specs += [cli_spec(axiom2_argv(p, q, rng.randrange(CATALOGUE_SEEDS)))
              for p in (1, 2, 3) for q in (1, 2, 3)]
    specs += [cli_spec(axiom3_argv(p, rng.randrange(CATALOGUE_SEEDS)))
              for p in (2, 3, 3)]
    return specs


PLANS = {"kan": plan_kan, "glue": plan_glue, "deform": plan_deform,
         "exact": plan_exact}


def plan(workload: str, seed: int) -> list[Spec]:
    """The job round of ``workload`` for ``seed``, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    specs = PLANS[workload](rng)
    rng.shuffle(specs)
    return specs


def cli_catalogue() -> list[tuple[str, ...]]:
    """Every CLI job any seed can plan, so that each has a golden digest."""
    out = [argv for a in range(3) for b in range(4) for argv in glue_argvs(a, b)]
    out += [axiom4_argv(n, k) for n in (1, 2, 3) for k in range(n + 1)]
    out += [fill_horn_argv(p, k) for p in (1, 2, 3) for k in range(p + 1)]
    out += homotopy_eval_argvs() + AXIOM1_ARGVS
    out += [axiom2_argv(p, q, s) for p in (1, 2, 3) for q in (1, 2, 3)
            for s in range(CATALOGUE_SEEDS)]
    out += [axiom3_argv(p, s) for p in (2, 3) for s in range(CATALOGUE_SEEDS)]
    return list(dict.fromkeys(out))


def cli_spec(argv: tuple[str, ...]) -> Spec:
    checks = expected.cli_checks(argv)
    return Spec("cli", argv, (checks, expected.exit_status(checks),
                              expected.GOLDEN[" ".join(argv)]))


# -- set-up: package inputs and runnable jobs ---------------------------------


def bind(specs: list[Spec], pkg: SimpleNamespace) -> list[Job]:
    """Build the package inputs of ``specs`` and return the runnable round."""
    inputs = Inputs(pkg)
    return [BINDERS[spec.kind](spec, inputs, pkg) for spec in specs]


class Inputs:
    """Package objects shared by the jobs of a round, built once each."""

    def __init__(self, pkg: SimpleNamespace) -> None:
        self.pkg = pkg
        self._cache: dict[tuple, object] = {}

    def get(self, key: tuple, make: Callable[[], object]) -> object:
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def complex(self, name: str):
        s = self.pkg.simplicial
        if name == "cone_boundary2":
            make = lambda: s.cone(s.boundary_complex(2)[0])[0]
        elif name.startswith("delta"):
            make = lambda: s.standard_simplicial_set(int(name[5:]))
        elif name.startswith("boundary"):
            make = lambda: s.boundary_complex(int(name[8:]))[0]
        else:
            p, k = (int(x) for x in name[4:].split("_"))
            make = lambda: s.horn_complex(p, k)[0]
        return self.get(("complex", name), make)

    def horn_source(self, p: int, k: int):
        return self.get(("horn", p, k),
                        lambda: self.pkg.simplicial.horn_complex(p, k)[0])

    def named_map(self, name: str):
        return self.get(("map", name), lambda: self.pkg.cli.named_map(name))

    def gens(self, kind: str, dim: int):
        return self.get(("gens", kind, dim),
                        lambda: self.pkg.engine.GeneratingSet(kind, dim))

    def homotopy(self, kind: str, n: int, k: int):
        h = self.pkg.homotopy
        if kind == "full":
            make = lambda: h.build_full_horn_deformation(n, k)
        elif kind == "halfopen":
            make = lambda: h.build_halfopen_deformation(n, k)
        else:
            make = lambda: h.build_boundary_homotopy_T(n, expected.BOUNDARY_EPS)
        return self.get(("homotopy", kind, n, k), make)

    def grid(self, n: int):
        return self.get(("grid", n), lambda: [
            z.as_floats() for z in self.pkg.geometry.barycentric_grid(n, BATCH_GRID[n])])


def _mismatch(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def bind_kan_horn(spec: Spec, inputs: Inputs, pkg) -> Job:
    name, p, k = spec.args
    X, A = inputs.complex(name), inputs.horn_source(p, k)

    def call():
        s = pkg.simplicial
        total = unfillable = 0
        for hm in s.enumerate_maps(A, X):
            total += 1
            if not s.horn_fillers(X, hm, p, k):
                unfillable += 1
        return total, unfillable

    return Job(spec, call, lambda got: _mismatch("(maps, unfillable)", got, spec.expect))


def bind_kan_is_kan(spec: Spec, inputs: Inputs, pkg) -> Job:
    name, n = spec.args
    X = inputs.complex(name)

    def check(report) -> Optional[str]:
        got = tuple((r["p"], r["k"], r["maps"], r["unfillable"]) for r in report)
        bad = [r for r in report if r["fillable"] != (r["unfillable"] == 0)]
        return (_mismatch("(p, k, maps, unfillable)", got, spec.expect)
                or (f"fillable flag contradicts the count in {bad[0]}" if bad else None))

    return Job(spec, lambda: pkg.simplicial.is_kan_up_to(X, n), check)


def bind_glue_rlp(spec: Spec, inputs: Inputs, pkg) -> Job:
    name, kind, dim = spec.args
    f, gens = inputs.named_map(name), inputs.gens(kind, dim)

    def call():
        report = pkg.engine.rlp_check(f, gens)
        return report.checked, len(report.failures), report.has_rlp

    def check(got) -> Optional[str]:
        squares, failing = spec.expect
        return _mismatch("(squares, failing, has_rlp)", got,
                         (squares, failing, failing == 0))

    return Job(spec, call, check)


def bind_glue_igc(spec: Spec, inputs: Inputs, pkg) -> Job:
    name, kind, dim, stages, cap = spec.args
    f, gens = inputs.named_map(name), inputs.gens(kind, dim)

    def call():
        tower = pkg.engine.igc_factor(f, gens, max_stages=stages, max_problems=cap)
        return tuple((st.attached, sum(st.complex.counts()), len(st.residual))
                     for st in tower)

    return Job(spec, call, lambda got: _mismatch(
        "(attached, cells, residual) per stage", got, spec.expect))


def report_digest(report) -> str:
    """Digest of the JSON report exactly as ``--format json`` prints it."""
    payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def bind_cli(spec: Spec, inputs: Inputs, pkg) -> Job:
    argv = list(spec.args)
    checks, status, digest = spec.expect

    def check(got) -> Optional[str]:
        report, code = got
        names = tuple((c["name"], c["status"]) for c in report.checks)
        return (_mismatch("exit status", code, status)
                or _mismatch("checks", names, checks)
                or _mismatch("report digest", report_digest(report), digest))

    return Job(spec, lambda: pkg.cli.run(argv), check)


def bind_deform_batch(spec: Spec, inputs: Inputs, pkg) -> Job:
    kind, n, k = spec.args
    H = inputs.homotopy(kind, n, k)
    grid = inputs.grid(n)
    points = [z for z in grid if z[k] > 0.0] if kind == "halfopen" else grid

    def call():
        return [(z, s, H(z, s).coords)
                for z, t in zip(points, spec.seeded) for s in (0.0, t, 1.0)]

    return Job(spec, call, lambda got: expected.deform_contracts(kind, n, k, got))


BINDERS = {"kan.horn": bind_kan_horn, "kan.is_kan": bind_kan_is_kan,
           "glue.rlp": bind_glue_rlp, "glue.igc": bind_glue_igc,
           "cli": bind_cli, "deform.batch": bind_deform_batch}
