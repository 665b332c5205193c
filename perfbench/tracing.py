"""Per-layer tracing from outside the package.

The traced run wraps the public functions and methods of each of the
package's nine modules (the layers).  A module-level function is rebound in
every package module that holds it, since ``from .x import f`` copies the
name; a method is patched on its class.  Each wrapper records a span: its
count, its inclusive time and its self time (inclusive time minus the spans
it called).  A generator function is timed per resumption, so only the work
of producing its items counts, and its items are counted.  Spans are kept as
aggregates in memory and turned into metrics when the run ends.

A traced call costs time of its own: part lands inside the callee's span
and part in its caller's.  ``Tracer`` measures both parts once, on an empty
function, and leaves them out of self times, so that self times are not
inflated in proportion to the calls a layer makes.

Self time of code that no wrapper covers (private helpers, callbacks a layer
receives from its caller) lands on the nearest traced caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

LAYERS = ("words", "simplicial", "engine", "geometry", "realization", "probe",
          "steps", "homotopy", "cli")

#: traced callables per layer (the layer is also the module name)
TARGETS = {
    "words": ("prepend_face", "prepend_degeneracy", "concat", "words_of_length",
              "check_valid"),
    "simplicial": (
        "FiniteSimplicialSet.face", "FiniteSimplicialSet.degeneracy",
        "FiniteSimplicialSet.simplices", "FiniteSimplicialSet.vertices_of",
        "FiniteSimplicialSet.validate", "FiniteSimplicialSet.add_simplex",
        "FiniteSimplicialSet.nondegenerate", "SimplicialMap.__call__",
        "SimplicialMap.validate", "SimplicialMap.compose",
        "SimplicialMap.is_injective", "standard_simplicial_set", "vertex_ref",
        "boundary_complex", "horn_complex", "enumerate_simplices", "pushout",
        "cone", "enumerate_maps", "horn_fillers", "is_kan_up_to"),
    "engine": ("GeneratingSet.generators", "LiftingProblem.lifts",
               "LiftingProblem.has_lift", "iter_lifting_problems", "rlp_check",
               "igc_factor", "fill_horn_numeric", "FilledMap.__call__", "pi0",
               "edge_group_rank"),
    "geometry": ("Bary.__post_init__", "barycentric_grid",
                 "AffineSimplexMap.__call__", "AffineSimplexMap.matrix",
                 "phi_chart", "chart_decompose", "chart_transition",
                 "transition_identity_gap", "good_nbhd_Phi",
                 "good_nbhd_Phi_inverse", "in_good_neighborhood"),
    "realization": ("normalize", "canonical_injection", "realize_map"),
    "probe": ("smoothness_probe", "random_curve", "affine_curve_derivative",
              "ProbeCurve.point"),
    "steps": ("SmoothStep.__call__", "two_phase", "phase_times"),
    "homotopy": ("EvaluableHomotopy.__call__", "build_full_horn_deformation",
                 "build_halfopen_deformation", "build_boundary_homotopy_T",
                 "half_open_core", "collar_core"),
    "cli": ("run", "named_map", "named_complex"),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str        # the end-to-end metrics it should move
    workloads: str    # the workloads it should move them on


def _m(name, unit, better, moves, workloads):
    return LayerMetric(name, unit, better, moves, workloads)


_KAN = ("verdict_p50_s, jobs_per_s", "kan (then glue)")
METRICS = (
    _m("words.prepend_face.calls", "count", "lower", *_KAN),
    _m("words.concat.calls", "count", "lower", *_KAN),
    _m("words.self_s", "s", "lower", *_KAN),
    _m("simplicial.face.calls", "count", "lower", "verdict_p50_s, verdict_p90_s", "kan"),
    _m("simplicial.face.self_s", "s", "lower", "verdict_p50_s, verdict_p90_s", "kan"),
    _m("simplicial.face_calls_per_map", "ratio", "lower",
       "verdict_p50_s, verdict_p90_s", "kan"),
    _m("simplicial.enumerate_maps.calls", "count", "lower",
       "verdict_p90_s, jobs_per_s", "kan, glue"),
    _m("simplicial.enumerate_maps.maps", "count", "higher",
       "verdict_p90_s, jobs_per_s", "kan, glue"),
    _m("simplicial.enumerate_maps.self_s", "s", "lower",
       "verdict_p90_s, jobs_per_s", "kan, glue"),
    _m("simplicial.horn_fillers.calls", "count", "lower",
       "verdict_p90_s, jobs_per_s", "kan, glue"),
    _m("simplicial.horn_fillers.self_s", "s", "lower",
       "verdict_p90_s, jobs_per_s", "kan, glue"),
    _m("simplicial.self_s", "s", "lower", "verdict_p90_s, jobs_per_s", "kan, glue"),
    _m("simplicial.add_simplex.calls", "count", "lower",
       "verdict_p90_s, peak_rss_mb", "glue"),
    _m("simplicial.pushout.calls", "count", "lower", "verdict_p90_s, peak_rss_mb", "glue"),
    _m("simplicial.pushout.self_s", "s", "lower", "verdict_p90_s, peak_rss_mb", "glue"),
    _m("engine.squares", "count", "higher", "verdict_p90_s, jobs_per_s", "glue"),
    _m("engine.lift_found_frac", "ratio", "higher", "verdict_p90_s, jobs_per_s", "glue"),
    _m("engine.rlp_check.self_s", "s", "lower", "verdict_p90_s, jobs_per_s", "glue"),
    _m("engine.igc_factor.cells_attached", "count", "higher",
       "verdict_p90_s, jobs_per_s", "glue"),
    _m("engine.igc_factor.residual", "count", "lower", "verdict_p90_s, jobs_per_s", "glue"),
    _m("engine.igc_factor.self_s", "s", "lower", "verdict_p90_s, jobs_per_s", "glue"),
    _m("engine.self_s", "s", "lower", "verdict_p90_s, jobs_per_s", "glue"),
    _m("geometry.Bary.calls", "count", "lower", "verdict_p50_s, jobs_per_s",
       "exact"),
    _m("geometry.Bary.self_s", "s", "lower", "verdict_p50_s, jobs_per_s", "exact"),
    _m("geometry.charts.calls", "count", "lower", "verdict_p50_s, jobs_per_s", "exact"),
    _m("geometry.barycentric_grid.points", "count", "higher", "setup_s",
       "deform (grid set-up), exact"),
    _m("geometry.self_s", "s", "lower", "verdict_p50_s, jobs_per_s; setup_s",
       "exact; deform (grid set-up)"),
    _m("realization.normalize.calls", "count", "lower", "verdict_p50_s", "exact"),
    _m("realization.canonical_injection.calls", "count", "lower", "verdict_p50_s",
       "exact"),
    _m("realization.self_s", "s", "lower", "verdict_p50_s", "exact"),
    _m("probe.smoothness_probe.calls", "count", "lower", "verdict_p90_s", "exact"),
    _m("probe.map_evals", "count", "lower", "verdict_p90_s", "exact"),
    _m("probe.self_s", "s", "lower", "verdict_p90_s", "exact"),
    _m("steps.SmoothStep.calls", "count", "lower", "verdict_p50_s, jobs_per_s", "deform"),
    _m("steps.self_s", "s", "lower", "verdict_p50_s, jobs_per_s", "deform"),
    _m("homotopy.evals", "count", "higher", "verdict_p50_s, jobs_per_s", "deform"),
    _m("homotopy.evals_per_s", "1/s", "higher", "verdict_p50_s, jobs_per_s", "deform"),
    _m("homotopy.build.calls", "count", "lower", "verdict_p50_s, jobs_per_s; setup_s",
       "deform"),
    _m("homotopy.build.self_s", "s", "lower", "verdict_p50_s, jobs_per_s; setup_s",
       "deform"),
    _m("homotopy.self_s", "s", "lower", "verdict_p50_s, jobs_per_s; setup_s", "deform"),
    _m("cli.run.calls", "count", "lower", "all four timing metrics", "all"),
    _m("cli.self_s", "s", "lower", "all four timing metrics", "all"),
    _m("trace.overhead_ratio", "ratio", "lower", "none (cost of tracing)", "all"),
)

#: the layers each workload is built to stress, by self time
EXPECTED_TOP = {"kan": ("words", "simplicial"), "glue": ("engine", "simplicial"),
                "deform": ("homotopy", "steps"),
                "exact": ("geometry", "realization", "probe")}

_BUILDERS = ("build_full_horn_deformation", "build_halfopen_deformation",
             "build_boundary_homotopy_T")
_CHARTS = ("phi_chart", "chart_decompose", "transition_identity_gap")


class Tracer:
    """Aggregated spans per (layer, callable) plus outcome counters."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}   # [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._undo: list[Callable[[], None]] = []
        self.inner_s = self.outer_s = 0.0
        self.inner_s, self.outer_s = self._calibrate()

    # -- installing ---------------------------------------------------------

    def install(self, package: str) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for layer, names in TARGETS.items():
            mod = sys.modules[f"{package}.{layer}"]
            for dotted in names:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    self._patch_method(layer, getattr(mod, cls_name), attr, dotted)
                else:
                    self._rebind(layer, getattr(mod, dotted), dotted, modules)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, layer: str, cls: type, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(layer, name, orig))
        self._undo.append(lambda: setattr(cls, attr, orig))

    def _rebind(self, layer: str, orig: Callable, name: str,
                modules: list[ModuleType]) -> None:
        wrapped = self._wrap(layer, name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    self._undo.append(lambda m=m, key=key: setattr(m, key, orig))

    # -- spans ----------------------------------------------------------------

    def _calibrate(self, reps: int = 7, n: int = 20000) -> tuple[float, float]:
        """Per traced call: the time it records in its own span, and the
        time it adds to its caller outside that span, for an empty body."""
        def leaf():
            return None

        wrapped = self._wrap("calibration", "leaf", leaf)
        rec = self.spans.pop(("calibration", "leaf"))
        inner = outer = float("inf")
        for _ in range(reps):
            rec[2] = 0.0
            self._stack.append(0.0)
            t0 = time.perf_counter()
            for _ in range(n):
                wrapped()
            traced = time.perf_counter() - t0 - self._stack.pop()
            t0 = time.perf_counter()
            for _ in range(n):
                leaf()
            outer = min(outer, (traced - (time.perf_counter() - t0)) / n)
            inner = min(inner, rec[2] / n)
        return max(inner, 0.0), max(outer, 0.0)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        rec = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        inner, outer = self.inner_s, self.outer_s
        before, after = self._hooks(name)

        if inspect.isgeneratorfunction(fn):
            counts, items = self.counts, f"{layer}.{name}.items"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec[0] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        stack.append(0.0)
                        t0 = clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            dt = clock() - t0
                            rec[1] += dt
                            rec[2] += dt - stack.pop() - inner
                            if stack:
                                stack[-1] += dt + outer
                        counts[items] += 1
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop() - inner
                if stack:
                    stack[-1] += dt + outer
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str):
        """Outcome counters read from arguments or results at a boundary."""
        counts = self.counts

        if name == "LiftingProblem.has_lift":
            def after(found):
                counts["engine.lifts_found"] += bool(found)
            return None, after
        if name == "igc_factor":
            def after(stages):
                counts["engine.igc_factor.cells_attached"] += sum(
                    st.attached for st in stages)
                counts["engine.igc_factor.residual"] += len(stages[-1].residual)
            return None, after
        if name == "barycentric_grid":
            def after(points):
                counts["geometry.barycentric_grid.points"] += len(points)
            return None, after
        if name == "smoothness_probe":
            def before(args, kwargs):
                if "map_eval" in kwargs:
                    args, kwargs = (kwargs.pop("map_eval"),) + args, kwargs
                map_eval = args[0]

                def counted(z):
                    counts["probe.map_evals"] += 1
                    return map_eval(z)
                return (counted,) + args[1:], kwargs
            return before, None
        return None, None

    def clear_stack(self) -> None:
        """Drop spans left open by a job that was interrupted."""
        self._stack.clear()

    # -- metrics ----------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), rec in self.spans.items():
            out[layer] += rec[2]
        return out

    def metrics(self, rounds: int, overhead_ratio: float) -> dict[str, float]:
        """Every metric of ``METRICS``, per round of the workload's job mix."""
        def span(layer, name, field):
            return self.spans.get((layer, name), [0, 0.0, 0.0])[field]

        def calls(layer, name):
            return span(layer, name, 0)

        def self_s(layer, names):
            return sum(span(layer, n, 2) for n in names)

        layers = self.layer_self_s()
        face_calls = calls("simplicial", "FiniteSimplicialSet.face")
        maps = self.counts["simplicial.enumerate_maps.items"]
        has_lift = calls("engine", "LiftingProblem.has_lift")
        evals = calls("homotopy", "EvaluableHomotopy.__call__")
        eval_s = span("homotopy", "EvaluableHomotopy.__call__", 1)
        totals = {
            "words.prepend_face.calls": calls("words", "prepend_face"),
            "words.concat.calls": calls("words", "concat"),
            "words.self_s": layers["words"],
            "simplicial.face.calls": face_calls,
            "simplicial.face.self_s": self_s("simplicial", ["FiniteSimplicialSet.face"]),
            "simplicial.enumerate_maps.calls": calls("simplicial", "enumerate_maps"),
            "simplicial.enumerate_maps.maps": maps,
            "simplicial.enumerate_maps.self_s": self_s("simplicial", ["enumerate_maps"]),
            "simplicial.horn_fillers.calls": calls("simplicial", "horn_fillers"),
            "simplicial.horn_fillers.self_s": self_s("simplicial", ["horn_fillers"]),
            "simplicial.self_s": layers["simplicial"],
            "simplicial.add_simplex.calls": calls("simplicial",
                                                  "FiniteSimplicialSet.add_simplex"),
            "simplicial.pushout.calls": calls("simplicial", "pushout"),
            "simplicial.pushout.self_s": self_s("simplicial", ["pushout"]),
            "engine.squares": self.counts["engine.iter_lifting_problems.items"],
            "engine.rlp_check.self_s": self_s("engine", ["rlp_check"]),
            "engine.igc_factor.cells_attached":
                self.counts["engine.igc_factor.cells_attached"],
            "engine.igc_factor.residual": self.counts["engine.igc_factor.residual"],
            "engine.igc_factor.self_s": self_s("engine", ["igc_factor"]),
            "engine.self_s": layers["engine"],
            "geometry.Bary.calls": calls("geometry", "Bary.__post_init__"),
            "geometry.Bary.self_s": self_s("geometry", ["Bary.__post_init__"]),
            "geometry.charts.calls": sum(calls("geometry", n) for n in _CHARTS),
            "geometry.barycentric_grid.points":
                self.counts["geometry.barycentric_grid.points"],
            "geometry.self_s": layers["geometry"],
            "realization.normalize.calls": calls("realization", "normalize"),
            "realization.canonical_injection.calls": calls("realization",
                                                           "canonical_injection"),
            "realization.self_s": layers["realization"],
            "probe.smoothness_probe.calls": calls("probe", "smoothness_probe"),
            "probe.map_evals": self.counts["probe.map_evals"],
            "probe.self_s": layers["probe"],
            "steps.SmoothStep.calls": calls("steps", "SmoothStep.__call__"),
            "steps.self_s": layers["steps"],
            "homotopy.evals": evals,
            "homotopy.build.calls": sum(calls("homotopy", n) for n in _BUILDERS),
            "homotopy.build.self_s": self_s("homotopy", _BUILDERS),
            "homotopy.self_s": layers["homotopy"],
            "cli.run.calls": calls("cli", "run"),
            "cli.self_s": layers["cli"],
        }
        out = {name: value / rounds for name, value in totals.items()}
        # ratios are per call, not per round
        out["simplicial.face_calls_per_map"] = face_calls / maps if maps else 0.0
        out["engine.lift_found_frac"] = (self.counts["engine.lifts_found"] / has_lift
                                         if has_lift else 0.0)
        out["homotopy.evals_per_s"] = evals / eval_s if eval_s else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return {m.name: out[m.name] for m in METRICS}

    def unmeasured(self, values: dict[str, float]) -> list[tuple[str, str]]:
        """Ratios this workload gives no base for, with the reason."""
        reasons = {
            "simplicial.face_calls_per_map": "no map was enumerated",
            "engine.lift_found_frac": "no lifting square was checked",
            "homotopy.evals_per_s": "no homotopy was evaluated",
        }
        return [(name, why) for name, why in reasons.items() if values[name] == 0.0]
