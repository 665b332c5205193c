"""Time to verdict of smoothsimplex on four verification workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kan --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each job starts only after the previous
verdict has returned, as a researcher runs the CLI.  CLI jobs go through
``smoothsimplex.cli.run(argv)`` in process, so interpreter start-up is paid
once, in ``setup_s``.  The seed fixes the job mix; the round of jobs repeats
until ``--seconds`` have passed and always ends whole.  Every verdict is
checked against an expected value that does not come from the package.

The machine this runs on is shared and its speed drifts by tens of percent
over minutes.  So before every job the benchmark times a fixed reference
kernel of pure Python that never touches the package, and each round's
times are scaled by ``REF_NOMINAL_S`` over that round's median kernel time:
the timing metrics read as seconds on a machine where the kernel takes
``REF_NOMINAL_S``.  The readable report prints the raw times and the speed
factor next to them.  Objects built in set-up are frozen out of the garbage
collector, and garbage is collected before every job (outside its time), so
that each job starts from the same collector state, as it would in a fresh
CLI process, instead of paying for collections its predecessors caused.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracing.py``), which first runs untraced for a third of the time to measure
the tracing overhead.  Lines before it give the run record and a readable
report.  The exit status is 2, with no result, when the package cannot be
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "smoothsimplex"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 7
#: a job running longer than this fails, and the run goes on
JOB_LIMIT_S = 10
#: no job starts later than this many seconds past ``--seconds``
HARD_STOP_EXTRA_S = 60
#: the reference kernel's time that defines the unit of the timing metrics
REF_NOMINAL_S = 1e-3

END_TO_END = (("setup_s", "s"), ("verdict_p50_s", "s"), ("verdict_p90_s", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB"))


class JobTimeout(BaseException):
    """Raised by SIGALRM in a job over ``JOB_LIMIT_S``; a BaseException so
    that no ``except Exception`` in the package can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure Python (small tuples and
    dicts, float and Fraction arithmetic) that never touches the package."""
    t0 = time.perf_counter()
    table: dict[tuple, int] = {}
    for i in range(1200):
        word = (i % 7, i % 5, i % 3)
        table[word] = table.get(word, 0) + len(word[1:])
    x = 0.0
    for i in range(1, 600):
        x += math.exp(-1.0 / i) / (i + x)
    q = Fraction(0)
    for i in range(1, 80):
        q += Fraction(i, i + 1)
    return time.perf_counter() - t0


def speed_factor(kernel_times: list[float]) -> float:
    """How much slower than nominal the machine ran: above 1 is slower."""
    return statistics.median(kernel_times) / REF_NOMINAL_S


# -- set-up ---------------------------------------------------------------------


def import_package() -> SimpleNamespace:
    """A fresh import of the package from ``src/``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("simplicial", "engine", "geometry", "homotopy", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(specs: list) -> tuple[list[float], list[float], list]:
    """Import and build the inputs ``SETUP_REPS`` times; keep the last jobs.

    Returns the raw set-up times, the same scaled to nominal machine speed
    (by kernel runs just before each set-up) and the jobs."""
    raw, scaled, jobs = [], [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        speed = speed_factor([reference_kernel() for _ in range(5)])
        t0 = time.perf_counter()
        jobs = workloads.bind(specs, import_package())
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] / speed)
    gc.collect()
    gc.freeze()
    return raw, scaled, jobs


# -- the closed loop --------------------------------------------------------------


class Phase:
    """Latencies and failures of whole rounds run back to back.

    ``latencies``, ``round_rates`` and ``job_time`` are scaled to nominal
    machine speed round by round; the ``raw_`` ones are as measured.  Job
    time is the wall time of the rounds without the kernel runs, and a
    round's rate is its jobs over its job time.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.by_group: dict[str, list[float]] = {}
        self.failures: list[tuple[str, str]] = []
        self.speeds: list[float] = []
        self.round_rates: list[float] = []      # jobs per second, scaled
        self.raw_round_rates: list[float] = []
        self.rounds = 0
        self.job_time = self.raw_job_time = 0.0
        self.stopped = False

    def run(self, jobs: list, budget_s: float, hard_stop: float,
            tracer: tracing.Tracer | None = None) -> None:
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < budget_s:
            t_round = time.perf_counter()
            kernel, lat, between = [], [], 0.0
            for job in jobs:
                if time.perf_counter() > hard_stop:
                    self.stopped = True
                    break
                t0 = time.perf_counter()
                gc.collect()
                kernel.append(reference_kernel())
                between += time.perf_counter() - t0
                lat.append(self._run_job(job, tracer))
            if not lat:
                break
            speed = speed_factor(kernel)
            wall = time.perf_counter() - t_round - between
            self.speeds.append(speed)
            self.raw_latencies += lat
            self.latencies += [x / speed for x in lat]
            for job, x in zip(jobs, lat):
                self.by_group.setdefault(job.spec.group, []).append(x / speed)
            self.raw_job_time += wall
            self.job_time += wall / speed
            self.round_rates.append(len(lat) * speed / wall)
            self.raw_round_rates.append(len(lat) / wall)
            if self.stopped:
                break
            self.rounds += 1

    def _run_job(self, job, tracer) -> float:
        signal.alarm(JOB_LIMIT_S)
        t0 = time.perf_counter()
        try:
            out = job.call()
            dt = time.perf_counter() - t0
        except JobTimeout:
            dt, out = time.perf_counter() - t0, JobTimeout
        except Exception as exc:  # any error is the job's verdict: failed
            dt, out = time.perf_counter() - t0, exc
        finally:
            signal.alarm(0)
        if out is JobTimeout:
            error = f"over the {JOB_LIMIT_S} s job limit"
        elif isinstance(out, Exception):
            error = f"raised {type(out).__name__}: {out}"
        else:
            try:
                error = job.check(out)
            except Exception as exc:
                error = f"result could not be checked: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append((job.spec.label, error))
            if tracer is not None:
                tracer.clear_stack()
        return dt

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self, setup_times: list[float], scaled: bool = True
                   ) -> dict[str, float]:
        lat = self.latencies if scaled else self.raw_latencies
        return {
            "setup_s": statistics.median(setup_times),
            "verdict_p50_s": statistics.median(lat),
            "verdict_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
            "jobs_per_s": statistics.median(self.round_rates if scaled
                                            else self.raw_round_rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


# -- reporting --------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args, specs: list) -> dict:
    kinds: dict[str, int] = {}
    for spec in specs:
        kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "jobs_per_round": len(specs), "jobs_per_round_by_kind": kinds,
            "job_limit_s": JOB_LIMIT_S, "setup_reps": SETUP_REPS}


def print_end_to_end(phase: Phase, setup_raw: list[float], setup_scaled: list[float],
                     indent: str = "  ") -> dict[str, float]:
    """Print every end-to-end metric, scaled and raw; return the scaled ones."""
    values = phase.end_to_end(setup_scaled)
    raw = phase.end_to_end(setup_raw, scaled=False)
    beyond = sum(1 for x in phase.latencies if x > values["verdict_p90_s"])
    notes = {"setup_s": f"median of {SETUP_REPS} set-ups",
             "verdict_p50_s": f"{phase.attempted} jobs",
             "verdict_p90_s": f"{beyond} jobs beyond it"
                              + ("" if beyond >= 10 else " (fewer than 10)"),
             "jobs_per_s": f"median over {len(phase.round_rates)} rounds, "
                           f"{phase.raw_job_time:.2f} s of jobs",
             "peak_rss_mb": "ru_maxrss of this process"}
    print(f"{indent}{'metric':<16} {'value':>12} {'unit':<5} {'raw':>12}")
    for name, unit in END_TO_END:
        print(f"{indent}{name:<16} {values[name]:>12.6g} {unit:<5} {raw[name]:>12.6g}  "
              f"{notes[name]}")
    print(f"{indent}{'failed_frac':<16} {len(phase.failures) / phase.attempted:>12.6g} "
          f"{'ratio':<5} {'':>12}  {len(phase.failures)} of {phase.attempted} jobs")
    print(f"{indent}speed factor (kernel time / {REF_NOMINAL_S * 1e3:g} ms) per round: "
          f"min {min(phase.speeds):.3f}, median {statistics.median(phase.speeds):.3f}, "
          f"max {max(phase.speeds):.3f}")
    print(f"{indent}median time to verdict by job group (scaled):")
    for group, times in sorted(phase.by_group.items(),
                               key=lambda kv: statistics.median(kv[1])):
        print(f"{indent}  {group:<24} {statistics.median(times):>10.4g} s  "
              f"x{len(times)}")
    return values


def print_failures(failures: list[tuple[str, str]], stopped: bool) -> None:
    if stopped:
        print(f"FAILED: hard stop {HARD_STOP_EXTRA_S} s past --seconds; the last round is cut")
    for label, error in failures[:10]:
        print(f"FAILED {label}: {error}")
    if len(failures) > 10:
        print(f"... and {len(failures) - 10} more failures")


def print_layers(workload: str, tracer: tracing.Tracer, values: dict[str, float]) -> None:
    print(f"per-layer metrics, per round of the job mix ({workload}); the cost of "
          f"tracing a call ({tracer.inner_s * 1e9:.0f} ns in its span, "
          f"{tracer.outer_s * 1e9:.0f} ns in its caller's) is left out of self times:")
    for m in tracing.METRICS:
        print(f"  {m.name:<40} {values[m.name]:>14.6g} {m.unit:<5} "
              f"should move {m.moves} on {m.workloads}")
    for name, why in tracer.unmeasured(values):
        print(f"  note: {name} reads 0 because {why} on this workload")
    shares = tracer.layer_self_s()
    total = sum(shares.values()) or 1.0
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    print("  self time by layer: " + ", ".join(
        f"{layer} {100 * s / total:.1f}%" for layer, s in ranked))
    top, want = ranked[0][0], tracing.EXPECTED_TOP[workload]
    verdict = ("as the workload's why states" if top in want else
               "DIFFERS from the workload's why, which names " + "/".join(want))
    print(f"  largest self time: {top}, {verdict}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


# -- main ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    specs = workloads.plan(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    try:
        setup_raw, setup_scaled, jobs = set_up(specs)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    record = run_record(args, specs)
    hard_stop = time.perf_counter() + args.seconds + HARD_STOP_EXTRA_S

    if not args.trace:
        phase = Phase()
        phase.run(jobs, args.seconds, hard_stop)
        record.update(rounds=phase.rounds, attempted=phase.attempted,
                      failed=len(phase.failures))
        print("run record: " + json.dumps(record, sort_keys=True))
        print(f"end-to-end metrics ({args.workload}, untraced):")
        values = print_end_to_end(phase, setup_raw, setup_scaled)
        print_failures(phase.failures, phase.stopped)
        print(result_line(not (phase.failures or phase.stopped), phase.attempted, len(phase.failures),
                          {name: (values[name], unit) for name, unit in END_TO_END}))
        return 0

    start = time.perf_counter()
    plain = Phase()
    plain.run(jobs, args.seconds / 3, hard_stop)
    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    traced = Phase()
    try:
        traced.run(jobs, args.seconds - (time.perf_counter() - start), hard_stop, tracer)
    finally:
        tracer.uninstall()
    overhead = (traced.job_time / traced.rounds) / (plain.job_time / plain.rounds)
    values = tracer.metrics(traced.rounds, overhead)
    failures = plain.failures + traced.failures
    attempted = plain.attempted + traced.attempted
    record.update(rounds_untraced=plain.rounds, rounds_traced=traced.rounds,
                  attempted=attempted, failed=len(failures))
    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"end-to-end metrics ({args.workload}, untraced part of this run):")
    print_end_to_end(plain, setup_raw, setup_scaled)
    print_layers(args.workload, tracer, values)
    stopped = plain.stopped or traced.stopped
    print_failures(failures, stopped)
    print(result_line(not (failures or stopped), attempted, len(failures),
                      {m.name: (values[m.name], m.unit) for m in tracing.METRICS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
