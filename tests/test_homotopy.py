"""Contract tests for the deformation retractions.

Expected values are grid evaluations of the stated contracts: identity at
time zero, pointwise fixing of the target subspace, landing in the target
at time one, and idempotence of the induced retraction.  The grids are the
independent oracle; no value below was produced by the code under test.
"""

import hashlib
import math
import random
from itertools import product

import pytest

from smoothsimplex import homotopy
from smoothsimplex.cli import HORN_TIMES
from smoothsimplex.geometry import Bary, barycentric_grid, float_grid
from smoothsimplex.homotopy import (
    COLLAR_STAGES,
    CUT,
    DISK,
    FAR_STAGES,
    EvaluableHomotopy,
    _cone_step,
    _full_horn_stages,
    _run_stages,
    build_boundary_homotopy_T,
    build_full_horn_deformation,
    build_halfopen_deformation,
    collar_core,
)
from smoothsimplex.steps import phase_times

TOL_ID = 1e-12
TOL = 1e-9

S_SAMPLES = (0.0, 0.2, 0.45, 0.7, 0.9, 1.0)


def grid(p, steps):
    return [g.as_floats() for g in barycentric_grid(p, steps)]


def horn_points(n, k, steps):
    """Grid points of Λ^n_k: some coordinate other than k vanishes."""
    return [z for z in grid(n, steps)
            if any(z[i] == 0.0 for i in range(n + 1) if i != k)]


def halfopen_domain(n, k, steps):
    return [z for z in grid(n, steps) if z[k] > 0.0]


def in_horn(z, k, tol=TOL):
    return min(c for i, c in enumerate(z) if i != k) <= tol


def max_dev(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


# -- half-open deformation ----------------------------------------------------

def test_halfopen_base_case_formula():
    # R1((1-t)(0) + t(1), s) = (1-(1-s)t)(0) + (1-s)t(1), vertex at s = 1
    H = build_halfopen_deformation(1, 0)
    for t in (0.0, 0.3, 0.99):
        z = (1.0 - t, t)
        for s in S_SAMPLES:
            out = H(z, s).coords
            want = (1.0 - (1.0 - s) * t, (1.0 - s) * t)
            assert max_dev(out, want) <= TOL_ID
        assert H(z, 1.0).coords == (1.0, 0.0)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                                 (3, 0), (3, 2)])
def test_halfopen_contracts(n, k):
    steps = {1: 40, 2: 10, 3: 8}[n]
    H = build_halfopen_deformation(n, k)
    pts = [z for z in grid(n, steps) if z[k] > 0.0]
    assert len(pts) >= 20
    for z in pts:
        assert max_dev(H(z, 0.0).coords, z) <= TOL_ID
        out = H(z, 1.0).coords
        assert in_horn(out, k), (z, out)
        assert out[k] > 0.0
    # half-open horn points stay fixed at all times
    fixed = [z for z in horn_points(n, k, steps) if z[k] > 0.0]
    for z in fixed:
        for s in S_SAMPLES:
            assert max_dev(H(z, s).coords, z) <= TOL, (z, s)


def test_halfopen_2_0_fixed_edges_sampled():
    # the two open edges of the horn, 20 points, 5 times
    H = build_halfopen_deformation(2, 0)
    zs = []
    for j in range(1, 20):
        t = j / 20
        zs.append((1.0 - t, t, 0.0))
        zs.append((1.0 - t, 0.0, t))
    for z in zs:
        for s in (0.1, 0.3, 0.5, 0.8, 1.0):
            assert max_dev(H(z, s).coords, z) <= TOL


def test_halfopen_2_0_retracts_200_grid_points():
    H = build_halfopen_deformation(2, 0)
    pts = [z for z in grid(2, 25) if z[0] > 0.0]
    assert len(pts) >= 200
    for z in pts:
        out = H(z, 1.0).coords
        assert min(out[1], out[2]) <= TOL


# -- full-horn deformation ----------------------------------------------------

def test_full_horn_dim1_lands_on_vertex():
    for k in (0, 1):
        H = build_full_horn_deformation(1, k)
        for z in grid(1, 10):
            out = H(z, 1.0).coords
            assert abs(out[k] - 1.0) <= TOL


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1),
                                 (2, 0), (2, 1), (2, 2),
                                 (3, 0), (3, 1), (3, 2), (3, 3)])
def test_full_horn_contracts(n, k):
    steps = {1: 200, 2: 20, 3: 10}[n]
    H = build_full_horn_deformation(n, k)
    pts = grid(n, steps)
    assert len(pts) >= 200
    for z in pts:
        assert max_dev(H(z, 0.0).coords, z) <= TOL_ID
        out = H(z, 1.0).coords
        assert in_horn(out, k), (z, out)
    for z in horn_points(n, k, min(steps, 12)):
        for s in S_SAMPLES:
            assert max_dev(H(z, s).coords, z) <= TOL, (z, s)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 0), (3, 3)])
def test_full_horn_retraction_idempotent(n, k):
    H = build_full_horn_deformation(n, k)
    for z in grid(n, 20 if n == 2 else 8):
        once = H(z, 1.0).coords
        twice = H(once, 1.0).coords
        assert max_dev(once, twice) <= TOL


def test_full_horn_conjugation_identity():
    # H_k = swap ∘ H_0 ∘ (swap x id), exactly as floats
    for n in (2, 3):
        for k in range(1, n + 1):
            Hk = build_full_horn_deformation(n, k)
            H0 = build_full_horn_deformation(n, 0)
            for z in grid(n, 6):
                for s in (0.3, 0.7, 1.0):
                    sz = list(z)
                    sz[0], sz[k] = sz[k], sz[0]
                    out0 = list(H0(tuple(sz), s).coords)
                    out0[0], out0[k] = out0[k], out0[0]
                    assert Hk(z, s).coords == tuple(out0)


def test_full_horn_softened_phase_fixes_far_face_boundary_shell():
    # points close to the boundary of the face opposite the horn vertex are
    # untouched during the softened first phase; later stages retract them
    for n in (2, 3):
        H = build_full_horn_deformation(n, 0)
        first_phase_end = 1.0 / len(H.schedule)
        shell = []
        for z in grid(n, 100 if n == 2 else 25):
            x = [c / (1.0 - z[0]) for c in z[1:]] if z[0] < 1.0 else [1.0]
            if z[0] < 0.02 and min(x) < 0.02:
                shell.append(z)
        for a in (0.004, 0.012, 0.019):
            rest = 1.0 - 2 * a
            if n == 2:
                shell.append((a, rest, a))
                shell.append((a, a, rest))
            else:
                shell.append((a, rest - a, a, a))
                shell.append((a, a, rest / 2, rest / 2))
        assert len(shell) >= 10
        for z in shell:
            for s in (0.3 * first_phase_end, first_phase_end):
                assert max_dev(H(z, s).coords, z) <= TOL, (z, s)
            assert in_horn(H(z, 1.0).coords, 0)


def test_full_horn_flat_at_stage_boundaries():
    # the splice reparametrization is flat, so values at a stage boundary
    # match values just before and after it
    H = build_full_horn_deformation(2, 1)
    m = len(H.schedule)
    for z in grid(2, 7):
        for j in range(1, m):
            sb = j / m
            ref = H(z, sb).coords
            for ds in (-0.01, 0.01):
                assert max_dev(H(z, sb + ds).coords, ref) <= TOL


def _stages_by_phase_times(stages, z, s):
    """Reference composite: all local times from ``phase_times`` up front,
    then the stages up to the first local time <= 0."""
    if s <= 0.0:
        return z
    for step, local in zip(stages, phase_times(s, len(stages))):
        if local <= 0.0:
            break
        z = step(z, local)
    return z


def _recorder(i, seen):
    def step(z, local):
        seen.append((i, local))
        return z
    return step


#: every stage table: the collar retractions and the full-horn composites
STAGE_TABLES = {
    **{f"collar-{p}": (p, collar_core(p).args[0]) for p in (1, 2, 3)},
    **{f"full-horn-{n}": (n, [step for _, step in _full_horn_stages(n)])
       for n in (2, 3)},
}


@pytest.mark.parametrize("table", sorted(STAGE_TABLES))
def test_stage_runner_matches_phase_times(table):
    n, stages = STAGE_TABLES[table]
    m = len(stages)
    times = {0.0, 1.0}
    for k in range(m + 1):
        for b in (k / m, k / m - 0.1 / m, k / m + 0.1 / m):
            times.update((b, math.nextafter(b, -1.0), math.nextafter(b, 2.0)))
    times = sorted(t for t in times if 0.0 <= t <= 1.0)
    for s in times:
        for z in grid(n, 6):
            assert _run_stages(stages, z, s) == _stages_by_phase_times(stages, z, s)
        # the same local times reach the same stages
        got, ref = [], []
        _run_stages([_recorder(i, got) for i in range(m)], (1.0,), s)
        _stages_by_phase_times([_recorder(i, ref) for i in range(m)], (1.0,), s)
        assert got == ref, s


@pytest.mark.parametrize("out", [
    (float("nan"), 1.0), (float("inf"), 0.0), (float("inf"), float("-inf")),
    (1.0 + 1e-9, -1e-9), (0.5, 0.6)], ids=repr)
def test_homotopy_output_is_validated(out):
    H = EvaluableHomotopy("Δ^1", 1, (("stub", (0.0, 1.0)),),
                          lambda z, s: out)
    with pytest.raises(ValueError):
        H((0.5, 0.5), 0.5)


# -- paths ----------------------------------------------------------------------


#: every kind and n <= 3, with every k (two collar widths for boundary-T)
PATH_HOMOTOPIES = {
    **{f"full-{n}-{k}": (build_full_horn_deformation, n, k)
       for n in (1, 2, 3) for k in range(n + 1)},
    **{f"halfopen-{n}-{k}": (build_halfopen_deformation, n, k)
       for n in (1, 2, 3) for k in range(n + 1)},
    **{f"boundary-t-{n}-{eps}": (build_boundary_homotopy_T, n, eps)
       for n in (1, 2, 3) for eps in (0.05, 0.2)},
}


@pytest.mark.parametrize("name", sorted(PATH_HOMOTOPIES))
def test_path_is_the_pointwise_evaluation(name):
    build, n, arg = PATH_HOMOTOPIES[name]
    H = build(n, arg)
    m = len(H.schedule)
    times = {0.0, 1.0}
    for j in range(m + 1):
        times.update((j / m, (j - 0.1) / m, (j + 0.1) / m, (j + 0.9) / m))
    times = sorted(t for t in times if 0.0 <= t <= 1.0)
    rng = random.Random(12)
    pts = grid(n, 6)
    for _ in range(20):
        raw = [rng.random() for _ in range(n + 1)]
        pts.append(tuple(r / sum(raw) for r in raw))
    if name.startswith("halfopen"):
        pts = [z for z in pts if z[arg] > 0.0]
    for z in pts:
        got, want = H._path(z, times), [H(z, s).coords for s in times]
        # repr tells -0.0 from 0.0 and round-trips every other bit
        assert repr(got) == repr(want), z
        assert H._path(z, [times[-2]]) == want[-2:-1]
    # a repeated time gives the same point twice
    z, ts = pts[0], [0.0, 0.4, 0.4, 1.0]
    assert H._path(z, ts) == [H(z, s).coords for s in ts]


@pytest.mark.parametrize("out", [(float("nan"), 1.0), (0.5, 0.6)], ids=repr)
def test_path_output_is_validated(out):
    # _path trusts its point and times, never H's outputs
    H = EvaluableHomotopy("Δ^1", 1, (("stub", (0.0, 1.0)),),
                          lambda z, s: out if s > 0.5 else z)
    assert H._path((0.5, 0.5), [0.5]) == [(0.5, 0.5)]
    with pytest.raises(ValueError):
        H._path((0.5, 0.5), [0.5, 1.0])


# -- bit-identity of the float evaluation ----------------------------------------


def _digest_points(n, rng):
    """Grid points, seeded interior points, points with exact zeros and
    points near a face, built from integer ratios so that every Python
    version gets the same floats."""
    pts = [tuple(c / 5 for c in comp)
           for comp in product(range(6), repeat=n + 1) if sum(comp) == 5]
    for kind in ("interior", "zeros", "near-face"):
        for _ in range(10):
            raw = [rng.randrange(1, 10**6) for _ in range(n + 1)]
            if kind == "zeros":
                for i in rng.sample(range(n + 1), rng.randrange(1, n + 1)):
                    raw[i] = 0
            elif kind == "near-face":
                raw[rng.randrange(n + 1)] = rng.randrange(1, 30000)
            tot = sum(raw)
            pts.append(tuple(r / tot for r in raw))
    return pts


def _digest_times(m, rng):
    """0, 1, every stage boundary and splice breakpoint of an ``m``-stage
    schedule with its neighbours one ulp away, and a few seeded times."""
    times = {0.0, 1.0}
    for k in range(m):
        for f in (0.0, 0.1, 0.9):
            b = (k + f) / m
            times.update((b, math.nextafter(b, -1.0), math.nextafter(b, 2.0)))
    times.update(rng.random() for _ in range(6))
    return sorted(t for t in times if 0.0 <= t <= 1.0)


def _evaluation_digest():
    rng = random.Random(8)
    h = hashlib.sha256()
    count = 0
    for n in (1, 2, 3):
        pts = _digest_points(n, rng)
        builds = [(f"full-{k}", build_full_horn_deformation(n, k), k)
                  for k in range(n + 1)]
        builds += [(f"halfopen-{k}", build_halfopen_deformation(n, k), k)
                   for k in range(n + 1)]
        builds += [(f"boundary-t-{eps}", build_boundary_homotopy_T(n, eps), None)
                   for eps in (0.05, 0.2)]
        for name, H, k in builds:
            times = _digest_times(len(H.schedule), rng)
            for z in pts:
                if name.startswith("halfopen") and z[k] <= 0.0:
                    continue
                for s in times:
                    h.update(f"{name} {z} {s} {H(z, s).coords}\n".encode())
                    count += 1
    return count, h.hexdigest()


#: evaluations and SHA-256 of ``_evaluation_digest``
EVALUATION_COUNT = 38445
EVALUATION_DIGEST = "8b910fa834ce4714f2e5d54dc1ef35287bd33ea5eaac65c72ee16c7453a7bb7e"


def test_evaluations_are_bit_identical_to_the_recorded_digest():
    # recorded on the stage evaluator before the flat kernel; the floats are
    # written with repr, which round-trips every bit
    assert _evaluation_digest() == (EVALUATION_COUNT, EVALUATION_DIGEST)


def _path_digest():
    """``verify-axiom4``'s paths: every ``float_grid(n, 12)`` point of Δ^n,
    n = 1, 2, 3, for every k, at both of its schedules, through ``_path``."""
    h = hashlib.sha256()
    count = 0
    for n in (1, 2, 3):
        for k in range(n + 1):
            H = build_full_horn_deformation(n, k)
            for z in float_grid(n, 12):
                for ts in ((0.0, 1.0), (0.0, *HORN_TIMES)):
                    got = H._path(z, ts)
                    h.update(f"{n} {k} {z} {ts} {got}\n".encode())
                    count += 1
    return count, h.hexdigest()


#: paths and SHA-256 of ``_path_digest``
PATH_COUNT = 4238
PATH_DIGEST = "6cb448009da8abdcce7a024b1344b80fc3a10ffda2b5c5a423a0a0edaa4f7348"


def test_paths_are_bit_identical_to_the_recorded_digest():
    # recorded on the stage kernels that called _divided, _join0, _renorm and
    # SmoothStep, before they were folded into the stage closures
    assert _path_digest() == (PATH_COUNT, PATH_DIGEST)


# -- schedule and domain metadata ----------------------------------------------

def test_schedule_names():
    H = build_full_horn_deformation(3, 0)
    names = [nm for nm, _ in H.schedule]
    assert names[0] == "softened-horn"
    assert names[-1] == "face-flow"
    assert H.stage_of(0.0) == "softened-horn"
    assert H.stage_of(1.0) == "face-flow"


#: the stage names of each deformation, from the construction in the README
STAGE_NAMES = {
    ("full", 1): ["radial"],
    ("full", 2): ["softened-horn", "far-face-dim-0", "face-flow"],
    ("full", 3): ["softened-horn", "far-face-dim-1", "far-face-dim-0",
                  "face-flow"],
    ("halfopen", 1): ["radial"],
    ("halfopen", 2): ["radial", "collar"],
    ("halfopen", 3): ["radial", "collar"],
    ("boundary-t", 1): ["radial-push", "collar"],
    ("boundary-t", 2): ["radial-push", "collar"],
    ("boundary-t", 3): ["radial-push", "collar"],
}


@pytest.mark.parametrize("kind,n", sorted(STAGE_NAMES))
def test_stage_of_names_each_interval(kind, n):
    H = {"full": lambda: build_full_horn_deformation(n, 0),
         "halfopen": lambda: build_halfopen_deformation(n, 0),
         "boundary-t": lambda: build_boundary_homotopy_T(n, 0.2)}[kind]()
    names = STAGE_NAMES[kind, n]
    assert [nm for nm, _ in H.schedule] == names
    # equal consecutive subintervals tiling [0, 1]
    m = len(names)
    for i, (name, (lo, hi)) in enumerate(H.schedule):
        assert (lo, hi) == (i / m, (i + 1) / m)
        assert H.stage_of(0.5 * (lo + hi)) == name


def test_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        build_full_horn_deformation(4, 0)
    with pytest.raises(ValueError):
        build_halfopen_deformation(0, 0)
    with pytest.raises(ValueError):
        build_full_horn_deformation(2, 3)
    with pytest.raises(ValueError):
        build_halfopen_deformation(4, 0)
    for p in (0, 4):
        with pytest.raises(ValueError):
            build_boundary_homotopy_T(p, 0.1)


def test_halfopen_rejects_points_off_its_domain():
    from smoothsimplex.geometry import OutOfDomain

    H = build_halfopen_deformation(2, 1)
    with pytest.raises(OutOfDomain):
        H((0.5, 0.0, 0.5), 0.5)
    # the full deformation accepts the whole simplex
    build_full_horn_deformation(2, 1)((0.5, 0.0, 0.5), 0.5)


@pytest.mark.parametrize("point", [(0.6, 0.6, 0.6), (0.5, 0.5, 1e-11),
                                   (0.6, 0.5, -0.1), (0.5, 0.5 + 1e-9, -1e-9)])
def test_tuple_points_are_checked_to_lie_in_the_simplex(point):
    # a sum off by more than 1e-12, or a negative coordinate
    H = build_full_horn_deformation(2, 0)
    with pytest.raises(ValueError):
        H(point, 0.5)
    assert H((0.6, 0.2, 0.2), 0.5) == H(Bary.of_floats((0.6, 0.2, 0.2)), 0.5)


# -- collar machinery -----------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3])
def test_collar_retracts_onto_boundary(p):
    collar = collar_core(p)
    steps = {1: 50, 2: 25, 3: 12}[p]
    for z in grid(p, steps):
        if min(z) >= DISK[p]:
            continue
        out = collar(z, 1.0)
        assert min(out) <= TOL, (z, out)
    # boundary points are fixed at all times
    for z in grid(p, 10):
        if min(z) != 0.0:
            continue
        for s in S_SAMPLES:
            assert max_dev(collar(z, s), z) <= TOL


@pytest.mark.parametrize("softened", [False, True], ids=["plain", "softened"])
@pytest.mark.parametrize("p", [1, 2])
def test_cone_step_skips_the_collar_where_the_bump_is_1(p, softened, monkeypatch):
    # in the collar phase the step ends at (1 - g) t from the cone vertex, so
    # where the bump g is 1 (CUT[p][1] <= min x < DISK[p]) it lands exactly
    # on the vertex, whatever the collar would give
    vertex = (1.0,) + (0.0,) * (p + 1)
    built = _cone_step(p, softened)
    calls = []
    monkeypatch.setattr(homotopy, "collar_core",
                        lambda q: lambda x, s: calls.append(x) or x)
    step = _cone_step.__wrapped__(p, softened)   # built around the stub collar
    bump_1, bump_below_1 = [], []
    for z in grid(p + 1, 40):
        if z[0] < 1.0:
            mx = min(c / (1.0 - z[0]) for c in z[1:])
            if CUT[p][1] <= mx < DISK[p]:
                bump_1.append(z)
            elif 0.0 < mx < CUT[p][1]:
                bump_below_1.append(z)
    assert len(bump_1) >= 10 and bump_below_1
    for z in bump_1:
        for s in (0.6, 0.8, 1.0):
            assert step(z, s) == built(z, s) == vertex, (z, s)
    assert calls == []
    # the stub is what the step calls where the bump is below 1
    step(bump_below_1[0], 1.0)
    assert len(calls) == 1


def _acting(step, z):
    """The index sets whose good neighborhood acts on ``z`` in ``step``."""
    acting = []
    step(z, 1.0, acting)
    return acting


@pytest.mark.parametrize("p", [2, 3])
def test_collar_same_class_supports_disjoint(p):
    # within one stage, at most one good neighborhood acts on any point
    stages = collar_core(p).args[0]
    assert len(stages) == len(COLLAR_STAGES[p])
    for step in stages:
        for z in grid(p, 16):
            assert len(_acting(step, z)) <= 1


def test_far_class_supports_disjoint():
    for n in (2, 3):
        far = [step for name, step in _full_horn_stages(n)
               if name.startswith("far-face")]
        assert len(far) == len(FAR_STAGES[n])
        for step in far:
            for z in grid(n, 12):
                assert len(_acting(step, z)) <= 1


# -- boundary homotopy T ---------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, 3])
def test_boundary_T_contracts(p):
    eps = 0.2
    T = build_boundary_homotopy_T(p, eps)
    steps = {1: 100, 2: 20, 3: 10}[p]
    pts = grid(p, steps)
    for z in pts:
        assert max_dev(T(z, 0.0).coords, z) <= TOL_ID
    # barycenter fixed exactly
    b = tuple(1.0 / (p + 1) for _ in range(p + 1))
    for s in S_SAMPLES:
        assert T(b, s).coords == b
    # ε-collar points land on the boundary
    collar_pts = [z for z in pts if min(z) <= eps]
    assert len(collar_pts) >= 100 or p == 1
    for z in collar_pts:
        assert min(T(z, 1.0).coords) <= TOL, z


def test_boundary_T_dim1_fixes_boundary_at_all_times():
    T = build_boundary_homotopy_T(1, 0.3)
    for z in ((1.0, 0.0), (0.0, 1.0)):
        for s in S_SAMPLES:
            assert max_dev(T(z, s).coords, z) <= TOL


def test_boundary_T_rejects_bad_eps():
    with pytest.raises(ValueError):
        build_boundary_homotopy_T(2, 0.5)
    with pytest.raises(ValueError):
        build_boundary_homotopy_T(2, 0.0)
