"""Acceptance criteria, one test per criterion.

Each test pins the stated tolerances and runtime budget and prints a
single pass line once its assertions hold (run with ``pytest -s`` to see
the lines as they happen).  Expected values come from independent
computations inside this module: vertex-sequence map calculus for the
lifting verdicts, direct grid evaluation for the geometric contracts, and
exact rational arithmetic wherever the formulas are rational.  The chart
transitions of criterion 1 and the curve derivatives of criterion 2 are
computed here in ``Fraction``s from the formulas, never by the package
functions they check.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations, islice, product

from smoothsimplex import geometry
from smoothsimplex.cli import named_map
from smoothsimplex.engine import (
    GeneratingSet,
    edge_group_rank,
    igc_factor,
    pi0,
    rlp_check,
)
from smoothsimplex.geometry import (
    AffineSimplexMap,
    Bary,
    BasedMap,
    barycentric_grid,
    beta_map,
    chart_decompose,
    chart_transition,
    concat_product,
    gamma_map,
    good_nbhd_Phi,
    good_nbhd_Phi_inverse,
    phi_chart,
)
from smoothsimplex.homotopy import (
    build_boundary_homotopy_T,
    build_full_horn_deformation,
)
from smoothsimplex.probe import random_curve, smoothness_probe
from smoothsimplex.realization import (
    canonical_injection,
    normalize,
    witness_not_single_generated,
)
from smoothsimplex.simplicial import (
    EMPTY,
    SimplicialMap,
    boundary_complex,
    enumerate_maps,
    horn_complex,
    pushout,
    standard_simplicial_set,
)

TOL = 1e-9
TOL_ID = 1e-12
TOL_DERIV = 1e-6


class budget:
    """Context manager asserting the criterion's runtime budget and printing
    its pass line."""

    def __init__(self, number, limit_s, description):
        self.number = number
        self.limit = limit_s
        self.description = description

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.1f}s)")
            print(f"criterion {self.number}: PASS "
                  f"({elapsed:.2f}s < {self.limit:.0f}s) {self.description}",
                  flush=True)
        else:
            print(f"criterion {self.number}: FAIL {self.description}",
                  flush=True)
        return False


def fgrid(p, steps):
    return [z.as_floats() for z in barycentric_grid(p, steps)]


def face_insert(i, x):
    """``d^i(x)``: the point ``x`` of Δ^{p-1} as a point of Δ^p, with a zero
    coordinate at vertex i."""
    return tuple(x[:i]) + (F(0),) + tuple(x[i:])


def chart(i, x, t):
    """The chart formula ``phi_i(x, t) = (1-t)(i) + t·d^i(x)``."""
    return tuple((1 - t) * (k == i) + t * c
                 for k, c in enumerate(face_insert(i, x)))


def transition_mismatches(p):
    """The cases ``(i, j, y, tau, t)`` of the chart transitions of Δ^p on
    which ``chart_transition`` or ``phi_chart`` disagree with the chart
    formula.

    The left side ``phi_i(phi_j'(y, tau), t)`` comes from the formula, with
    ``j'`` the slot of vertex j in the chart-i domain.  Its chart-j
    decomposition, ``t' = 1 - z_j`` and ``w = z without slot j over t'``,
    gives the expected ``s = 1 - w_i'``; ``w`` must then be
    ``phi_i'(y, s)``.  Both sides of the package must be the left side.
    """
    taus = (F(1, 4), F(1, 2), F(2, 3), F(1))
    ts = (F(1, 5), F(1, 2), F(6, 7))
    bad = []
    for i, j in product(range(p + 1), repeat=2):
        if i == j:
            continue
        ji, ij = (j if j < i else j - 1), (i if i < j else i - 1)
        for y in barycentric_grid(p - 2, 2):
            for tau, t in product(taus, ts):
                lhs = chart(i, chart(ji, y.coords, tau), t)
                t_new = 1 - lhs[j]
                w = tuple(c / t_new for k, c in enumerate(lhs) if k != j)
                s = 1 - w[ij]
                assert w == chart(ij, y.coords, s)
                if (chart_transition(i, j, y, tau, t) != (y, s, t_new)
                        or phi_chart(i, phi_chart(ji, y, tau), t).coords != lhs
                        or phi_chart(j, phi_chart(ij, y, s), t_new).coords != lhs):
                    bad.append((i, j, y, tau, t))
    return bad


def test_criterion_1_axiom1_charts():
    with budget(1, 5.0, "chart covering and exact transitions"):
        for p in (1, 2, 3):
            for z in barycentric_grid(p, 20):
                covered = 0
                for i in range(p + 1):
                    if z[i] > 0:
                        dec = chart_decompose(z, i)
                        assert phi_chart(i, dec.x, dec.t).coords == z.coords
                        covered += 1
                assert covered >= 1
        for p in (2, 3):
            assert transition_mismatches(p) == []


def _mirrored_chart_core(i, nums, den, tn, td):
    """``geometry._chart_core`` with the cone coordinate at slot
    ``len(nums) - i``: consistent with itself, so a gap between two sides
    both built by it reads 0."""
    coords = [tn * n for n in nums]
    coords.insert(len(nums) - i, (td - tn) * den)
    return coords, td * den


def test_transition_oracle_rejects_a_mirrored_chart(monkeypatch):
    monkeypatch.setattr(geometry, "_chart_core", _mirrored_chart_core)
    assert phi_chart(0, Bary.of(F(1, 3), F(2, 3)), F(1, 2)).coords == \
        (F(1, 6), F(1, 3), F(1, 2))
    for p in (2, 3):
        assert transition_mismatches(p)


def curve_derivative(columns, curve, tau0, x2_weight=2):
    """The derivative of ``f ∘ phi_chart ∘ curve`` at tau0, for the affine
    ``f`` with vertex images ``columns``, from the curve's integer fields:
    ``x(tau) = (X0 + X1 tau + X2 tau²)/den`` and ``t(tau) = (T0 + T1 tau)/den``.
    ``x2_weight`` is the factor 2 of ``d/dtau (X2 tau²) = 2 X2 tau``."""
    tau, den = F(tau0), curve.den
    x = [(a + b * tau + c * tau * tau) / den
         for a, b, c in zip(curve.X0, curve.X1, curve.X2)]
    dx = [(b + x2_weight * c * tau) / den for b, c in zip(curve.X1, curve.X2)]
    t, dt = (curve.T0 + curve.T1 * tau) / den, F(curve.T1, den)
    # d/dtau [(1-t)(i) + t·d^i(x)] = -dt·(i) + d^i(dt·x + t·dx)
    dz = [-dt * (k == curve.chart) + c for k, c in enumerate(
        face_insert(curve.chart, [dt * a + t * b for a, b in zip(x, dx)]))]
    return tuple(float(sum(d * col[r] for d, col in zip(dz, columns)))
                 for r in range(len(columns[0])))


def random_columns(p, q, rng):
    """The vertex images of a random affine map Δ^p → Δ^q, in Fractions."""
    cols = []
    for _ in range(p + 1):
        raw = [F(rng.randrange(1, 9)) for _ in range(q + 1)]
        tot = sum(raw)
        cols.append(tuple(r / tot for r in raw))
    return cols


def affine_map(columns):
    return AffineSimplexMap(tuple(Bary(c) for c in columns))


def test_criterion_2_axiom2_probes():
    with budget(2, 30.0, "affine smoothness probes and kink control"):
        rng = random.Random(0)
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                for _ in range(10):
                    cols = random_columns(p, q, rng)
                    report = smoothness_probe(
                        affine_map(cols), p, order=1, tol=TOL_DERIV,
                        seed=rng.randrange(10 ** 6),
                        oracle=lambda curve, tau0: curve_derivative(
                            cols, curve, tau0))
                    assert report.passed
                    assert report.max_oracle_error <= TOL_DERIV

        def kink(z):
            v = abs(float(z[0]) - float(z[1]))
            return (v, 1.0 - v)

        control = smoothness_probe(kink, 1, order=2, tol=TOL_DERIV, seed=11)
        assert not control.passed


def test_derivative_oracle_needs_the_quadratic_term():
    # p = 1 curves have X2 = 0, so the term shows only for p >= 2
    rng = random.Random(2)
    cols = random_columns(2, 3, rng)
    curve = random_curve(2, 1, rng)
    assert any(curve.X2)
    tau0 = curve.radius / 2
    exact = curve_derivative(cols, curve, tau0)
    dropped = curve_derivative(cols, curve, tau0, x2_weight=0)
    assert max(abs(a - b) for a, b in zip(exact, dropped)) > TOL_DERIV
    # so criterion 2's probe rejects a derivative that lost the term
    for oracle, passed in ((curve_derivative, True),
                           (lambda *a: curve_derivative(*a, x2_weight=0), False)):
        report = smoothness_probe(affine_map(cols), 2, order=1, tol=TOL_DERIV,
                                  seed=5, oracle=lambda c, t0: oracle(cols, c, t0))
        assert report.passed is passed


def test_criterion_3_axiom3_injectivity():
    with budget(3, 10.0, "canonical injection has no collisions"):
        for p in (2, 3):
            subs = [boundary_complex(p)] + [horn_complex(p, k)
                                            for k in range(p + 1)]
            for K, incl in subs:
                rng = random.Random(p)
                seen = {}
                cells = K.nondegenerate()
                for _ in range(10000):
                    ref = cells[rng.randrange(len(cells))]
                    raw = [F(rng.randrange(1, 30))
                           for _ in range(ref.dim + 1)]
                    tot = sum(raw)
                    pt = normalize(K, (EMPTY, ref),
                                   Bary(tuple(r / tot for r in raw)))
                    img = canonical_injection(incl, pt).coords
                    key = (pt.simplex.id, pt.coords.coords)
                    if img in seen:
                        assert seen[img] == key, "collision of normal forms"
                    seen[img] = key


def test_criterion_4_axiom4_deformations():
    with budget(4, 60.0, "full horn deformation contracts"):
        for n in (1, 2, 3):
            steps = {1: 200, 2: 20, 3: 10}[n]
            pts = fgrid(n, steps)
            assert len(pts) >= 200
            horn_steps = {1: 200, 2: 14, 3: 8}[n]
            for k in range(n + 1):
                H = build_full_horn_deformation(n, k)
                for z in pts:
                    assert max(abs(a - b) for a, b in
                               zip(H(z, 0.0).coords, z)) <= TOL_ID
                    out = H(z, 1.0).coords
                    assert min(c for i, c in enumerate(out) if i != k) <= TOL
                    again = H(out, 1.0).coords
                    assert max(abs(a - b) for a, b in
                               zip(out, again)) <= TOL
                for z in fgrid(n, horn_steps):
                    if all(z[i] > 0 for i in range(n + 1) if i != k):
                        continue
                    for s in (0.2, 0.45, 0.7, 0.9, 1.0):
                        assert max(abs(a - b) for a, b in
                                   zip(H(z, s).coords, z)) <= TOL


def test_criterion_5_good_neighborhood_round_trip():
    with budget(5, 10.0, "good-neighborhood round trips exact"):
        for p in (1, 2, 3):
            for size in range(1, p + 1):
                for I in combinations(range(p + 1), size):
                    rng = random.Random(size * 17 + p)
                    J = [j for j in range(p + 1) if j not in I]
                    for _ in range(1000):
                        raw = [F(rng.randrange(1, 16))
                               for _ in range(p + 1)]
                        tot = sum(raw)
                        z = Bary(tuple(r / tot for r in raw))
                        u, v = good_nbhd_Phi(I, z)
                        assert good_nbhd_Phi_inverse(
                            I, u, v, p).coords == z.coords
                        z2 = good_nbhd_Phi_inverse(I, u, v, p)
                        u2, v2 = good_nbhd_Phi(I, z2)
                        assert u2.coords == u.coords
                        assert v2.coords == v.coords


def test_criterion_6_concatenation_plumbing():
    with budget(6, 5.0, "beta/gamma identities and concat products"):
        for p in (1, 2, 3):
            beta = beta_map(p)
            dp = AffineSimplexMap.face(p + 1, p)
            dp1 = AffineSimplexMap.face(p + 1, p + 1)
            for z in barycentric_grid(p, 4):
                assert beta(z, F(0)).coords == dp(z).coords
                assert beta(z, F(1)).coords == dp1(z).coords
            gamma = gamma_map(p)
            for z in barycentric_grid(p + 1, 4):
                if z[p + 1] != z[p - 1]:
                    continue
                head = z.coords[:p - 1]
                b1 = head + (F(0), z[p] + 2 * z[p - 1], z[p + 1] - z[p - 1])
                b2 = head + (z[p - 1] - z[p + 1], z[p] + 2 * z[p + 1], F(0))
                assert b1 == b2 == gamma(z).coords
        # three sample pairs of boundary-constant maps on Δ^1
        base = Bary.of(F(1), F(0))
        samples = [
            lambda x: base if min(x.coords) <= F(1, 5) else Bary.of(F(1, 2), F(1, 2)),
            lambda x: base if min(x.coords) <= F(1, 5) else Bary.of(F(0), F(1)),
            lambda x: base,
        ]
        for fa, fb in zip(samples, samples[1:] + samples[:1]):
            f = BasedMap(1, fa, base)
            g = BasedMap(1, fb, base)
            prod = concat_product(f, g)
            out = prod(Bary.barycenter(1))
            assert max(abs(float(a) - float(b))
                       for a, b in zip(out.coords, base.coords)) <= TOL


def _oracle_delta1_point_J20():
    """Vertex-triple calculus for (2,0)-horn maps into Delta[1]: triples
    (w0,w1,w2) with w0<=w1, w0<=w2, fillable iff w1<=w2."""
    unfillable = [w for w in product((0, 1), repeat=3)
                  if w[0] <= w[1] and w[0] <= w[2] and w[1] > w[2]]
    return unfillable


def test_criterion_7_model_engine():
    with budget(7, 60.0, "rlp verdicts, gluing invariants, pi invariance"):
        # fixed verdict 1: the terminal identity has RLP(J) up to dim 3
        report = rlp_check(SimplicialMap.identity(standard_simplicial_set(0)),
                           GeneratingSet("J", 3))
        assert report.has_rlp

        # fixed verdict 2: Delta[1] -> Delta[0] fails J at (2,0); the
        # independent oracle predicts exactly one unfillable (2,0) map
        f = named_map("delta1_to_delta0")
        report = rlp_check(f, GeneratingSet("J", 2))
        fails_20 = [p for p in report.failures if p.generator.name == "J(2,0)"]
        assert len(fails_20) == len(_oracle_delta1_point_J20()) == 1

        # fixed verdict 3: boundary pair -> point fails I at p = 1; the
        # oracle is the absence of any edge joining the two points
        g = named_map("boundary1_to_delta0")
        report = rlp_check(g, GeneratingSet("I", 1))
        fails_1 = [p for p in report.failures if p.generator.name == "I(1)"]
        assert len(fails_1) == 2  # both mixed endpoint assignments
        assert not report.has_rlp

        # gluing stage invariants on 5 fixed inputs
        def collapse(X):
            pt = standard_simplicial_set(0)
            return SimplicialMap(X, pt, {
                r.id: (tuple(range(r.dim - 1, -1, -1)), pt.ref(0))
                for r in X.nondegenerate()})

        pool = [standard_simplicial_set(1), horn_complex(2, 0)[0],
                boundary_complex(2)[0], standard_simplicial_set(2),
                horn_complex(2, 2)[0]]
        for seed in range(5):
            X = pool[seed]
            f = collapse(X)
            gens = GeneratingSet("J" if seed % 2 else "I", 1)
            stages = igc_factor(f, gens, max_stages=2, max_problems=6)
            for st in stages:
                assert st.j.is_injective()
                comp = st.q.compose(st.j)
                for r in X.nondegenerate():
                    assert comp.assignment[r.id] == f.assignment[r.id]

        # pi0 / rank invariance under horn attachment, 5 randomized examples
        for seed in range(5):
            rng = random.Random(100 + seed)
            X = pool[seed]
            before = (pi0(X)[0], edge_group_rank(X)["rank"])
            p = rng.choice([1, 2, 3])
            k = rng.randrange(p + 1)
            H, incl = horn_complex(p, k)
            maps = list(islice(enumerate_maps(H, X), 40))
            if not maps:
                continue
            P, _, _ = pushout(incl, maps[rng.randrange(len(maps))])
            assert (pi0(P)[0], edge_group_rank(P)["rank"]) == before


def test_criterion_8_boundary_deformation():
    with budget(8, 10.0, "collar deformation onto the boundary"):
        eps = 0.2
        for p in (1, 2, 3):
            T = build_boundary_homotopy_T(p, eps)
            steps = {1: 260, 2: 25, 3: 12}[p]
            pts = fgrid(p, steps)
            for z in pts:
                assert max(abs(a - b) for a, b in
                           zip(T(z, 0.0).coords, z)) <= TOL_ID
            b = tuple(1.0 / (p + 1) for _ in range(p + 1))
            for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert T(b, s).coords == b
            collar = [z for z in pts if min(z) <= eps]
            assert len(collar) >= 100
            for z in collar:
                assert min(T(z, 1.0).coords) <= TOL


def test_criterion_9_appendix_witness():
    with budget(9, 1.0, "single-generation witness detector"):
        H, _ = horn_complex(2, 0)
        w = witness_not_single_generated(H)
        assert w is not None
        assert H.labels[w["sigma"].id] == (0, 1)
        assert H.labels[w["tau"].id] == (0, 2)

        B, _ = boundary_complex(2)
        w1 = witness_not_single_generated(B)
        w2 = witness_not_single_generated(B)
        assert w1 is not None
        assert (w1["sigma"], w1["tau"]) == (w2["sigma"], w2["tau"])

        H31, _ = horn_complex(3, 1)
        w3 = witness_not_single_generated(H31)
        assert w3 is not None
        assert w3["sigma"].dim == 2 and w3["tau"].dim == 2

        for p in (1, 2, 3):
            assert witness_not_single_generated(
                standard_simplicial_set(p)) is None
