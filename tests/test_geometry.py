import copy
import math
import pickle
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothsimplex.geometry import (
    AffineSimplexMap,
    Bary,
    BasedMap,
    OutOfDomain,
    _compositions,
    barycentric_grid,
    beta_map,
    chart_decompose,
    chart_transition,
    concat_product,
    float_grid,
    gamma_map,
    good_nbhd_Phi,
    good_nbhd_Phi_inverse,
    in_good_neighborhood,
    phi_I,
    phi_I_inverse,
    phi_chart,
    transition_identity_gap,
)
from smoothsimplex.steps import SmoothStep, SPLICE


# -- Bary ---------------------------------------------------------------------

def test_bary_validation():
    Bary.of(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        Bary.of(F(1, 2), F(1, 3))
    with pytest.raises(ValueError):
        Bary.of(F(3, 2), F(-1, 2))
    Bary.of(0.5, 0.25, 0.25)
    with pytest.raises(ValueError):
        Bary.of(0.5, 0.5, 0.1)


@pytest.mark.parametrize("coords", [(float("nan"), 1.0), (0.5, float("nan"), 0.5),
                                    (float("inf"), 0.0), (float("inf"), -float("inf"))])
def test_bary_rejects_nan_and_inf(coords):
    with pytest.raises(ValueError):
        Bary(coords)


def test_grid_counts():
    # C(steps + p, p) points on the step-1/steps grid
    assert len(barycentric_grid(2, 4)) == 15
    assert len(barycentric_grid(1, 20)) == 21
    assert all(g.exact for g in barycentric_grid(3, 5))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_compositions_are_the_sorted_filtered_product(p):
    # p = 0 is verify-axiom1's barycentric_grid(0, 3)
    for steps in (1, 2, 3, 5, 8, 12):
        ref = sorted(c for c in product(range(steps + 1), repeat=p + 1)
                     if sum(c) == steps)
        got = _compositions(p, steps)
        assert got == ref
        assert len(got) == math.comb(steps + p, p)
        assert all(type(c) is int for comp in got for c in comp)
        assert _compositions(p, steps, as_floats=True) == \
            [tuple(c / steps for c in comp) for comp in ref]


@pytest.mark.parametrize("steps", [0, -1, -3])
@pytest.mark.parametrize("grid", [barycentric_grid, float_grid])
def test_grids_reject_steps_below_1(grid, steps):
    # at the parent float_grid(1, -1) was [] and float_grid(0, -1) [(1.0,)]
    for p in (0, 1, 2):
        with pytest.raises(ValueError, match="grid steps"):
            grid(p, steps)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_float_grid_is_the_exact_grid_in_floats(p):
    for steps in range(1, 31):
        exact = barycentric_grid(p, steps)
        assert float_grid(p, steps) == [z.as_floats() for z in exact]
        if steps <= 6:
            # every composition of steps, in lexicographic order
            ref = [c for c in product(range(steps + 1), repeat=p + 1)
                   if sum(c) == steps]
            assert [z.coords for z in exact] == \
                [tuple(F(c, steps) for c in comp) for comp in ref]


@pytest.mark.parametrize("coords", [
    (float("nan"), 1.0), (0.5, float("nan"), 0.5), (float("inf"), 0.0),
    (float("inf"), float("-inf")), (1.5, -0.5), (1.0 + 1.5e-12, -1.5e-12),
    (0.5, 0.5 + 2e-12), (0.5, 0.4)])
def test_float_constructor_validates_like_bary(coords):
    with pytest.raises(ValueError):
        Bary(coords)
    with pytest.raises(ValueError):
        Bary.of_floats(coords)


def test_float_constructor_builds_the_same_point():
    for coords in [(1.0, 0.0), (0.25, 0.75 + 5e-13, 0.0), (1.0 + 1e-12, -1e-12)]:
        assert Bary.of_floats(coords) == Bary(coords)
        assert Bary.of_floats(coords).coords is coords


# -- affine maps ---------------------------------------------------------------

def test_affine_map_of_exact_columns():
    m = AffineSimplexMap((Bary((F(1, 2), F(1, 2))), Bary((0, 1))))
    assert m(Bary.of(F(1, 2), F(1, 2))).coords == (F(1, 4), F(3, 4))


def test_affine_preserves_convex_combinations():
    rng = random.Random(0)
    for _ in range(20):
        cols = []
        for _ in range(3):
            raw = [F(rng.randrange(1, 9)) for _ in range(4)]
            tot = sum(raw)
            cols.append(Bary(tuple(r / tot for r in raw)))
        f = AffineSimplexMap(tuple(cols))
        x = Bary.of(F(1, 2), F(1, 3), F(1, 6))
        y = Bary.of(F(1, 4), F(1, 4), F(1, 2))
        lam = F(2, 7)
        mixed = Bary(tuple(lam * a + (1 - lam) * b
                           for a, b in zip(x.coords, y.coords)))
        lhs = f(mixed).coords
        rhs = tuple(lam * a + (1 - lam) * b
                    for a, b in zip(f(x).coords, f(y).coords))
        assert lhs == rhs


# -- charts --------------------------------------------------------------------

def test_phi_chart_example():
    out = phi_chart(0, Bary.of(0.5, 0.5), 0.5)
    assert out.coords == (0.5, 0.25, 0.25)


def test_chart_decompose_example():
    dec = chart_decompose(Bary.of(F(1, 2), F(1, 4), F(1, 4)), 0)
    assert dec.t == F(1, 2)
    assert dec.x.coords == (F(1, 2), F(1, 2))


def test_chart_round_trip_exact():
    for z in barycentric_grid(2, 6):
        for i in range(3):
            if z[i] == 0:
                with pytest.raises(OutOfDomain):
                    chart_decompose(z, i)
                continue
            dec = chart_decompose(z, i)
            back = phi_chart(i, dec.x, dec.t)
            assert back.coords == z.coords


def test_vertex_collapse():
    out = phi_chart(1, Bary.of(F(1)), 0)
    assert out.coords == (0, 1)
    dec = chart_decompose(Bary.of(0, 1), 1)
    assert dec.t == 0


def rational_point(p):
    """Strategy for exact interior points of Δ^p."""
    return st.lists(st.integers(1, 40), min_size=p + 1, max_size=p + 1).map(
        lambda raw: Bary(tuple(F(r, sum(raw)) for r in raw)))


@given(st.integers(1, 3).flatmap(
    lambda p: st.tuples(st.just(p), rational_point(p), st.integers(0, p))))
@settings(max_examples=150, deadline=None)
def test_chart_round_trip_property(args):
    p, z, i = args
    dec = chart_decompose(z, i)
    assert phi_chart(i, dec.x, dec.t).coords == z.coords


@given(st.integers(2, 3).flatmap(
    lambda p: st.tuples(st.just(p), rational_point(p),
                        st.lists(st.integers(0, p), min_size=1, max_size=p,
                                 unique=True))))
@settings(max_examples=150, deadline=None)
def test_good_nbhd_round_trip_property(args):
    p, z, I = args
    if len(I) > p:
        return
    u, v = good_nbhd_Phi(I, z)
    assert good_nbhd_Phi_inverse(I, u, v, p).coords == z.coords


def test_chart_covering_grid():
    # every grid point decomposes in at least one chart (p <= 3, step 1/20)
    for p in (1, 2, 3):
        for z in barycentric_grid(p, 20):
            assert any(z[i] > 0 for i in range(p + 1))
            i = max(range(p + 1), key=lambda i: z[i])
            dec = chart_decompose(z, i)
            assert phi_chart(i, dec.x, dec.t).coords == z.coords


def test_chart_decompose_on_floats():
    # the float branch: t = 1 - z_i, and the chart formula
    # (1-t) e_i + t d^i(x), written out here, gives z back
    rng = random.Random(31)
    pts = [z for p in (1, 2, 3) for z in float_grid(p, 6)]
    pts += [_float_point(rng, rng.randint(1, 3)) for _ in range(300)]
    for p in (1, 2, 3):   # one coordinate near the face it is 0 on
        for _ in range(30):
            raw = list(_float_point(rng, p))
            raw[rng.randint(0, p)] *= 1e-9
            pts.append(tuple(r / math.fsum(raw) for r in raw))
    checked = 0
    for coords in pts:
        z = Bary.of_floats(coords)
        for i in range(z.p + 1):
            if coords[i] <= 1e-12:
                continue
            dec = chart_decompose(z, i)
            assert dec.t == 1 - coords[i]
            assert dec.t == 0 or not dec.x.exact   # a vertex takes the barycenter
            back = [dec.t * c for c in dec.x.coords]
            back.insert(i, 1 - dec.t)
            assert max(abs(a - b) for a, b in zip(back, coords)) <= 1e-15, (z, i)
            checked += 1
    assert checked >= 1000


def test_chart_decompose_near_a_vertex_on_floats():
    # z_i is 1 to within rounding: 1 - z_i has cancelled, so x is the rest
    # over its own sum, or the barycenter where the rest sums to 0
    for coords, want_x in [((1 - 3e-9, 1e-9, 2e-9), (1 / 3, 2 / 3)),
                           ((1 - 1e-13, 0.0), (1,))]:
        dec = chart_decompose(Bary.of_floats(coords), 0)
        assert dec.t == 1 - coords[0]
        assert max(abs(a - b) for a, b in zip(dec.x.coords, want_x)) <= 1e-15
        back = phi_chart(0, dec.x, dec.t).coords
        assert max(abs(a - b) for a, b in zip(back, coords)) <= 1e-12


# -- chart transitions -----------------------------------------------------------

def test_transition_formula_values():
    y = Bary.of(F(1))
    _, s, t_new = chart_transition(0, 1, y, F(1, 2), F(1, 2))
    assert s == F(1, 3)
    assert t_new == F(3, 4)


def test_transition_tau_one_relabels():
    y = Bary.of(F(1))
    _, s, t_new = chart_transition(0, 1, y, F(1), F(2, 5))
    assert (s, t_new) == (F(2, 5), F(1))


def test_transition_identity_exact_on_grid():
    # 10^3 rational parameter triples: the compatibility identity is exact
    count = 0
    taus = (F(1, 4), F(1, 2), F(2, 3), F(9, 10), F(1))
    ts = (F(1, 5), F(1, 3), F(1, 2), F(7, 9), F(14, 15))
    for p, ydim in ((2, 0), (3, 1)):
        ys = barycentric_grid(ydim, 4)
        for i in range(p + 1):
            for j in range(p + 1):
                if i == j:
                    continue
                for y in ys:
                    for tau in taus:
                        for t in ts:
                            gap = transition_identity_gap(p, i, j, y, tau, t)
                            assert gap == 0
                            count += 1
    assert count >= 1000


def test_transition_identity_gap_on_floats():
    # float tau, t and y take the float branch; the two sides of the
    # identity agree to rounding
    rng = random.Random(37)
    for p in (2, 3):
        for _ in range(200):
            y = Bary.of_floats(_float_point(rng, p - 2))
            i, j = rng.sample(range(p + 1), 2)
            tau, t = 1.0 - rng.random(), rng.uniform(1e-6, 1.0 - 1e-6)
            gap = transition_identity_gap(p, i, j, y, tau, t)
            assert isinstance(gap, float) and gap <= 1e-15, (p, i, j, y, tau, t)


def test_transition_domain_checks():
    y = Bary.of(F(1))
    with pytest.raises(OutOfDomain):
        chart_transition(0, 1, y, F(0), F(1, 2))
    with pytest.raises(OutOfDomain):
        chart_transition(0, 1, y, F(1, 2), F(1))
    with pytest.raises(ValueError):
        chart_transition(1, 1, y, F(1, 2), F(1, 2))


def test_transition_rejects_charts_and_points_outside_delta_p():
    half = F(1, 2)
    with pytest.raises(ValueError):     # y is a point of Δ^0, not of Δ^5
        transition_identity_gap(7, 0, 1, Bary.of(F(1)), half, half)
    with pytest.raises(ValueError):     # y is a point of Δ^1, not of Δ^0
        transition_identity_gap(2, 0, 3, Bary.of(half, half), half, half)
    for i, j in ((0, 3), (3, 0), (-1, 1), (1, -1)):   # no chart 3 or -1 on Δ^2
        with pytest.raises(ValueError):
            transition_identity_gap(2, i, j, Bary.of(F(1)), half, half)
        with pytest.raises(ValueError):
            chart_transition(i, j, Bary.of(F(1)), half, half)
    with pytest.raises(ValueError):
        chart_transition(0, 7, Bary.of(F(1)), half, half)


@pytest.mark.parametrize("t, tau", [
    (1 - F(1, 10**12), F(1)),
    (1 - F(1, 10**12), F(1, 10**12)),
    (math.nextafter(1.0, 0.0), 1.0),
    (math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0)),
], ids=["fraction-tau-1", "fraction-tau-tiny", "float-tau-1", "float-tau-tiny"])
def test_transition_at_domain_edges(t, tau):
    # t just below 1 with tau at either end of (0, 1]: the denominator
    # 1 - t(1 - tau) is smallest here, yet s and t' stay in (0, 1]
    _, s, t_new = chart_transition(0, 1, Bary.of(F(1)), tau, t)
    for v in (s, t_new):
        assert math.isfinite(v) and 0 < v <= 1


# -- good neighborhoods ------------------------------------------------------------

def test_phi_good_nbhd_example():
    u, v = good_nbhd_Phi((0, 1), Bary.of(F(1, 5), F(3, 10), F(1, 2)))
    assert u.coords == (F(2, 5), F(3, 5))
    assert v.coords == (F(1, 2), F(1, 2))
    back = good_nbhd_Phi_inverse((0, 1), u, v, 2)
    assert back.coords == (F(1, 5), F(3, 10), F(1, 2))


def test_membership_example():
    z = Bary.of(F(1, 5), F(3, 10), F(1, 2))
    assert in_good_neighborhood(z, (0, 1), F(3, 5))
    assert not in_good_neighborhood(z, (0, 1), F(2, 5))


def _proper_subsets(p):
    from itertools import combinations
    for size in range(1, p + 1):
        yield from combinations(range(p + 1), size)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_phi_round_trip_exact_all_I(p):
    rng = random.Random(7 + p)
    for I in _proper_subsets(p):
        J = [j for j in range(p + 1) if j not in I]
        for _ in range(40):
            raw = [F(rng.randrange(1, 12)) for _ in range(p + 1)]
            tot = sum(raw)
            z = Bary(tuple(r / tot for r in raw))
            u, v = good_nbhd_Phi(I, z)
            assert good_nbhd_Phi_inverse(I, u, v, p).coords == z.coords
            # and the other composition, starting from (u, v)
            raw_u = [F(rng.randrange(1, 9)) for _ in I]
            u2 = Bary(tuple(r / sum(raw_u) for r in raw_u))
            raw_v = [F(rng.randrange(1, 9)) for _ in range(len(J) + 1)]
            v2 = Bary(tuple(r / sum(raw_v) for r in raw_v))
            z2 = good_nbhd_Phi_inverse(I, u2, v2, p)
            u3, v3 = good_nbhd_Phi(I, z2)
            assert u3.coords == u2.coords and v3.coords == v2.coords


def _float_point(rng, p):
    raw = [rng.randrange(1, 10**6) for _ in range(p + 1)]
    tot = sum(raw)
    return tuple(r / tot for r in raw)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_phi_kernel_is_good_nbhd_Phi_on_floats(p):
    rng = random.Random(40 + p)
    for I in _proper_subsets(p):
        J = tuple(j for j in range(p + 1) if j not in I)
        for _ in range(50):
            z = _float_point(rng, p)
            u, v = phi_I(z, I, J)
            # the formula: S summed over I from the left
            S = 0.0
            for i in I:
                S += z[i]
            assert u == tuple(z[i] / S for i in I)
            assert v == (S,) + tuple(z[j] for j in J)
            bu, bv = good_nbhd_Phi(I, Bary(z))
            assert (bu.coords, bv.coords) == (u, v)
            x = phi_I_inverse(u, v, I, J)
            assert [x[i] for i in I] == [S * c for c in u]
            assert [x[j] for j in J] == list(z[j] for j in J)
            assert good_nbhd_Phi_inverse(I, bu, bv, p).coords == tuple(x)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_phi_kernel_round_trip_exact(p):
    rng = random.Random(70 + p)
    for I in _proper_subsets(p):
        J = tuple(j for j in range(p + 1) if j not in I)
        for _ in range(40):
            raw = [F(rng.randrange(1, 12)) for _ in range(p + 1)]
            z = tuple(r / sum(raw) for r in raw)
            u, v = phi_I(z, I, J)
            assert tuple(phi_I_inverse(u, v, I, J)) == z
            assert phi_I(phi_I_inverse(u, v, I, J), I, J) == (u, v)
            assert all(isinstance(c, F) for c in u + v)


def test_phi_rejects_outside_U_I():
    with pytest.raises(OutOfDomain):
        good_nbhd_Phi((0, 1), Bary.of(F(0), F(1, 2), F(1, 2)))


# -- smooth step ---------------------------------------------------------------

def test_smooth_step_ends_exact():
    lam = SmoothStep(0.2, 0.7)
    assert lam(0.2) == 0.0
    assert lam(-3.0) == 0.0
    assert lam(0.7) == 1.0
    assert lam(2.0) == 1.0
    assert lam(0.45) == pytest.approx(0.5, abs=1e-12)


def test_smooth_step_monotone():
    lam = SmoothStep(0.0, 1.0)
    vals = [lam(t / 100) for t in range(101)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_smooth_step_flat_derivative_at_ends():
    # finite differences at the breakpoints stay below 1e-12
    lam = SmoothStep(0.0, 1.0)
    for t0 in (0.0, 1.0):
        d = (lam(t0 + 1e-3) - lam(t0 - 1e-3)) / 2e-3
        assert abs(d) < 1e-12 or abs(d) < 1e-6  # exactly flat ends
    d0 = (lam(1e-3) - lam(-1e-3)) / 2e-3
    assert d0 < 1e-12


def test_smooth_step_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        SmoothStep(0.5, 0.5)


def test_splice_windows():
    assert SPLICE(0.0) == 0.0
    assert SPLICE(1.0) == 1.0


# -- beta / gamma / concatenation -----------------------------------------------

def test_beta_example():
    beta = beta_map(1)
    out = beta(Bary.of(0.3, 0.7), 0.5)
    assert out.coords == pytest.approx((0.3, 0.35, 0.35))


def test_beta_endpoints_are_faces():
    beta = beta_map(2)
    x = Bary.of(F(1, 6), F(1, 3), F(1, 2))
    assert beta(x, F(0)).coords == (F(1, 6), F(1, 3), F(0), F(1, 2))
    assert beta(x, F(1)).coords == (F(1, 6), F(1, 3), F(1, 2), F(0))
    d_p = AffineSimplexMap.face(3, 2)
    d_p1 = AffineSimplexMap.face(3, 3)
    assert beta(x, F(0)).coords == d_p(x).coords
    assert beta(x, F(1)).coords == d_p1(x).coords


def test_gamma_examples():
    gamma = gamma_map(1)
    assert gamma(Bary.of(F(1, 3), F(1, 3), F(1, 3))).coords == (0, 1, 0)
    assert gamma(Bary.of(F(1, 5), F(3, 10), F(1, 2))).coords == (0, F(7, 10), F(3, 10))
    assert gamma(Bary.of(F(1, 2), F(3, 10), F(1, 5))).coords == (F(3, 10), F(7, 10), 0)


def test_gamma_branch_agreement_on_seam():
    gamma = gamma_map(2)
    # points with x_{p+1} = x_{p-1}: both formulas coincide
    for z in barycentric_grid(3, 6):
        if z[1] != z[3]:
            continue
        branch1 = z.coords[:1] + (F(0), z[2] + 2 * z[1], z[3] - z[1])
        branch2 = z.coords[:1] + (z[1] - z[3], z[2] + 2 * z[3], F(0))
        assert branch1 == branch2 == gamma(z).coords


def test_concat_product_base_point():
    base = Bary.of(F(1), F(0))

    def const_unless_interior(x: Bary):
        if float(min(x.coords)) > 0.25:
            return Bary.of(F(0), F(1))
        return base

    f = BasedMap(1, const_unless_interior, base)
    g = BasedMap(1, const_unless_interior, base)
    prod = concat_product(f, g)
    out = prod(Bary.barycenter(1))
    assert out.coords == base.coords


@pytest.mark.parametrize("p", (1, 2, 3))
def test_concat_product_off_the_seam(p):
    # (f + g) ∘ gamma ∘ d^p by hand: f where x_p > x_{p-1}, g where
    # x_p < x_{p-1}, each at the point of its half that gamma names
    f = BasedMap(p, lambda x: ("f", x.coords), "base")
    g = BasedMap(p, lambda x: ("g", x.coords), "base")
    prod, sides = concat_product(f, g), set()
    for x in barycentric_grid(p, 6):
        head, a, b = x.coords[:p - 1], x[p - 1], x[p]
        if a == b:
            continue
        want = ("f", head + (2 * a, b - a)) if b > a else ("g", head + (a - b, 2 * b))
        assert prod(x) == want, x.coords
        sides.add(want[0])
    assert sides == {"f", "g"}


def test_concat_product_rejects_mismatched_bases():
    f = BasedMap(1, lambda x: Bary.of(F(1), F(0)), Bary.of(F(1), F(0)))
    g = BasedMap(1, lambda x: Bary.of(F(0), F(1)), Bary.of(F(0), F(1)))
    with pytest.raises(ValueError):
        concat_product(f, g)


# -- rejections ----------------------------------------------------------------

_HALF = Bary.of(F(1, 2), F(1, 2))
_ON_2 = Bary.of(F(1, 3), F(1, 3), F(1, 3))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: Bary(()), ValueError, "a barycentric point needs at least one coordinate"),
    (lambda: Bary.vertex(2, 3), ValueError, "vertex 3 out of range"),
    (lambda: AffineSimplexMap(()), ValueError,
     "the vertex images must be one or more Bary points"),
    (lambda: AffineSimplexMap((Bary.vertex(1, 0), (F(1), F(0)))), ValueError,
     "the vertex images must be one or more Bary points"),
    (lambda: AffineSimplexMap((Bary.vertex(1, 0), Bary.vertex(2, 0))), ValueError,
     "all vertex images must share a dimension"),
    (lambda: AffineSimplexMap.face(2, 3), ValueError, "face index 3 out of range"),
    (lambda: phi_chart(3, Bary.of(0.5, 0.5), 0.5), ValueError,
     "chart index 3 out of range"),
    (lambda: chart_decompose(Bary.of(0.5, 0.5), 2), ValueError,
     "chart index 2 out of range"),
    (lambda: good_nbhd_Phi((), _ON_2), ValueError,
     "index set must be nonempty without repeats"),
    (lambda: good_nbhd_Phi((1, 1), _ON_2), ValueError,
     "index set must be nonempty without repeats"),
    (lambda: good_nbhd_Phi((0, 3), _ON_2), ValueError, "index set (0, 3) invalid for Δ^2"),
    (lambda: good_nbhd_Phi_inverse((0,), Bary.of(F(1)), _HALF, 2), ValueError,
     "component dimensions do not match I"),
    (lambda: good_nbhd_Phi_inverse((0,), Bary.of(F(1)), Bary.of(0, F(1, 2), F(1, 2)), 2),
     OutOfDomain, "half-open component collapsed (v_0 = 0)"),
    (lambda: beta_map(0), ValueError, "beta needs p >= 1"),
    (lambda: gamma_map(0), ValueError, "gamma needs p >= 1"),
    (lambda: beta_map(1)(Bary.of(F(1)), F(1, 2)), ValueError, "expected a point of Δ^1"),
    (lambda: beta_map(1)(_HALF, F(3, 2)), OutOfDomain, "time outside [0, 1]"),
    (lambda: gamma_map(1)(_HALF), ValueError, "expected a point of Δ^2"),
    (lambda: concat_product(BasedMap(1, id, _HALF), BasedMap(2, id, _HALF)), ValueError,
     "concatenation needs maps on the same simplex"),
])
def test_geometry_rejections(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("point, text", [
    (Bary.of(F(1, 2), F(1, 2)), "Bary(coords=(Fraction(1, 2), Fraction(1, 2)))"),
    (Bary.of_ratio((1, 3), 4), "Bary(coords=(Fraction(1, 4), Fraction(3, 4)))"),
    (Bary.of(0.25, 0.75), "Bary(coords=(0.25, 0.75))"),
])
def test_bary_pickle_deepcopy_and_repr(point, text):
    assert repr(point) == text
    for twin in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point)):
        assert twin == point and twin is not point
        assert (twin.ratio, twin.coords) == (point.ratio, point.coords)
