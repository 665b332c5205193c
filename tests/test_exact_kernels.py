"""The exact kernels compute on integer numerators over one denominator.

Each kernel is checked against the ``Fraction`` formula it replaces,
written out here: its output is the same point exactly, passes the
validating constructor ``Bary(...)`` again, and its float output is
``float(Fraction)`` bit for bit.
"""

import dataclasses
import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothsimplex import geometry
from smoothsimplex.geometry import (
    AffineSimplexMap,
    Bary,
    OutOfDomain,
    barycentric_grid,
    chart_decompose,
    phi_chart,
    phi_chart_ratio,
    transition_identity_gap,
)
from smoothsimplex.probe import (
    MAX_TAU_DENOMINATOR,
    ProbeCurve,
    _limit_denominator,
    affine_curve_derivative,
    random_curve,
)
from smoothsimplex.realization import canonical_injection, normalize
from smoothsimplex.simplicial import EMPTY, boundary_complex, standard_simplicial_set


def fraction_point(p, lo=0):
    """Strategy for the coordinates of an exact point of Δ^p as Fractions."""
    return st.lists(st.integers(lo, 40), min_size=p + 1, max_size=p + 1).filter(
        lambda raw: sum(raw) > 0).map(
        lambda raw: tuple(F(r, sum(raw)) for r in raw))


def assert_exact_point(point, reference):
    """``point`` is ``reference`` exactly, re-validates, and its floats are
    the correctly rounded floats of the reference."""
    assert point.coords == tuple(reference)
    assert Bary(point.coords) == point
    assert Bary(point.coords).ratio == point.ratio
    assert point.as_floats() == tuple(float(c) for c in reference)


# -- Bary's exact validation -------------------------------------------------------


@pytest.mark.parametrize("coords", [
    (F(1, 2), F(1, 2) + F(1, 2 ** 80)),        # sums to 1 + 2^-80
    (F(1, 2) + F(1, 2 ** 80), F(1, 2)),
    (F(3, 2), F(-1, 2)),                       # a negative numerator
    (2, -1),
    (1, F(1, 3)),                              # mixed int and Fraction
    (0, F(2, 3), 0),
])
def test_exact_rejections(coords):
    with pytest.raises(ValueError):
        Bary(coords)
    den = 2 ** 81 * 3
    nums = tuple(F(c) * den for c in coords)
    assert all(n.denominator == 1 for n in nums)
    with pytest.raises(ValueError):
        Bary.of_ratio(tuple(int(n) for n in nums), den)


def test_of_ratio_rejects_what_bary_rejects():
    for nums, den, message in [
            ((), 1, "a barycentric point needs at least one coordinate"),
            ((1, 1), 0, "denominator 0 is not positive"),
            ((0, 0), 0, "denominator 0 is not positive"),
            ((-1, -1), -2, "denominator -2 is not positive"),
            ((1, 1), 3, "coordinates sum to 2/3, not 1"),
            ((2, -1), 1, "negative barycentric coordinate")]:
        with pytest.raises(ValueError) as exc:
            Bary.of_ratio(nums, den)
        assert exc.value.args == (message,)
    # the validating constructor raises the same two messages
    for coords, message in [((F(1, 3), F(1, 3)), "coordinates sum to 2/3, not 1"),
                            ((2, -1), "negative barycentric coordinate")]:
        with pytest.raises(ValueError) as exc:
            Bary(coords)
        assert exc.value.args == (message,)


def test_mixed_int_and_fraction_point_is_exact():
    z = Bary((0, F(1, 3), F(2, 3), 0))
    assert z.exact and z.ratio == ((0, 1, 2, 0), 3)
    assert Bary((1, 0)).ratio == ((1, 0), 1)


@given(st.integers(0, 4).flatmap(fraction_point), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_ratio_is_the_lowest_terms_of_the_coordinates(coords, scale):
    z = Bary(coords)
    nums, den = z.ratio
    assert tuple(F(n, den) for n in nums) == coords
    assert den == math.lcm(*(c.denominator for c in coords))
    # the same point from scaled numerators is reduced to the same ratio
    w = Bary.of_ratio(tuple(n * scale for n in nums), den * scale)
    assert w.ratio == z.ratio and w == z and hash(w) == hash(z)
    assert_exact_point(w, coords)


def test_point_equality_and_hash_across_exact_and_float():
    exact, floats = Bary((F(1, 2), F(1, 2))), Bary((0.5, 0.5))
    assert exact == floats and hash(exact) == hash(floats)
    assert Bary.of_ratio((1, 1), 2) == exact
    assert Bary.of_ratio((1, 2), 3) != exact


def test_points_are_immutable():
    z = Bary.of_ratio((1, 2), 3)
    with pytest.raises(AttributeError):
        z.ratio = ((1, 1), 2)
    with pytest.raises(AttributeError):
        z.coords = (F(1, 2), F(1, 2))


# -- grids, charts and affine maps -------------------------------------------------


@pytest.mark.parametrize("p,steps", [(0, 3), (1, 7), (2, 6), (3, 4)])
def test_grid_points(p, steps):
    ref = [tuple(F(c, steps) for c in comp)
           for comp in product(range(steps + 1), repeat=p + 1) if sum(comp) == steps]
    grid = barycentric_grid(p, steps)
    assert len(grid) == len(ref)
    for z, coords in zip(grid, ref):
        assert_exact_point(z, coords)


@given(st.integers(0, 3).flatmap(
    lambda m: st.tuples(fraction_point(m), st.integers(0, m + 1),
                        st.fractions(0, 1, max_denominator=10 ** 6))))
@settings(max_examples=200, deadline=None)
def test_phi_chart(args):
    x, i, t = args
    ref = [t * c for c in x]
    ref.insert(i, 1 - t)
    assert_exact_point(phi_chart(i, Bary(x), t), ref)


@pytest.mark.parametrize("t", [F(1) + F(1, 2 ** 80), F(-1, 2 ** 80), 2, -1])
def test_phi_chart_rejects_t_outside_the_unit_interval(t):
    with pytest.raises(OutOfDomain):
        phi_chart(0, Bary((F(1, 3), F(2, 3))), t)
    with pytest.raises(OutOfDomain):
        phi_chart_ratio(0, (1, 2), 3, F(t).numerator, F(t).denominator)


@pytest.mark.parametrize("t,shown", [(F(3, 2), "3/2"), (-1, "-1")])
def test_phi_chart_names_the_closed_unit_interval(t, shown):
    exact, floats = Bary((F(1, 4), F(3, 4))), Bary.of_floats((0.25, 0.75))
    message = f"chart parameter t={shown} outside [0, 1]"
    for call in (lambda: phi_chart(0, exact, t),
                 lambda: phi_chart_ratio(0, (1, 3), 4, F(t).numerator, F(t).denominator)):
        with pytest.raises(OutOfDomain) as exc:
            call()
        assert exc.value.args == (message,)
    with pytest.raises(OutOfDomain) as exc:
        phi_chart(0, floats, float(t))
    assert exc.value.args == (f"chart parameter t={float(t)} outside [0, 1]",)
    # t = 1 is in the domain on both branches: the image is the face point
    assert phi_chart(0, exact, 1) == Bary((0, F(1, 4), F(3, 4)))
    assert phi_chart(0, floats, 1.0).coords == (0.0, 0.25, 0.75)


def test_phi_chart_ratio_checks_its_point_and_index():
    with pytest.raises(ValueError):
        phi_chart_ratio(0, (2, -1), 1, 1, 2)      # x has a negative numerator
    with pytest.raises(ValueError):
        phi_chart_ratio(0, (1, 1), 3, 1, 2)       # x sums to 2/3
    with pytest.raises(ValueError):
        phi_chart_ratio(3, (1, 1), 2, 1, 2)       # no chart 3 on Δ^2


@given(st.integers(1, 3).flatmap(
    lambda p: st.tuples(fraction_point(p), st.integers(0, p))))
@settings(max_examples=200, deadline=None)
def test_chart_decompose(args):
    z, i = args
    assume(z[i] != 0 and z[i] != 1)
    dec = chart_decompose(Bary(z), i)
    t = 1 - z[i]
    assert dec.t == t
    assert_exact_point(dec.x, [c / t for j, c in enumerate(z) if j != i])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_chart_decompose_reads_the_ratio_of_a_grid_point(p):
    # every grid point and chart: the Fraction formula, from the ratio alone
    for z in barycentric_grid(p, 6):
        nums, den = z.ratio
        for i in range(p + 1):
            if nums[i] == 0:
                with pytest.raises(OutOfDomain):
                    chart_decompose(z, i)
                continue
            dec = chart_decompose(z, i)
            zi = F(nums[i], den)
            assert dec.t == 1 - zi
            if zi == 1:   # the cone vertex: the barycentre, at t = 0
                assert dec.t == 0 and dec.x == Bary.barycenter(p - 1)
            else:
                assert isinstance(dec.t, F)
                assert_exact_point(dec.x, [F(n, den) / (1 - zi)
                                           for j, n in enumerate(nums) if j != i])
        assert z._coords is None   # no Fraction coordinates were built


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_affine_map(p, q, data):
    columns = [data.draw(fraction_point(q)) for _ in range(p + 1)]
    w = data.draw(fraction_point(p))
    f = AffineSimplexMap(tuple(Bary(c) for c in columns))
    ref = [sum(w[c] * columns[c][r] for c in range(p + 1)) for r in range(q + 1)]
    assert_exact_point(f(Bary(w)), ref)


def test_affine_map_rejects_a_wrong_dimension_alike_on_both_branches():
    exact_map = AffineSimplexMap((Bary((F(1, 3), F(2, 3))), Bary((1, 0))))
    float_map = AffineSimplexMap((Bary((0.25, 0.75)), Bary((1, 0))))
    exact, floats = Bary.of_ratio((1, 1, 1), 3), Bary.of_floats((0.25, 0.25, 0.5))
    for f, x in [(exact_map, exact), (exact_map, floats), (float_map, exact)]:
        with pytest.raises(ValueError) as exc:
            f(x)
        assert exc.value.args == ("expected a point of Δ^1",)


def test_affine_map_keeps_float_expressions_for_float_points():
    f = AffineSimplexMap((Bary((F(1, 3), F(2, 3))), Bary((1, 0))))
    x = Bary((0.25, 0.75))
    ref = [0 + 0.25 * float(F(1, 3)) + 0.75 * 1, 0 + 0.25 * float(F(2, 3)) + 0.75 * 0]
    assert f(x).coords == tuple(ref) and not f(x).exact


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3),
       st.sampled_from([F(1, 4), F(1, 2), F(4, 5), F(1)]),
       st.sampled_from([F(1, 5), F(1, 2), F(6, 7)]), st.data())
@settings(max_examples=100, deadline=None)
def test_transition_gap_is_exactly_zero(m, i, j, tau, t, data):
    p = m + 1
    assume(i != j and i <= p and j <= p and p >= 2)
    y = Bary(data.draw(fraction_point(p - 2)))
    assert transition_identity_gap(p, i, j, y, tau, t) == 0


def ref_transition_sides(i, j, y, tau, t):
    """Both sides of ``phi_j((1-s)(i) + s*y, t') = phi_i((1-tau)(j) + tau*y, t)``
    as Fraction coordinates on Δ^p, from the cone formula ``phi_i(x, t) =
    (1-t)(i) + t x`` with no index shifting: the vertices other than i and j
    carry ``y`` in order."""
    t_new = 1 - t * (1 - tau)
    s = t * tau / t_new

    def side(a, b, inner, outer):
        rest = iter(y.coords)
        return [1 - outer if k == a else outer * (1 - inner) if k == b
                else outer * inner * next(rest) for k in range(y.p + 3)]

    return side(i, j, tau, t), side(j, i, s, t_new)


def test_transition_gap_checks_both_sides_against_the_formula(monkeypatch):
    # every verify-axiom1 item for p = 2, 3, 4: the gap checks exactly the
    # two sides of the identity, left then right, and returns their distance
    checked, real = [], geometry._check_ratio

    def spy(nums, den):
        checked.append([F(n, den) for n in nums])
        return real(nums, den)

    monkeypatch.setattr(geometry, "_check_ratio", spy)
    taus, ts = (F(1, 4), F(1, 2), F(4, 5), F(1)), (F(1, 5), F(1, 2), F(6, 7))
    for p in (2, 3, 4):
        for i, j, y, tau, t in product(range(p + 1), range(p + 1),
                                       barycentric_grid(p - 2, 3), taus, ts):
            if i == j:
                continue
            checked.clear()
            gap = transition_identity_gap(p, i, j, y, tau, t)
            lhs, rhs = ref_transition_sides(i, j, y, tau, t)
            assert checked == [lhs, rhs]
            assert gap == max(abs(a - b) for a, b in zip(lhs, rhs)) == 0


# -- probe curves ------------------------------------------------------------------


def ref_tau(tau):
    return tau if isinstance(tau, F) else F(tau).limit_denominator(1 << 40)


def fraction_coefficients(curve):
    """``(x0, x1, x2, t0, t1)`` of ``curve`` as Fractions, read from its
    integer fields."""
    return (*(tuple(F(c, curve.den) for c in cs) for cs in (curve.X0, curve.X1, curve.X2)),
            F(curve.T0, curve.den), F(curve.T1, curve.den))


def curve_of_fractions(chart, x0, x1, x2, t0, t1, radius):
    """The ``ProbeCurve`` of Fraction coefficients: every coefficient over
    their least common denominator."""
    cs = [F(c) for c in (*x0, *x1, *x2, t0, t1)]
    den = math.lcm(*(c.denominator for c in cs))
    ns = [c.numerator * (den // c.denominator) for c in cs]
    m = len(x0)
    return ProbeCurve(chart, den, tuple(ns[:m]), tuple(ns[m:2 * m]),
                      tuple(ns[2 * m:3 * m]), *ns[3 * m:], radius)


def ref_x_t(curve, tau):
    x0, x1, x2, t0, t1 = fraction_coefficients(curve)
    return ([a + b * tau + c * tau * tau for a, b, c in zip(x0, x1, x2)],
            t0 + t1 * tau)


def ref_point(curve, tau):
    x, t = ref_x_t(curve, ref_tau(tau))
    z = [t * c for c in x]
    z.insert(curve.chart, 1 - t)
    return z


def ref_derivative(matrix, curve, tau0):
    tau = ref_tau(tau0)
    x, t = ref_x_t(curve, tau)
    _, x1, x2, _, dt = fraction_coefficients(curve)
    dx = [b + 2 * c * tau for b, c in zip(x1, x2)]
    dz = [dt * a + t * b for a, b in zip(x, dx)]
    dz.insert(curve.chart, -dt)
    return tuple(float(sum(F(m) * d for m, d in zip(row, dz))) for row in matrix)


@st.composite
def curves_and_taus(draw):
    p = draw(st.integers(1, 3))
    curve = random_curve(p, draw(st.integers(0, p)),
                         random.Random(draw(st.integers(0, 10 ** 6))))
    tau = draw(st.one_of(
        st.floats(-curve.radius, curve.radius),
        st.integers(-10 ** 6, 10 ** 6).map(lambda k: F(k, 10 ** 6) * F(curve.radius))))
    return p, curve, tau


@given(curves_and_taus())
@settings(max_examples=300, deadline=None)
def test_probe_curve_point(args):
    _, curve, tau = args
    assert_exact_point(curve.point(tau), ref_point(curve, tau))


@given(curves_and_taus(), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_affine_curve_derivative(args, q, data):
    p, curve, tau = args
    columns = [Bary(data.draw(fraction_point(q))) for _ in range(p + 1)]
    f = AffineSimplexMap(tuple(columns))
    assert affine_curve_derivative(f, curve, tau) == \
        ref_derivative(f.matrix(), curve, tau)
    # a map of float columns has no integer matrix
    g = AffineSimplexMap(tuple(Bary.of_floats(c.as_floats()) for c in columns))
    with pytest.raises(ValueError, match="exact columns"):
        affine_curve_derivative(g, curve, tau)


def ref_random_curve(p, chart, rng):
    """``random_curve`` in Fraction arithmetic: the reference of the integer draw."""
    m = p
    base = [F(rng.randrange(2, 7), 1) for _ in range(m)]
    tot = sum(base)
    x0 = tuple(b / tot for b in base)
    margin = min(x0)

    def sum_zero():
        if m == 1:
            return (F(0),)
        raw = [F(rng.randrange(-8, 9), 16) for _ in range(m)]
        mean = sum(raw) / m
        return tuple(r - mean for r in raw)

    x1, x2 = sum_zero(), sum_zero()
    t0 = F(rng.randrange(3, 8), 10)
    t1 = F(rng.randrange(-4, 5), 10)
    denom = max(max(abs(c) for c in x1), max(abs(c) for c in x2),
                abs(t1), F(1))
    radius = min(float(margin) / (4 * float(denom)),
                 float(min(t0, 1 - t0)) / (4 * float(denom) + 1e-9),
                 0.25)
    return curve_of_fractions(chart, x0, x1, x2, t0, t1, radius)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_random_curve_draws_the_fraction_curve(p):
    for chart, seed in product(range(p + 1), range(2000)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        curve, ref = random_curve(p, chart, rng), ref_random_curve(p, chart, ref_rng)
        for f in dataclasses.fields(ProbeCurve):
            assert repr(getattr(curve, f.name)) == repr(getattr(ref, f.name))
        # every later draw of the rng is the same
        assert rng.getstate() == ref_rng.getstate()


def test_probe_curve_checks_x_and_t():
    x0, x1, x2 = (F(1, 2), F(1, 2)), (F(1), F(-1)), (0, 0)
    # t leaves [0, 1]
    curve = curve_of_fractions(0, x0, (0, 0), x2, F(1, 2), F(1), radius=0.1)
    with pytest.raises(OutOfDomain):
        curve.point(F(1))
    with pytest.raises(OutOfDomain):
        curve.point(-1.0)
    # x(1) = (3/2, -1/2) is rejected even where t = 0 hides it in the image
    curve = curve_of_fractions(0, x0, x1, x2, F(0), F(0), radius=0.1)
    with pytest.raises(ValueError, match="negative"):
        curve.point(F(1))
    # x(0) sums to 2
    curve = ProbeCurve(0, 1, (1, 1), (0, 0), (0, 0), 0, 0, radius=0.1)
    with pytest.raises(ValueError, match="sum"):
        curve.point(0.0)


@given(st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=500, deadline=None)
def test_limit_denominator_matches_fractions(x):
    ref = F(x).limit_denominator(MAX_TAU_DENOMINATOR)
    assert _limit_denominator(*x.as_integer_ratio(), MAX_TAU_DENOMINATOR) == \
        (ref.numerator, ref.denominator)


@pytest.mark.parametrize("x,max_den", [
    # halfway between the two candidates: the convergent wins the tie
    (F(1, 2), 1), (F(3, 2), 1), (F(-1, 2), 1), (F(1, 4), 2), (F(3, 4), 2),
    (F(-3, 4), 2)])
def test_limit_denominator_ties(x, max_den):
    ref = x.limit_denominator(max_den)
    assert _limit_denominator(x.numerator, x.denominator, max_den) == \
        (ref.numerator, ref.denominator)


@given(st.fractions(max_denominator=10 ** 12), st.integers(1, 10 ** 6))
@settings(max_examples=300, deadline=None)
def test_limit_denominator_matches_fractions_on_fractions(x, max_den):
    ref = x.limit_denominator(max_den)
    assert _limit_denominator(x.numerator, x.denominator, max_den) == \
        (ref.numerator, ref.denominator)


# -- realization -------------------------------------------------------------------


def test_normalize_returns_the_validated_input_when_nothing_collapses():
    K = standard_simplicial_set(2)
    u = Bary((F(1, 6), F(1, 3), F(1, 2)))
    assert normalize(K, (EMPTY, K.nondegenerate()[-1]), u).coords is u


@given(st.integers(0, 2).flatmap(
    lambda d: st.tuples(st.just(d), fraction_point(d + 1))))
@settings(max_examples=200, deadline=None)
def test_normalize_collapses_on_numerators(args):
    dim, coords = args
    K = standard_simplicial_set(dim)
    top = [r for r in K.nondegenerate() if r.dim == dim][0]
    # the degeneracy s_0 merges slots 0 and 1 by summation
    pt = normalize(K, ((0,), top), Bary(coords))
    merged = (coords[0] + coords[1],) + coords[2:]
    if 0 not in merged:
        assert pt.simplex == top
        assert_exact_point(pt.coords, merged)
    else:
        # a zero coordinate moves the point into a face: the rest, in order
        assert_exact_point(pt.coords, [c for c in merged if c != 0])


@given(st.integers(2, 3).flatmap(lambda p: st.tuples(st.just(p), st.data())))
@settings(max_examples=100, deadline=None)
def test_canonical_injection(args):
    p, data = args
    K, incl = boundary_complex(p)
    cells = K.nondegenerate()
    ref = cells[data.draw(st.integers(0, len(cells) - 1))]
    coords = data.draw(fraction_point(ref.dim, lo=1))
    pt = normalize(K, (EMPTY, ref), Bary(coords))
    verts = incl.target.labels[incl.assignment[ref.id][1].id]
    image = [F(0)] * (p + 1)
    for slot, v in enumerate(verts):
        image[v] = coords[slot]
    assert_exact_point(canonical_injection(incl, pt), image)
