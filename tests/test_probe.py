import random
from fractions import Fraction as F
from itertools import cycle

import pytest

from smoothsimplex.geometry import AffineSimplexMap, Bary
from smoothsimplex.probe import (
    CURVES_PER_CHART,
    NOISE_FLOOR,
    ProbeRecord,
    affine_curve_derivative,
    random_curve,
    smoothness_probe,
)


def random_affine(p, q, rng):
    cols = []
    for _ in range(p + 1):
        raw = [F(rng.randrange(1, 9)) for _ in range(q + 1)]
        tot = sum(raw)
        cols.append(Bary(tuple(r / tot for r in raw)))
    return AffineSimplexMap(tuple(cols))


def test_random_curves_stay_in_domain():
    rng = random.Random(5)
    for p in (1, 2, 3):
        for chart in range(p + 1):
            c = random_curve(p, chart, rng)
            for k in range(-4, 5):
                tau = F(k) * F(c.radius).limit_denominator(1 << 30) / 4
                pt = c.point(tau)
                assert min(pt.as_floats()) >= -1e-15


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 1)])
def test_affine_maps_pass_with_exact_oracle(p, q):
    rng = random.Random(p * 10 + q)
    f = random_affine(p, q, rng)
    report = smoothness_probe(
        f, p, order=1, tol=1e-6, seed=42,
        oracle=lambda curve, tau0: affine_curve_derivative(f, curve, tau0))
    assert report.passed
    assert report.max_oracle_error <= 1e-6


def test_degeneracies_pass_order_two():
    # s^2 : Δ^3 → Δ^2, collapsing vertices 2 and 3
    s2 = AffineSimplexMap(tuple(Bary.vertex(2, i) for i in (0, 1, 2, 2)))
    report = smoothness_probe(s2, 3, order=2, tol=1e-6, seed=3)
    assert report.passed


def test_random_affine_passes_order_two():
    rng = random.Random(23)
    f = random_affine(2, 3, rng)
    report = smoothness_probe(f, 2, order=2, tol=1e-6, seed=23)
    assert report.passed


def kink(z: Bary):
    v = abs(float(z[0]) - float(z[1]))
    return (v, 1.0 - v)


def test_probe_rejects_bad_order():
    with pytest.raises(ValueError):
        smoothness_probe(lambda z: z, 1, order=3, tol=1e-6, seed=0)
    # an oracle gives first derivatives: at order 2 it would check nothing
    calls = []
    with pytest.raises(ValueError):
        smoothness_probe(kink, 1, order=2, tol=1e-6, seed=11,
                         oracle=lambda curve, tau0: calls.append(tau0))
    assert calls == []


def ref_order_two_records(map_eval, p, seed):
    """The records of an order-2 probe whose stencil evaluates
    ``F(tau0 - h)``, ``F(tau0)`` and ``F(tau0 + h)`` for each step ``h``."""
    rng = random.Random(seed)
    records = []
    for chart in range(p + 1):
        for _ in range(CURVES_PER_CHART):
            curve = random_curve(p, chart, rng)
            for frac_pos in (0.0, 0.5, -0.5):
                tau0, h0 = curve.radius * frac_pos, curve.radius / 8
                d = []
                for h in (h0, h0 / 2, h0 / 4):
                    lo, mid, hi = (map_eval(curve.point(tau))
                                   for tau in (tau0 - h, tau0, tau0 + h))
                    d.append([(a - 2 * b + c) / (h * h) for a, b, c in zip(lo, mid, hi)])
                e1 = max(abs(a - b) for a, b in zip(d[0], d[1]))
                e2 = max(abs(a - b) for a, b in zip(d[1], d[2]))
                floor = NOISE_FLOOR * (1.0 + max(abs(c) for c in d[1]))
                records.append(ProbeRecord(chart, tau0, e1, e2, None,
                                           e2 <= max(e1 / 2.0, floor)))
    return records


def test_kink_fails():
    points = []

    def counted(z):
        points.append(z)
        return kink(z)

    report = smoothness_probe(counted, 1, order=2, tol=1e-6, seed=11)
    assert not report.passed
    # 18 stencil points, each evaluated at tau0 once and at tau0 -+ h for
    # three steps h
    assert len(points) == 18 * 7 == 126
    assert report.records == ref_order_two_records(kink, 1, 11)


def test_probe_passes_a_fine_residual_of_exactly_half_the_coarse_one():
    # the scripted values (lo, hi for the steps h0, h0/2, h0/4) give first
    # differences 0, q and q/2 with q = 1 / h0, each exact because halving h
    # is; so the fine residual is exactly half the coarse one, and the
    # differences converge
    script = cycle((0.0, 0.0, 0.0, 1.0, 0.0, 0.25))
    report = smoothness_probe(lambda z: next(script), 1, order=1, tol=1e-6, seed=3)
    assert len(report.records) == 18
    assert all(r.residual_fine == r.residual_coarse / 2.0 > 0.0
               for r in report.records)
    assert report.passed
