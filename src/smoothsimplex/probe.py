"""Numeric smoothness probes through the cone-chart atlas.

A map on Δ^p is probed by composing it with a chart ``phi_i`` and a
pseudorandom polynomial curve into the chart domain, then checking that
centered finite differences converge at the expected order.  Probing is
evidence, not proof: it witnesses the affine-map smoothness of the atlas
and flags kinks, nothing more.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Optional, Sequence

from .geometry import AffineSimplexMap, Bary, phi_chart_ratio

PointMap = Callable[[Bary], object]

#: below this, a finite-difference residual is considered exact
NOISE_FLOOR = 1e-9

#: random curves probed through each chart
CURVES_PER_CHART = 3


def _as_floats(value: object) -> tuple[float, ...]:
    if isinstance(value, Bary):
        return value.as_floats()
    # tuples before numbers: isinstance(tuple, Fraction) takes the slow ABC check
    if not isinstance(value, tuple) and isinstance(value, (int, float, Fraction)):
        return (float(value),)
    return tuple([float(c) for c in value])  # type: ignore[union-attr]


#: a float parameter is read as the nearest fraction of denominator at most this
MAX_TAU_DENOMINATOR = 1 << 40


def _limit_denominator(n: int, d: int, max_den: int) -> tuple[int, int]:
    """``Fraction(n, d).limit_denominator(max_den)`` as ``(numerator,
    denominator)``, for ``n / d`` in lowest terms with ``d > 0``: the
    closest convergent or semiconvergent of the continued fraction, the
    convergent on a tie."""
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    n0, d0 = n, d
    while True:
        a = n0 // d0
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n0, d0 = d0, n0 - a * d0
    k = (max_den - q0) // q1
    # p1/q1 lies d0 / (q1 d) from n/d, and 1 / (q1 (q0 + k q1)) from the
    # semiconvergent on the other side
    if 2 * d0 * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _rational(tau) -> tuple[int, int]:
    """``tau`` as ``(a, b)`` with ``tau ~ a / b``, ``b > 0``: a ``Fraction``
    as it is, any other number rounded to a denominator of at most
    ``MAX_TAU_DENOMINATOR``."""
    # floats first: isinstance(float, Fraction) takes the slow ABC check
    if tau.__class__ is float:
        return _limit_denominator(*tau.as_integer_ratio(), MAX_TAU_DENOMINATOR)
    if isinstance(tau, Fraction):
        return tau.numerator, tau.denominator
    return _limit_denominator(*Fraction(tau).as_integer_ratio(), MAX_TAU_DENOMINATOR)


@dataclass
class ProbeCurve:
    """Polynomial curve ``tau -> (x(tau), t(tau))`` into a chart domain.

    Coefficients are rational so the composite with an affine map stays a
    low-degree polynomial with an exactly differentiable formula.  They
    are stored as integers over one denominator ``den``:
    ``x_k(tau) = (X0_k + X1_k tau + X2_k tau²) / den`` and
    ``t(tau) = (T0 + T1 tau) / den``, so a point of the curve is computed
    on integers.
    """

    chart: int
    den: int
    X0: tuple[int, ...]
    X1: tuple[int, ...]
    X2: tuple[int, ...]
    T0: int
    T1: int
    radius: float

    def _x_t(self, a: int, b: int) -> tuple[list[int], int, int, int]:
        """At ``tau = a / b``: the numerators of ``x`` over ``den b²`` and
        ``t`` as ``tn / td``."""
        bb, ab, aa = b * b, a * b, a * a
        xs = [c0 * bb + c1 * ab + c2 * aa
              for c0, c1, c2 in zip(self.X0, self.X1, self.X2)]
        return xs, self.den * bb, self.T0 * b + self.T1 * a, self.den * b

    def point(self, tau) -> Bary:
        """``phi_chart(chart, x(tau), t(tau))``, a float ``tau`` read as
        the nearest fraction of denominator at most ``2**40``."""
        return phi_chart_ratio(self.chart, *self._x_t(*_rational(tau)))


def random_curve(p: int, chart: int, rng: random.Random) -> ProbeCurve:
    """A quadratic curve staying inside the chart domain for |tau| <= radius."""
    # the coefficients are drawn as integers: x0 over the sum of its draws,
    # x1 and x2 over 16m, t0 and t1 over 10
    m = p  # chart domain is Δ^{p-1} x [0,1): m coordinates on the simplex part
    base = [rng.randrange(2, 7) for _ in range(m)]
    tot = sum(base)

    def sum_zero() -> list[int]:
        # m sixteenths less their mean, over 16m
        if m == 1:
            return [0]
        raw = [rng.randrange(-8, 9) for _ in range(m)]
        return [m * r - sum(raw) for r in raw]

    d1, d2 = sum_zero(), sum_zero()
    tenths = (rng.randrange(3, 8), rng.randrange(-4, 5))
    # conservative radius keeping every coordinate positive and t in (0,1):
    # |x1_k|, |x2_k| <= 1 and |t1| < 1 bound the speed by 1, and n / d of
    # two ints is float(Fraction(n, d))
    radius = min(min(base) / tot / 4,
                 min(tenths[0], 10 - tenths[0]) / 10 / (4 + 1e-9), 0.25)
    # the numerators over L, then over their least common denominator
    L = math.lcm(tot, 16 * m, 10)
    groups = [[n * (L // d) for n in ns]
              for ns, d in ((base, tot), (d1, 16 * m), (d2, 16 * m), (tenths, 10))]
    g = math.gcd(L, *(n for ns in groups for n in ns))
    X0, X1, X2, (T0, T1) = [tuple(n // g for n in ns) for ns in groups]
    return ProbeCurve(chart, L // g, X0, X1, X2, T0, T1, radius)


@dataclass
class ProbeRecord:
    chart: int
    tau0: float
    residual_coarse: float
    residual_fine: float
    oracle_error: Optional[float]
    passed: bool


@dataclass
class ProbeReport:
    records: list[ProbeRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_oracle_error(self) -> float:
        errs = [r.oracle_error for r in self.records if r.oracle_error is not None]
        return max(errs) if errs else 0.0


def _stencil(F: Callable[[float], tuple[float, ...]], tau0: float, h: float,
             mid: Optional[tuple[float, ...]]) -> tuple[float, ...]:
    """The centered first difference of ``F`` at ``tau0``, or, given
    ``mid = F(tau0)``, the centered second difference."""
    lo, hi = F(tau0 - h), F(tau0 + h)
    if mid is None:
        h2 = 2 * h
        return tuple([(b - a) / h2 for a, b in zip(lo, hi)])
    hh = h * h
    return tuple([(a - 2 * b + c) / hh for a, b, c in zip(lo, mid, hi)])


def smoothness_probe(map_eval: PointMap, p: int, order: int, tol: float,
                     seed: int,
                     oracle: Optional[Callable[[ProbeCurve, float], Sequence[float]]] = None,
                     ) -> ProbeReport:
    """Probe ``map_eval`` on Δ^p through every chart.

    ``oracle``, when given, maps ``(curve, tau0)`` to the exact derivative of
    the chart-composed curve; the probe then also checks the first-order
    estimate against it within ``tol``.  An oracle needs ``order == 1``.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if oracle is not None and order != 1:
        raise ValueError("an oracle gives first derivatives: order must be 1")
    rng = random.Random(seed)
    report = ProbeReport()
    for chart in range(p + 1):
        for _ in range(CURVES_PER_CHART):
            curve = random_curve(p, chart, rng)

            def F(tau: float) -> tuple[float, ...]:
                return _as_floats(map_eval(curve.point(tau)))

            for frac_pos in (0.0, 0.5, -0.5):
                tau0 = curve.radius * frac_pos
                h0 = curve.radius / 8
                mid = F(tau0) if order == 2 else None
                d_h, d_h2, d_h4 = [_stencil(F, tau0, h0 / k, mid) for k in (1, 2, 4)]
                e1 = max(map(abs, map(sub, d_h, d_h2)))
                e2 = max(map(abs, map(sub, d_h2, d_h4)))
                scale = 1.0 + max(map(abs, d_h2))
                floor = NOISE_FLOOR * scale
                converges = e2 <= max(e1 / 2.0, floor)
                oracle_err = None
                if oracle is not None:
                    exact = oracle(curve, tau0)
                    # Richardson-extrapolated estimate
                    best = [(4 * b - a) / 3 for a, b in zip(d_h, d_h2)]
                    oracle_err = max(map(abs, map(sub, best, exact)))
                    converges = converges and oracle_err <= tol
                report.records.append(ProbeRecord(
                    chart=chart, tau0=tau0, residual_coarse=e1, residual_fine=e2,
                    oracle_error=oracle_err, passed=converges))
    return report


def affine_curve_derivative(f: AffineSimplexMap, curve: ProbeCurve,
                            tau0: float) -> tuple[float, ...]:
    """Exact derivative of ``f ∘ phi_chart ∘ curve`` at tau0, for an affine
    map ``f`` of exact columns.

    The chart composite is polynomial with rational coefficients; its
    derivative is computed symbolically and pushed through the integer
    matrix ``f`` was built with.  Any other ``f`` is a ``ValueError``.
    """
    if not isinstance(f, AffineSimplexMap) or f._int_matrix is None:
        raise ValueError("the derivative oracle needs an affine map of exact columns")
    a, b = _rational(tau0)
    den, X1, X2, T1 = curve.den, curve.X1, curve.X2, curve.T1
    xs, _, tn, _ = curve._x_t(a, b)
    # with x_k = xs_k / (den b²), dx_k = (X1_k b + 2 X2_k a) / (den b),
    # t = tn / (den b) and dt = T1 / den, the chart coordinates have
    # dz_i = -dt and dz_j = dt x_k + t dx_k, all over den² b²
    dz = [T1 * x + tn * (c1 * b + 2 * c2 * a) for x, c1, c2 in zip(xs, X1, X2)]
    dz.insert(curve.chart, -T1 * den * b * b)
    rows, mden = f._int_matrix
    out_den = mden * den * den * b * b
    return tuple(sum(map(mul, row, dz)) / out_den for row in rows)
