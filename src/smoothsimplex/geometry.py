"""Geometry of the standard p-simplex.

Points are barycentric tuples.  Everything in this module is rational
arithmetic whenever the inputs are rational (``fractions.Fraction`` or
``int``); the round-trip identities for charts and good neighborhoods are
then exact, and the tests assert them with zero tolerance.

An exact point also carries its coordinates as integer numerators over one
shared denominator (``Bary.ratio``).  The exact kernels (affine maps, the
chart map, grids) compute on those integers, validate their output in
integer form and build ``Fraction`` coordinates only for the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul
from typing import Callable, Sequence, Union

Number = Union[int, float, Fraction]

FLOAT_TOL = 1e-12


class OutOfDomain(ValueError):
    """A point fell outside the declared domain of a chart or map."""


def _check_ratio(nums: Sequence[int], den: int) -> None:
    """The exact validation of the point ``nums[i] / den``: the numerators
    sum to the denominator and none is negative."""
    if (total := sum(nums)) != den:
        raise ValueError(f"coordinates sum to {Fraction(total, den)}, not 1")
    if min(nums) < 0:
        raise ValueError("negative barycentric coordinate")


def _check_floats(coords: Sequence[Number]) -> None:
    """The float validation of a point: the sum is within ``FLOAT_TOL`` of 1
    and no coordinate is below ``-FLOAT_TOL``."""
    total = sum(coords)
    if not abs(total - 1) <= FLOAT_TOL:  # NaN fails too
        raise ValueError(f"coordinate sum {total} is off by more than {FLOAT_TOL}")
    # the sum is finite, so no coordinate is NaN or infinite
    if min(coords) < -FLOAT_TOL:
        raise ValueError("negative barycentric coordinate")


class Bary:
    """A point of Δ^p in barycentric coordinates ``(x_0, ..., x_p)``.

    Immutable.  An exact point also has ``ratio``: its coordinates as
    integer numerators over their least common denominator, so
    ``coords[i] == ratio[0][i] / ratio[1]``; a float point has ``ratio``
    None.  A point built from a ratio makes its ``Fraction`` coordinates
    only when they are read.
    """

    __slots__ = ("_coords", "ratio")

    def __init__(self, coords: tuple[Number, ...]) -> None:
        _set_coords(self, coords)
        _set_ratio(self, None)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate a point built from its coordinates and, if it is exact,
        set its ratio.  The benchmark's tracer wraps this method by name
        (``perfbench/tracing.py``)."""
        coords = self._coords
        if not coords:
            raise ValueError("a barycentric point needs at least one coordinate")
        if not all(isinstance(c, (int, Fraction)) for c in coords):
            _check_floats(coords)
            return
        # the least common denominator leaves the numerators coprime to it
        den = math.lcm(*(c.denominator for c in coords))
        nums = tuple(c.numerator * (den // c.denominator) for c in coords)
        _check_ratio(nums, den)
        _set_ratio(self, (nums, den))

    @property
    def coords(self) -> tuple[Number, ...]:
        if self._coords is None:
            nums, den = self.ratio
            _set_coords(self, tuple([Fraction(n, den) for n in nums]))
        return self._coords

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable point")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable point")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.ratio is not None and other.ratio is not None:
            return self.ratio == other.ratio   # both in lowest terms
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return f"Bary(coords={self.coords!r})"

    def __reduce__(self):
        return (self.__class__, (self.coords,))

    @property
    def p(self) -> int:
        return len(self.ratio[0] if self._coords is None else self._coords) - 1

    @property
    def exact(self) -> bool:
        return self.ratio is not None

    def __getitem__(self, i: int) -> Number:
        return self.coords[i]

    def __len__(self) -> int:
        return len(self.ratio[0] if self._coords is None else self._coords)

    def as_floats(self) -> tuple[float, ...]:
        """The coordinates as floats; ``n / d`` of two ints is correctly
        rounded, so it equals ``float(Fraction(n, d))``."""
        if self.ratio is None:
            return tuple([float(c) for c in self.coords])
        nums, den = self.ratio
        return tuple([n / den for n in nums])

    @classmethod
    def of(cls, *coords: Number) -> "Bary":
        return cls(tuple(coords))

    @classmethod
    def of_floats(cls, coords: tuple[float, ...]) -> "Bary":
        """A point of float coordinates, validated as ``__post_init__``
        validates one, without the scan for exact coordinates."""
        _check_floats(coords)
        point = object.__new__(cls)
        _set_coords(point, coords)
        _set_ratio(point, None)
        return point

    @classmethod
    def of_ratio(cls, nums: Sequence[int], den: int) -> "Bary":
        """The exact point ``(nums[0] / den, ..., nums[p] / den)`` of integer
        numerators, validated in integers as ``__post_init__`` validates
        an exact point."""
        nums = tuple(nums)
        if not (nums and den > 0 and sum(nums) == den and min(nums) >= 0):
            if not nums:
                raise ValueError("a barycentric point needs at least one coordinate")
            if den <= 0:
                raise ValueError(f"denominator {den} is not positive")
            _check_ratio(nums, den)
        g = math.gcd(den, *nums)
        if g > 1:
            nums, den = tuple([n // g for n in nums]), den // g
        point = object.__new__(cls)
        _set_coords(point, None)
        _set_ratio(point, (nums, den))
        return point

    @classmethod
    def vertex(cls, p: int, i: int) -> "Bary":
        if not 0 <= i <= p:
            raise ValueError(f"vertex {i} out of range")
        return cls(tuple(1 if j == i else 0 for j in range(p + 1)))

    @classmethod
    def barycenter(cls, p: int) -> "Bary":
        return cls(tuple(Fraction(1, p + 1) for _ in range(p + 1)))


_set_coords, _set_ratio = Bary._coords.__set__, Bary.ratio.__set__  # bypass __setattr__


def _compositions(p: int, steps: int, as_floats: bool = False) -> list[tuple]:
    """All ``p + 1`` non-negative integers summing to ``steps``,
    lexicographic, each integer ``c`` written as itself or, ``as_floats``,
    as ``c / steps`` read from a table.  Each of the first ``p`` places
    extends every prefix, in order, by each ``c`` up to what the prefix
    leaves, and the last place takes the rest."""
    if steps < 1:   # 1/steps is no grid, and an empty one would check nothing
        raise ValueError(f"grid steps {steps} < 1")
    parts = [c / steps for c in range(steps + 1)] if as_floats else range(steps + 1)
    level = [((), steps)]   # (prefix, what it leaves)
    for _ in range(p):
        level = [(head + (parts[c],), rest - c)
                 for head, rest in level for c in range(rest + 1)]
    return [head + (parts[rest],) for head, rest in level]


def barycentric_grid(p: int, steps: int) -> list[Bary]:
    """All points of Δ^p with coordinates in (1/steps)·Z, lexicographic."""
    return [Bary.of_ratio(comp, steps) for comp in _compositions(p, steps)]


def float_grid(p: int, steps: int) -> list[tuple[float, ...]]:
    """``barycentric_grid(p, steps)`` as float tuples, each coordinate read
    from a table of ``c / steps``: it and ``float(Fraction(c, steps))`` are
    both the correctly rounded quotient."""
    return _compositions(p, steps, as_floats=True)


# -- affine maps ------------------------------------------------------------


@dataclass(frozen=True)
class AffineSimplexMap:
    """An affine map Δ^p → Δ^q, stored by the images of the vertices."""

    columns: tuple[Bary, ...]

    #: ``(rows, denominator)``: the matrix as integers over one denominator,
    #: when every column is exact; None otherwise
    _int_matrix = None

    def __post_init__(self) -> None:
        if not (self.columns and all(isinstance(c, Bary) for c in self.columns)):
            raise ValueError("the vertex images must be one or more Bary points")
        if len({c.p for c in self.columns}) != 1:
            raise ValueError("all vertex images must share a dimension")
        if all(c.exact for c in self.columns):
            den = math.lcm(*(c.ratio[1] for c in self.columns))
            cols = [tuple(n * (den // d) for n in nums)
                    for nums, d in (c.ratio for c in self.columns)]
            object.__setattr__(self, "_int_matrix", (tuple(zip(*cols)), den))

    @property
    def p(self) -> int:
        return len(self.columns) - 1

    @property
    def q(self) -> int:
        return self.columns[0].p

    def __call__(self, x: Bary) -> Bary:
        if self._int_matrix is not None and x.ratio is not None and x.p == self.p:
            (rows, den), (nums, xden) = self._int_matrix, x.ratio
            return Bary.of_ratio([sum(map(mul, row, nums)) for row in rows],
                                 den * xden)
        if x.p != self.p:
            raise ValueError(f"expected a point of Δ^{self.p}")
        coords = [0] * (self.q + 1)
        for weight, col in zip(x.coords, self.columns):
            for r, c in enumerate(col.coords):
                coords[r] += weight * c
        return Bary(tuple(coords))

    def matrix(self) -> tuple[tuple[Number, ...], ...]:
        """(q+1) x (p+1) matrix with the vertex images as columns."""
        return tuple(tuple(col[r] for col in self.columns)
                     for r in range(self.q + 1))

    @classmethod
    def face(cls, p: int, i: int) -> "AffineSimplexMap":
        """``d^i : Δ^{p-1} → Δ^p``, skipping vertex i."""
        if not 0 <= i <= p:
            raise ValueError(f"face index {i} out of range")
        return cls(tuple(Bary.vertex(p, k if k < i else k + 1)
                         for k in range(p)))


# -- cone charts ------------------------------------------------------------


@dataclass(frozen=True)
class ChartDecomp:
    """Chart coordinates of a point: ``phi_i(x, t)`` reproduces it."""

    x: Bary
    t: Number


def phi_chart(i: int, x: Bary, t: Number) -> Bary:
    """The chart map ``phi_i(x, t) = (1-t)(i) + t d^i(x)`` into Δ^p."""
    if x.ratio is not None and isinstance(t, (int, Fraction)):
        return phi_chart_ratio(i, *x.ratio, t.numerator, t.denominator)
    if not 0 <= i <= len(x):
        raise ValueError(f"chart index {i} out of range")
    if not 0 <= t <= 1:
        raise OutOfDomain(f"chart parameter t={t} outside [0, 1]")
    return Bary(tuple(_chart_core(i, x.coords, 1, t, 1)[0]))


def phi_chart_ratio(i: int, nums: Sequence[int], den: int, tn: int, td: int
                    ) -> Bary:
    """``phi_chart`` on integers: ``x = nums / den``, checked to be a point
    of Δ^{p-1}, and ``t = tn / td`` with ``td > 0``; the image has
    denominator ``td * den``."""
    if not (0 <= i <= len(nums) and sum(nums) == den and min(nums) >= 0
            and 0 <= tn <= td):
        if not 0 <= i <= len(nums):
            raise ValueError(f"chart index {i} out of range")
        _check_ratio(nums, den)
        raise OutOfDomain(f"chart parameter t={Fraction(tn, td)} outside [0, 1]")
    return Bary.of_ratio(*_chart_core(i, nums, den, tn, td))


def _chart_core(i: int, nums: Sequence[Number], den: Number, tn: Number, td: Number):
    """The chart formula, unchecked: the numerators of the image of
    ``x = nums / den`` at ``t = tn / td``, and their denominator ``td * den``."""
    coords = [tn * n for n in nums]
    coords.insert(i, (td - tn) * den)
    return coords, td * den


def chart_decompose(z: Bary, i: int) -> ChartDecomp:
    """Invert ``phi_i`` on the half-open simplex ``z_i > 0``.

    At the cone vertex (t = 0) the fiber collapses; the barycenter is
    returned as the representative so the round trip is still exact.
    """
    p = z.p
    if not 0 <= i <= p:
        raise ValueError(f"chart index {i} out of range")
    # z_i = zn / den on the integers of an exact point, so t = (den - zn) / den
    nums, den = z.ratio or (z.coords, 1)
    zn = nums[i]
    if zn == 0 if z.exact else float(zn) <= FLOAT_TOL:
        raise OutOfDomain(f"point lies on the face opposite vertex {i}")
    if zn == den:
        return ChartDecomp(Bary.barycenter(p - 1), 0)
    rest = nums[:i] + nums[i + 1:]
    if z.exact:
        return ChartDecomp(Bary.of_ratio(rest, den - zn), Fraction(den - zn, den))
    # over the rest's own sum: near vertex i, 1 - z_i cancels
    tot = math.fsum(rest)
    x = Bary(tuple(c / tot for c in rest)) if tot > 0 else Bary.barycenter(p - 1)
    return ChartDecomp(x, 1 - zn)


def chart_transition(i: int, j: int, y: Bary, tau: Number, t: Number
                     ) -> tuple[Bary, Number, Number]:
    """Transition between charts i and j of Δ^p, p = y.p + 2.

    The source point is ``phi_i`` applied to the face point
    ``(1-tau)(j) + tau * y``; the return value ``(y, s, t')`` satisfies
    ``phi_j((1-s)(i) + s*y, t') = phi_i((1-tau)(j) + tau*y, t)``.
    """
    p = y.p + 2
    if i == j or not (0 <= i <= p and 0 <= j <= p):
        raise ValueError(f"{i} and {j} are not two distinct charts of Δ^{p}")
    exact = isinstance(tau, (int, Fraction)) and isinstance(t, (int, Fraction))
    # tau = a/b and t = c/d, on integers when both are exact
    a, b, c, d = ((tau.numerator, tau.denominator, t.numerator, t.denominator)
                  if exact else (tau, 1, t, 1))
    if not 0 < a <= b:
        raise OutOfDomain(f"tau={tau} outside (0, 1]")
    if not 0 < c < d:
        raise OutOfDomain(f"t={t} outside (0, 1)")
    # 1 - t(1 - tau) = n / (db), and 0 <= 1 - tau < 1 forces it >= 1 - t > 0
    n = d * b - c * (b - a)
    if exact:
        return (y, Fraction(c * a, n), Fraction(n, d * b))
    return (y, c * a / n, n / (d * b))


def transition_identity_gap(p: int, i: int, j: int, y: Bary, tau: Number,
                            t: Number) -> Number:
    """Max-norm difference of the two sides of the chart-compatibility
    identity; identically zero in rational arithmetic."""
    if y.p != p - 2:
        raise ValueError(f"expected a point of Δ^{p - 2}, not of Δ^{y.p}")
    _, s, t_new = chart_transition(i, j, y, tau, t)
    # the chart-i input (1-tau)(j) + tau*y and the chart-j input
    # (1-s)(i) + s*y, as points of Δ^{p-1} (vertices past the chart's own
    # vertex shift down by one)
    ji, ij = (j if j < i else j - 1), (i if i < j else i - 1)
    # s is a Fraction when tau and t are exact: then both sides on integers,
    # else on the coordinates, each number over 1.  As tau, s, t, t' > 0,
    # the check of a side covers its chart input.
    exact = y.ratio is not None and isinstance(s, Fraction)
    point, over = ((y.ratio, attrgetter("numerator", "denominator")) if exact
                   else ((y.coords, 1), lambda u: (u, 1)))
    (ln, ld), (rn, rd) = sides = [
        _chart_core(k, *_chart_core(h, *point, *over(u)), *over(v))
        for k, h, u, v in ((i, ji, tau, t), (j, ij, s, t_new))]
    for nums, den in sides:
        _check_ratio(nums, den) if exact else _check_floats(nums)
    gap = max(abs(a * rd - b * ld) for a, b in zip(ln, rn))
    return Fraction(gap, ld * rd) if exact and gap else gap


# -- good neighborhoods of open simplices -------------------------------------


def _check_index_set(I: Sequence[int], p: int) -> tuple[int, ...]:
    I = tuple(sorted(I))
    if not I or len(set(I)) != len(I):
        raise ValueError("index set must be nonempty without repeats")
    if I[0] < 0 or I[-1] > p or len(I) > p:
        raise ValueError(f"index set {I} invalid for Δ^{p}")
    return I


def in_good_neighborhood(z: Bary, I: Sequence[int], eps: Number) -> bool:
    """Membership in ``U_I(eps)``: x_i > 0 on I and sum over I > 1 - eps."""
    I = _check_index_set(I, z.p)
    if any(z[i] <= 0 for i in I):
        return False
    return sum(z[i] for i in I) > 1 - eps


def phi_I(z: Sequence[Number], I: Sequence[int], J: Sequence[int]
          ) -> tuple[tuple[Number, ...], tuple[Number, ...]]:
    """``Φ_I`` on plain coordinates, for ``z`` positive on ``I`` and ``J``
    the complement of ``I``: ``u = z_I / S`` and ``v = (S, z_J)``, with
    ``S`` summed over ``I`` left to right.  Exact on exact coordinates;
    the kernel of :func:`good_nbhd_Phi`, and the reference that the float
    deformations' good-neighborhood stages, which compute ``Φ_I`` inline,
    are tested against."""
    S = 0
    for i in I:
        S += z[i]
    u, v = [], [S]
    for i in I:
        u.append(z[i] / S)
    for j in J:
        v.append(z[j])
    return tuple(u), tuple(v)


def phi_I_inverse(u: Sequence[Number], v: Sequence[Number], I: Sequence[int],
                  J: Sequence[int]) -> list[Number]:
    """``Φ_I⁻¹`` on plain coordinates: ``x_{i_a} = v_0 u_a`` and
    ``x_{j_b} = v_{b+1}``."""
    out: list[Number] = [0] * (len(I) + len(J))
    v0 = v[0]
    for a in range(len(I)):   # indices: cheaper than zip or enumerate
        out[I[a]] = v0 * u[a]
    for b in range(len(J)):
        out[J[b]] = v[b + 1]
    return out


def _complement(I: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(j for j in range(p + 1) if j not in I)


def good_nbhd_Phi(I: Sequence[int], z: Bary) -> tuple[Bary, Bary]:
    """The diffeomorphism ``Φ_I : U_I → (interior k-simplex) x (half-open
    simplex)``, returned as ``(u, v)`` with ``v_0`` the weight of the I-face.
    """
    p = z.p
    I = _check_index_set(I, p)
    if any(z[i] <= 0 for i in I):
        raise OutOfDomain(f"point not in U_{I}: a coordinate on I vanishes")
    u, v = phi_I(z.coords, I, _complement(I, p))
    return Bary(u), Bary(v)


def good_nbhd_Phi_inverse(I: Sequence[int], u: Bary, v: Bary, p: int) -> Bary:
    """Inverse of ``Φ_I``: ``x_{i_a} = v_0 u_a`` and ``x_{j_b} = v_b``."""
    I = _check_index_set(I, p)
    if u.p != len(I) - 1 or v.p != p - len(I) + 1:
        raise ValueError("component dimensions do not match I")
    if (v[0] == 0) if v.exact else (float(v[0]) <= FLOAT_TOL):
        raise OutOfDomain("half-open component collapsed (v_0 = 0)")
    return Bary(tuple(phi_I_inverse(u.coords, v.coords, I, _complement(I, p))))


# -- concatenation plumbing for homotopy-class products -----------------------


def beta_map(p: int) -> Callable[[Bary, Number], Bary]:
    """``beta(x, t) = (x_0, ..., x_{p-1}, t x_p, (1-t) x_p)``: the affine
    homotopy Δ^p x I → Δ^{p+1} splitting the last coordinate."""
    if p < 1:
        raise ValueError("beta needs p >= 1")

    def ev(x: Bary, t: Number) -> Bary:
        if x.p != p:
            raise ValueError(f"expected a point of Δ^{p}")
        if not 0 <= t <= 1:
            raise OutOfDomain("time outside [0, 1]")
        return Bary(x.coords[:-1] + (t * x[p], (1 - t) * x[p]))

    return ev


def gamma_map(p: int) -> Callable[[Bary], Bary]:
    """The fold ``gamma : Δ^{p+1} → Δ^p_{(p-1)} ∪ Δ^p_{(p+1)}``.

    The image point is returned in the coordinates of Δ^{p+1}; exactly one
    of the coordinates p-1, p+1 vanishes, naming the side of the wedge.
    The two branch formulas agree on the seam ``x_{p+1} = x_{p-1}``.
    """
    if p < 1:
        raise ValueError("gamma needs p >= 1")

    def ev(z: Bary) -> Bary:
        if z.p != p + 1:
            raise ValueError(f"expected a point of Δ^{p + 1}")
        head = z.coords[:p - 1]
        if z[p + 1] >= z[p - 1]:
            return Bary(head + (0, z[p] + 2 * z[p - 1], z[p + 1] - z[p - 1]))
        return Bary(head + (z[p - 1] - z[p + 1], z[p] + 2 * z[p + 1], 0))

    return ev


@dataclass(frozen=True)
class BasedMap:
    """An evaluable map on Δ^p that is constant (= base) near the ε-collar
    of the boundary, for some ε > 0 that the caller vouches for."""

    p: int
    eval: Callable[[Bary], object]
    base: object

    def __call__(self, x: Bary) -> object:
        return self.eval(x)


def concat_product(f: BasedMap, g: BasedMap) -> Callable[[Bary], object]:
    """The concatenation ``(f + g) ∘ gamma ∘ d^p`` on Δ^p.

    ``f`` is used on the ``Δ^p_{(p-1)}`` side of the wedge and ``g`` on the
    ``Δ^p_{(p+1)}`` side; the two agree (with value the base point) on the
    seam because both maps are constant near an ε-collar of the boundary.
    """
    if f.p != g.p:
        raise ValueError("concatenation needs maps on the same simplex")
    fb, gb = f.base, g.base
    same = fb == gb
    if not same:
        try:
            same = all(abs(float(a) - float(b)) <= FLOAT_TOL
                       for a, b in zip(fb.coords, gb.coords))  # type: ignore[union-attr]
        except AttributeError:
            same = False
    if not same:
        raise ValueError("base points of the two maps do not match")
    p = f.p
    dp = AffineSimplexMap.face(p + 1, p)
    gamma = gamma_map(p)

    def ev(x: Bary) -> object:
        y = gamma(dp(x))
        if y[p + 1] == 0 or (not y.exact and float(y[p + 1]) <= FLOAT_TOL):
            # on the (p+1)-face: g's side
            side = tuple(y[j] for j in range(p + 2) if j != p + 1)
            return g(Bary(side))
        side = tuple(y[j] for j in range(p + 2) if j != p - 1)
        return f(Bary(side))

    return ev
