"""Realizations of finite simplicial sets as normal-form points.

A point of the realization ``|K|`` is stored as a pair (nondegenerate
simplex, interior barycentric coordinates): the classical Eilenberg-Zilber
representative.  The colimit is never materialized; ``normalize`` collapses
degeneracy coordinates by summation and pushes zero coordinates into faces
until the representative is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .engine import pi0
from .geometry import Bary, Number
from .simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    Simplex,
    SimplexRef,
    SimplicialMap,
    _cell_vertices,
)


@dataclass(frozen=True)
class RealPoint:
    """Normal form of a point of ``|K|``: nondegenerate simplex plus
    strictly interior coordinates."""

    simplex: SimplexRef
    coords: Bary

    def __post_init__(self) -> None:
        if self.coords.p != self.simplex.dim:
            raise ValueError("coordinate dimension does not match the simplex")


def _collapse_word(word: tuple[int, ...], coords: tuple[Number, ...]
                   ) -> tuple[Number, ...]:
    # each degeneracy letter j merges coordinate slots j and j+1; letters
    # are strictly decreasing, so inner letters are unaffected
    for j in word:
        coords = coords[:j] + (coords[j] + coords[j + 1],) + coords[j + 2:]
    return coords


def _point_like(u: Bary, coords: tuple[Number, ...]) -> Bary:
    """The point of ``coords``, given as integer numerators over the
    denominator of ``u`` when ``u`` is exact."""
    return Bary(coords) if u.ratio is None else Bary.of_ratio(coords, u.ratio[1])


def _coords_of(u: Bary) -> tuple[Number, ...]:
    """The coordinates of ``u``; the integer numerators of an exact one."""
    return u.coords if u.ratio is None else u.ratio[0]


def normalize(K: FiniteSimplicialSet, sx: Simplex, u: Bary) -> RealPoint:
    """Normal form of the point ``(sx, u)`` of ``|K|``; ``u`` itself when
    nothing collapses."""
    word, ref = sx
    if u.p != ref.dim + len(word):
        raise ValueError("coordinate dimension does not match the simplex")
    start = _coords_of(u)
    coords = _collapse_word(word, start)
    while 0 in coords:
        if ref.dim == 0:
            raise ValueError("all coordinates of a point vanish")
        zero = coords.index(0)
        fw, ref = K.face((EMPTY, ref), zero)
        coords = _collapse_word(fw, coords[:zero] + coords[zero + 1:])
    return RealPoint(ref, u if coords is start else _point_like(u, coords))


def canonical_injection(incl: SimplicialMap, pt: RealPoint) -> Bary:
    """The injection ``|K| -> Δ^p`` for a subcomplex ``K`` of ``Δ[p]``,
    given its inclusion into ``standard_simplicial_set(p)``.

    Distinct normal forms land on distinct points; the tests check this by
    exact rational comparison.
    """
    K, ambient = incl.source, incl.target
    if pt.simplex.id not in incl.assignment:
        raise ValueError(f"{pt.simplex} is not a simplex of {K.name}")
    word, ref = incl.assignment[pt.simplex.id]
    if word != EMPTY:
        raise ValueError("inclusion must be a subcomplex inclusion")
    verts = ambient.labels.get(ref.id)
    if not isinstance(verts, tuple):
        raise ValueError("ambient complex does not carry vertex labels")
    coords: list[Number] = [0] * (ambient.dimension + 1)
    src = _coords_of(pt.coords)
    for slot, v in enumerate(verts):
        coords[v] = src[slot]
    return _point_like(pt.coords, tuple(coords))


def realize_map(f: SimplicialMap, pt: RealPoint) -> RealPoint:
    """The realized map ``|f|`` on normal forms."""
    if pt.simplex.id not in f.assignment:
        raise ValueError(f"{pt.simplex} is not a simplex of the source")
    return normalize(f.target, f.assignment[pt.simplex.id], pt.coords)


# -- the Appendix-A witness ---------------------------------------------------


def maximal_simplices(K: FiniteSimplicialSet) -> list[SimplexRef]:
    """Nondegenerate simplices that are not iterated faces of another.

    The last step of an iterated face is a direct face of a nondegenerate
    simplex, so the direct faces of all of them are all the iterated faces."""
    proper_faces = {K.face((EMPTY, ref), i)[1].id
                    for ref in K.nondegenerate() if ref.dim
                    for i in range(ref.dim + 1)}
    return [r for r in K.nondegenerate() if r.id not in proper_faces]


def _sort_key(K: FiniteSimplicialSet, ref: SimplexRef):
    label = K.labels.get(ref.id)
    if isinstance(label, tuple):
        return (0, label)
    return (1, _cell_vertices(K)[ref.id])


def witness_not_single_generated(K: FiniteSimplicialSet) -> Optional[dict]:
    """Witness that a connected ``K`` with at least two maximal simplices is
    not generated by a single simplex: two maximal simplices sharing a
    vertex, plus a piecewise-linear crossing-curve specification through
    that vertex.  Returns ``None`` when the premise fails.
    """
    if pi0(K)[0] > 1:
        return None
    maxima = sorted(maximal_simplices(K), key=lambda r: _sort_key(K, r))
    verts = _cell_vertices(K)
    for ia in range(len(maxima)):
        for ib in range(ia + 1, len(maxima)):
            a, b = maxima[ia], maxima[ib]
            shared = sorted(set(verts[a.id]) & set(verts[b.id]))
            if not shared:
                continue
            v = shared[0]
            slot_a = verts[a.id].index(v)
            slot_b = verts[b.id].index(v)
            return {
                "sigma": a,
                "tau": b,
                "shared_vertex": K.ref(v),
                "curve": _crossing_curve(a, b, slot_a, slot_b),
            }
    return None


def _crossing_curve(a: SimplexRef, b: SimplexRef, slot_a: int, slot_b: int
                    ) -> Callable[[Fraction], tuple[SimplexRef, Bary]]:
    """A piecewise-linear injection (-1, 1) -> |K| crossing the shared
    vertex at 0: barycenter-to-vertex on ``a``, vertex-to-barycenter on
    ``b``.  For t != 0 the value lies in the corresponding open simplex."""

    def curve(t: Fraction) -> tuple[SimplexRef, Bary]:
        t = Fraction(t)
        if not -1 < t < 1:
            raise ValueError("curve parameter outside (-1, 1)")
        ref, slot = (a, slot_a) if t < 0 else (b, slot_b)
        w, n = abs(t), ref.dim + 1
        coords = tuple(w * Fraction(1, n) +
                       ((1 - w) if i == slot else 0) for i in range(n))
        return (ref, Bary(coords))

    return curve
