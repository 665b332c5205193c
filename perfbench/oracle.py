"""Vertex-sequence oracle for maps between subcomplexes of standard simplices.

``Δ[n]`` is the nerve of the chain ``0 < 1 < ... < n``: a simplex is a
nondecreasing vertex sequence, and a subcomplex ``K`` is fixed by the vertex
sets of its simplices.  A simplicial map from a subcomplex ``A`` of ``Δ[p]``
into ``K`` is therefore a function on the vertices of ``A`` that is
nondecreasing along every simplex of ``A`` and sends each simplex onto a
vertex set of ``K``.  Counting such functions gives the number of horn maps,
lifting squares and failing squares without face words, normal forms or any
code of the package under test.

This module imports nothing from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

VertexMap = dict[int, int]


@dataclass(frozen=True)
class Sub:
    """A subcomplex of ``Δ[n]``: every simplex as a sorted vertex tuple."""

    n: int
    simplices: frozenset[tuple[int, ...]]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(s[0] for s in self.simplices if len(s) == 1))

    def has_face(self, verts: frozenset[int]) -> bool:
        return tuple(sorted(verts)) in self.simplices


def _faces_where(n: int, keep) -> Sub:
    return Sub(n, frozenset(s for size in range(1, n + 2)
                            for s in combinations(range(n + 1), size)
                            if keep(s)))


def simplex(n: int) -> Sub:
    """``Δ[n]`` itself."""
    return _faces_where(n, lambda s: True)


def boundary(n: int) -> Sub:
    """``∂Δ[n]``: every proper face (empty for n = 0)."""
    return _faces_where(n, lambda s: len(s) <= n)


def horn(n: int, k: int) -> Sub:
    """``Λ[n, k]``: the proper faces that do not contain the facet opposite k."""
    facet = set(range(n + 1)) - {k}
    return _faces_where(n, lambda s: len(s) <= n and not facet <= set(s))


def is_map(f: VertexMap, A: Sub, K: Sub) -> bool:
    """Whether the vertex function ``f`` (vertex of ``A`` -> vertex of
    ``K``) is a simplicial map ``A -> K``."""
    for s in A.simplices:
        seq = [f[v] for v in s]
        if any(a > b for a, b in zip(seq, seq[1:])):
            return False
        if not K.has_face(frozenset(seq)):
            return False
    return True


def maps(A: Sub, K: Sub) -> Iterator[VertexMap]:
    """Every simplicial map ``A -> K``, as its vertex function."""
    verts = A.vertices
    for values in product(K.vertices, repeat=len(verts)):
        f = dict(zip(verts, values))
        if is_map(f, A, K):
            yield f


def extensions(f: VertexMap, p: int, K: Sub) -> Iterator[VertexMap]:
    """Every map ``Δ[p] -> K`` that agrees with ``f`` where ``f`` is set."""
    free = [v for v in range(p + 1) if v not in f]
    full = simplex(p)
    for values in product(K.vertices, repeat=len(free)):
        g = dict(f)
        g.update(zip(free, values))
        if is_map(g, full, K):
            yield g


def horn_counts(K: Sub, p: int, k: int) -> tuple[int, int]:
    """``(maps, unfillable)`` for horn maps ``Λ[p, k] -> K``."""
    total = unfillable = 0
    for f in maps(horn(p, k), K):
        total += 1
        if next(extensions(f, p, K), None) is None:
            unfillable += 1
    return total, unfillable


def kan_table(K: Sub, n_max: int) -> list[tuple[int, int, int, int]]:
    """``(p, k, maps, unfillable)`` for every horn with ``1 <= p <= n_max``."""
    return [(p, k) + horn_counts(K, p, k)
            for p in range(1, n_max + 1) for k in range(p + 1)]


@dataclass(frozen=True)
class VertexSimplicialMap:
    """A map ``X -> Y`` of subcomplexes given by its vertex function
    ``phi`` (a tuple indexed by vertex of ``Δ[X.n]``)."""

    source: Sub
    target: Sub
    phi: tuple[int, ...]


def generators(kind: str, max_dim: int) -> list[tuple[Sub, int]]:
    """The generating inclusions ``A -> Δ[p]`` as ``(A, p)``, in the
    order ``I(0), I(1), ...`` or ``J(1,0), J(1,1), J(2,0), ...``."""
    if kind == "I":
        return [(boundary(p), p) for p in range(max_dim + 1)]
    if kind == "J":
        return [(horn(p, k), p) for p in range(1, max_dim + 1)
                for k in range(p + 1)]
    raise ValueError(f"unknown generating set {kind!r}")


def rlp_counts(f: VertexSimplicialMap, kind: str, max_dim: int
               ) -> tuple[int, int]:
    """``(squares, failing)`` for the lifting problems of ``f`` against the
    generating set truncated at ``max_dim``.

    A square is a top map ``A -> X`` with a bottom map ``Δ[p] -> Y`` that
    agrees with ``phi`` after the top map on ``A``; it fails when no map
    ``Δ[p] -> X`` extends the top map and lies over the bottom map.
    """
    squares = failing = 0
    for A, p in generators(kind, max_dim):
        for top in maps(A, f.source):
            over = {v: f.phi[x] for v, x in top.items()}
            for bottom in extensions(over, p, f.target):
                squares += 1
                if not any(all(f.phi[h[v]] == bottom[v] for v in bottom)
                           for h in extensions(top, p, f.source)):
                    failing += 1
    return squares, failing


def named_map(name: str) -> VertexSimplicialMap:
    """The oracle's description of a named built-in map whose source and
    target are subcomplexes of standard simplices."""
    point = simplex(0)
    if name == "delta1_to_delta0":
        return VertexSimplicialMap(simplex(1), point, (0, 0))
    if name == "boundary1_to_delta0":
        return VertexSimplicialMap(boundary(1), point, (0, 0))
    if name == "delta0_identity":
        return VertexSimplicialMap(point, point, (0,))
    if name.startswith("horn") and name.endswith("_incl"):
        p, k = (int(x) for x in name[4:-5].split("_"))
        return VertexSimplicialMap(horn(p, k), simplex(p), tuple(range(p + 1)))
    if name.startswith("collapse_"):
        source = named_complex(name[len("collapse_"):])
        return VertexSimplicialMap(source, point, (0,) * (source.n + 1))
    raise ValueError(f"no oracle description for map {name!r}")


def named_complex(name: str) -> Sub:
    """``delta<p>``, ``boundary<p>`` or ``horn<p>_<k>``."""
    if name.startswith("delta"):
        return simplex(int(name[5:]))
    if name.startswith("boundary"):
        return boundary(int(name[8:]))
    if name.startswith("horn"):
        p, k = (int(x) for x in name[4:].split("_"))
        return horn(p, k)
    raise ValueError(f"unknown complex name {name!r}")
