"""Lifting-property checks, bounded gluing factorizations, numeric horn
filling, and elementary homotopy invariants of finite simplicial sets.

Every check walks the squares from a generating set to ``f`` one top map
at a time (``_tops``).  :func:`iter_lifting_problems` yields every square
as a :class:`LiftingProblem`, which looks up its own lifts; :func:`rlp_check`
and :func:`igc_factor` count every square, tell the ones that lift by
``_tops_with_images``, and build only the squares without a lift.

A generator's complexes come from ``simplicial._shared``, the one frozen
cache of horns and boundaries.  A map out of ``Δ[p]`` is fixed by its top
cell, one lookup in ``horn_index(p, k)`` (by all faces for ``k`` None);
``lifts`` keeps the cells over the bottom's and builds only their maps.

The gluing factorization computes the finite stages ``G^n`` of the
infinite construction; non-termination is expected (each glued cell can
create new unsolved problems) and is reported honestly through the
residual-problem lists.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property, partial
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

from .geometry import Bary
from .homotopy import build_full_horn_deformation
from .simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    Simplex,
    SimplicialMap,
    _facet_ids,
    _glue,
    _shared,
    enumerate_maps,
)


@dataclass(frozen=True)
class Generator:
    """One generating inclusion: ``∂Δ[p] ↪ Δ[p]`` or ``Λ[p,k] ↪ Δ[p]``."""

    p: int
    k: Optional[int]   # None for ∂Δ[p]
    incl: SimplicialMap = field(compare=False)

    @property
    def name(self) -> str:
        return f"I({self.p})" if self.k is None else f"J({self.p},{self.k})"

    @cached_property
    def pins(self) -> dict[int, int]:
        """``{Δ[p] cell id: id of the source cell on it}``; the inclusion is
        onto a subcomplex, so each source cell is on a cell of its own."""
        return {t.id: a for a, (_, t) in self.incl.assignment.items()}

    @cached_property
    def top(self) -> int:
        """The id of the top cell of ``Δ[p]``."""
        return self.incl.target.nondegenerate()[-1].id

    @cached_property
    def _shape(self) -> tuple:
        """The id of ``d_k`` (None for ``I(p)``), and the source cells on the
        top's faces but ``d_k`` (on all of them for ``I(p)``)."""
        A, B = self.incl.source, self.incl.target
        return (None if self.k is None else B._faces[self.top][self.k][1].id,
                _facet_ids(A, self.p, self.k))

    def _fillers(self, X: FiniteSimplicialSet, m: dict[int, Simplex]) -> list[Simplex]:
        """The top cells ``x`` of the maps ``Δ[p] → X`` extending ``m``, in
        :func:`enumerate_maps` order: one lookup of ``x`` by its faces but
        ``d_k``, which are ``m``'s images (``m`` must be a map; it is not
        checked here).  The list is the index's own."""
        return X.horn_index(self.p, self.k).get(
            tuple(map(m.__getitem__, self._shape[1])), [])

    def _extension(self, X: FiniteSimplicialSet, pinned: dict[int, Simplex],
                   x: Simplex) -> dict[int, Simplex]:
        """The map ``Δ[p] → X`` that agrees with ``pinned`` on the cells of
        the source and sends the top cell to its filler ``x``, and ``d_k``
        (for ``J(p,k)``) to ``d_k x``."""
        if self.k is None:
            return {**pinned, self.top: x}
        return {**pinned, self._shape[0]: X.faces_index(self.p)[0][x][self.k],
                self.top: x}


@cache
def _generator(p: int, k: Optional[int]) -> Generator:
    return Generator(p, k, _shared(p, k)[1])


@dataclass(frozen=True)
class GeneratingSet:
    """The generating cofibrations ``I`` or trivial cofibrations ``J``,
    truncated at ``max_dim``."""

    kind: str
    max_dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("I", "J"):
            raise ValueError("kind must be 'I' or 'J'")
        if self.max_dim < (self.kind == "J"):   # J has no generator below Δ[1]
            raise ValueError(f"max_dim must be at least {int(self.kind == 'J')} "
                             f"for {self.kind}")

    def generators(self) -> list[Generator]:
        # a fresh list of the generators, each built once per (p, k)
        if self.kind == "I":
            return [_generator(p, None) for p in range(self.max_dim + 1)]
        return [_generator(p, k)
                for p in range(1, self.max_dim + 1) for k in range(p + 1)]


@dataclass
class LiftingProblem:
    """A commutative square from a generator to ``f``.

    A square built by hand has no lift unless its ``f``, ``top`` and
    ``bottom`` are maps that fit the generator: ``top`` into ``f.source``
    and ``bottom`` into ``f.target`` (the same objects), out of complexes
    with the cell tables of the generator's source and target.  The engine's
    squares, from an ``f`` that ``_tops`` checked, are ``trusted`` to fit; a
    ``dataclasses.replace`` copy is not.  No square is checked to commute,
    because that cannot change :meth:`lifts`: a map out of ``Δ[p]`` is
    fixed by the image of its top cell, so a bottom that is a map and sends
    the top cell to ``f(x)``, for ``x`` the top cell of an extension of
    ``top``, is ``f`` after that extension and commutes.
    """

    generator: Generator
    top: SimplicialMap       # A -> X
    bottom: SimplicialMap    # B -> Y
    f: SimplicialMap         # X -> Y
    trusted: InitVar[bool] = False
    # the bottom's top cell, which a lift's top cell must cover; None when
    # f, top or bottom of a hand-built square is not a map or does not fit
    over: Optional[Simplex] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self, trusted: bool) -> None:
        gen, f, top, bottom = self.generator, self.f, self.top, self.bottom
        if not trusted:
            # targets by identity, as compose() compares them; sources by
            # cell table, since a caller may build Δ[p] afresh
            if not (top.target is f.source and bottom.target is f.target
                    and top.source.to_json_dict() == gen.incl.source.to_json_dict()
                    and bottom.source.to_json_dict() == gen.incl.target.to_json_dict()):
                return
            try:
                for m in (f, top, bottom):
                    m.validate()
            except ValueError:
                return
        self.over = bottom.assignment[gen.top]

    def lifts(self) -> list[SimplicialMap]:
        """Every diagonal filler ``B -> X``, commuting on both triangles."""
        if self.over is None:
            return []
        gen, X, m = self.generator, self.f.source, self.top.assignment
        pinned = {c: m[a] for c, a in gen.pins.items()}
        # a lift is fixed by its top cell, a filler that lies over `over`
        return [SimplicialMap(gen.incl.target, X, gen._extension(X, pinned, x))
                for x in gen._fillers(X, m) if self.f(x) == self.over]

    def has_lift(self) -> bool:
        return bool(self.lifts())

    def to_json_dict(self) -> dict:
        return {"generator": self.generator.name,
                "top": self.top.to_json_dict(),
                "bottom": self.bottom.to_json_dict()}


def _tops(f: SimplicialMap, gens: GeneratingSet
          ) -> Iterator[tuple[Generator, SimplicialMap, list[Simplex]]]:
    """The squares from the generating set to ``f``, one top map at a time:
    ``(gen, top, xs)`` for each top map ``A → f.source`` that has a
    square, in (generator, top map) order, with ``xs`` the bottoms' top
    cells, in bottom order.  A non-map ``f`` is a ``ValueError`` before
    the first square; the maps built from it are trusted."""
    f.validate()
    for gen in gens.generators():
        index, facets = f.target.horn_index(gen.p, gen.k), gen._shape[1]
        for top in enumerate_maps(gen.incl.source, f.source):
            m = top.assignment
            # a bottom is fixed by its top cell x, whose faces but d_k are
            # f of the top's facets
            xs = index.get(tuple([f(m[a]) for a in facets]))
            if xs:
                yield gen, top, xs


def _tops_with_images(f: SimplicialMap, gens: GeneratingSet) -> Iterator[
        tuple[Generator, SimplicialMap, list[Simplex], set[Simplex]]]:
    """:func:`_tops` with ``images``, ``f`` of the top cells of the
    extensions of ``top``: a square's bottom has a lift iff its ``x`` is in
    ``images``."""
    for gen, top, xs in _tops(f, gens):
        yield gen, top, xs, set(map(f, gen._fillers(f.source, top.assignment)))


def _problem(f: SimplicialMap, gen: Generator, top: SimplicialMap, x: Simplex
             ) -> LiftingProblem:
    """The square of :func:`_tops` on ``top`` whose bottom sends the top
    cell to ``x``."""
    pinned = {c: f(top.assignment[a]) for c, a in gen.pins.items()}
    bottom = SimplicialMap(gen.incl.target, f.target, gen._extension(f.target, pinned, x))
    return LiftingProblem(gen, top, bottom, f, trusted=True)


def iter_lifting_problems(f: SimplicialMap, gens: GeneratingSet
                          ) -> Iterator[LiftingProblem]:
    """All commutative squares from the generating set to ``f``, in a fixed
    lexicographic order (generator, top map, bottom map).  A non-map ``f``
    is a ``ValueError``; the maps built from it are trusted."""
    for gen, top, xs in _tops(f, gens):
        for x in xs:
            yield _problem(f, gen, top, x)


@dataclass
class RLPReport:
    checked: int
    failures: list[LiftingProblem]

    @property
    def has_rlp(self) -> bool:
        return not self.failures


def rlp_check(f: SimplicialMap, gens: GeneratingSet) -> RLPReport:
    """Brute-force right-lifting-property check of a map ``f`` against the
    generating set: every square is counted, and every failing square is
    built and reported; a non-map is a ValueError."""
    checked, failures = 0, []
    for gen, top, xs, images in _tops_with_images(f, gens):
        checked += len(xs)
        failures += [_problem(f, gen, top, x) for x in xs if x not in images]
    return RLPReport(checked, failures)


# -- bounded gluing factorization ---------------------------------------------


@dataclass
class FactorizationStage:
    n: int
    complex: FiniteSimplicialSet
    attached: int
    j: SimplicialMap          # X -> G^n, a subcomplex inclusion
    q: SimplicialMap          # G^n -> Y with q ∘ j = f
    residual: list[LiftingProblem]

    def to_json_dict(self) -> dict:
        return {"stage": self.n, "attached": self.attached,
                "cells": sum(self.complex.counts()),
                "residual_problems": [p.to_json_dict() for p in self.residual]}


def igc_factor(f: SimplicialMap, gens: GeneratingSet, max_stages: int,
               max_problems: Optional[int] = None) -> list[FactorizationStage]:
    """Finite stages of the gluing factorization of ``f`` through cells of
    the generating set.

    Stage ``n+1`` attaches one cell per unsolved lifting problem of ``q_n``,
    which ``_tops`` checks to be a map (a non-map ``f`` is a
    ``ValueError``).  The run stops early once ``q_n`` has the right
    lifting property up to the generating set's dimension bound; otherwise
    the last stage carries the still-unsolved problems.
    """
    if max_stages < 0:
        raise ValueError("max_stages must be nonnegative")
    if max_problems is not None and max_problems < 1:
        raise ValueError("max_problems must be at least 1")

    def unsolved(q: SimplicialMap) -> list[LiftingProblem]:
        # lazily, so that the cap stops the search; a square with a lift is
        # never built
        return list(islice((_problem(q, gen, top, x)
                            for gen, top, xs, images in _tops_with_images(q, gens)
                            for x in xs if x not in images), max_problems))

    stages = [FactorizationStage(0, f.source, 0, SimplicialMap.identity(f.source),
                                 f, unsolved(f))]
    while stages[-1].residual and len(stages) <= max_stages:
        prev, n = stages[-1], len(stages)
        # one pushout along the coproduct of the problems' generators, glued
        # by their top maps; an old cell keeps its q, a new one takes its
        # problem's bottom
        P, (into, *_), order = _glue(
            prev.complex, [(p.generator.incl, p.top) for p in prev.residual], f"G^{n}")
        maps = [prev.q] + [p.bottom for p in prev.residual]
        q = {cell: maps[i].assignment[ref.id] for cell, (i, ref) in enumerate(order)}
        q_n = SimplicialMap(P, f.target, q)
        stages.append(FactorizationStage(n, P, sum(1 for i, _ in order if i),
                                         into.compose(prev.j), q_n, unsolved(q_n)))
    return stages


# -- numeric horn filling -------------------------------------------------------


@dataclass
class FilledMap:
    """Extension of a map on a realized horn to the whole simplex, obtained
    by precomposing with the deformation retraction at time one."""

    original: Callable[[Bary], object]
    retraction: Callable[[object], Bary]

    def __call__(self, z) -> object:
        return self.original(self.retraction(z))


def fill_horn_numeric(g: Callable[[Bary], object], p: int, k: int) -> FilledMap:
    """Fill ``g : Λ^p_k -> X`` to all of Δ^p through the smooth retraction;
    the restriction back to the horn reproduces ``g``."""
    H = build_full_horn_deformation(p, k)
    return FilledMap(g, partial(H, s=1.0))


# -- elementary homotopy invariants ------------------------------------------------


def pi0(X: FiniteSimplicialSet) -> tuple[int, list[tuple[int, ...]]]:
    """Connected components via edge reachability on vertices."""
    verts = X.nondegenerate(0)
    parent = {v.id: v.id for v in verts}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in X.nondegenerate(1):
        a = find(X.face((EMPTY, e), 0)[1].id)
        b = find(X.face((EMPTY, e), 1)[1].id)
        parent[a] = b
    comps: dict[int, list[int]] = {}
    for v in verts:
        comps.setdefault(find(v.id), []).append(v.id)
    out = sorted(tuple(sorted(c)) for c in comps.values())
    return len(out), out


def edge_group_rank(X: FiniteSimplicialSet) -> dict:
    """Euler-style rank of the edge-path group presentation: the edges off
    a spanning tree as generators (``E - V + 1`` of them), one relation per
    nondegenerate 2-simplex, independence counted by exact rank of the
    abelianized relation matrix.

    Each relation row is the boundary ``d_0 - d_1 + d_2`` of a 2-simplex, a
    cycle, and a cycle vanishing off the tree vanishes (a tree has no
    cycles); so the rank is taken over all edge columns, with no tree built.
    """
    if pi0(X)[0] != 1:
        raise ValueError("edge_group_rank needs a connected complex")
    verts, edges = X.nondegenerate(0), X.nondegenerate(1)
    column = {e.id: i for i, e in enumerate(edges)}
    rows = []
    for s in X.nondegenerate(2):
        row = [Fraction(0)] * len(edges)
        for i, sign in ((2, 1), (0, 1), (1, -1)):
            word, tgt = X.face((EMPTY, s), i)
            if word == EMPTY:   # a degenerate edge contributes nothing
                row[column[tgt.id]] += sign
        rows.append(row)
    generators = len(edges) - len(verts) + 1
    rank_rel = _matrix_rank(rows)
    return {"vertices": len(verts), "edges": len(edges),
            "generators": generators, "relations": len(rows),
            "independent_relations": rank_rel, "rank": generators - rank_rel}


def _matrix_rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    mat, rank = [row[:] for row in rows], 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1   # once every row is a pivot row, no column finds a pivot
    return rank
