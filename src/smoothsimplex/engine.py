"""Lifting-property checks, bounded gluing factorizations, numeric horn
filling, and elementary homotopy invariants of finite simplicial sets.

The gluing factorization computes the finite stages ``G^n`` of the
infinite construction; non-termination is expected (each glued cell can
create new unsolved problems) and is reported honestly through the
residual-problem lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Optional

from .geometry import Bary
from .homotopy import build_full_horn_deformation
from .simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    Simplex,
    SimplexRef,
    SimplicialMap,
    boundary_complex,
    enumerate_maps,
    horn_complex,
    pushout,
)


@dataclass(frozen=True)
class Generator:
    """One generating inclusion: ``∂Δ[p] ↪ Δ[p]`` or ``Λ[p,k] ↪ Δ[p]``."""

    kind: str
    p: int
    k: Optional[int]
    incl: SimplicialMap = field(compare=False)

    @property
    def name(self) -> str:
        if self.kind == "I":
            return f"I({self.p})"
        return f"J({self.p},{self.k})"

    def pins(self, m: SimplicialMap) -> dict[int, Simplex]:
        """The pins of a map out of ``Δ[p]`` extending ``m`` (a map out of
        the generator's source): ``m``'s image of each source cell, keyed by
        the cell's id in ``Δ[p]``."""
        # boundary_complex and horn_complex build subcomplex inclusions, so
        # every source cell goes to a nondegenerate cell of Δ[p]
        return {tgt.id: m.assignment[a]
                for a, (_, tgt) in self.incl.assignment.items()}


@dataclass(frozen=True)
class GeneratingSet:
    """The generating cofibrations ``I`` or trivial cofibrations ``J``,
    truncated at ``max_dim``."""

    kind: str
    max_dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("I", "J"):
            raise ValueError("kind must be 'I' or 'J'")
        if self.max_dim < 0:
            raise ValueError("max_dim must be nonnegative")

    def generators(self) -> list[Generator]:
        out = []
        if self.kind == "I":
            for p in range(self.max_dim + 1):
                _, incl = boundary_complex(p)
                out.append(Generator("I", p, None, incl))
        else:
            for p in range(1, self.max_dim + 1):
                for k in range(p + 1):
                    _, incl = horn_complex(p, k)
                    out.append(Generator("J", p, k, incl))
        return out


@dataclass
class LiftingProblem:
    """A commutative square from a generator to ``f``."""

    generator: Generator
    top: SimplicialMap       # A -> X
    bottom: SimplicialMap    # B -> Y
    f: SimplicialMap         # X -> Y

    def lifts(self, limit: Optional[int] = 1) -> list[SimplicialMap]:
        """The first ``limit`` (all for ``None``) diagonal fillers
        ``B -> X``, commuting on both triangles."""
        def over_bottom(ref: SimplexRef, img: Simplex) -> bool:
            return self.f(img) == self.bottom.assignment[ref.id]

        return list(islice(enumerate_maps(
            self.generator.incl.target, self.f.source,
            pinned=self.generator.pins(self.top), cell_filter=over_bottom), limit))

    def has_lift(self) -> bool:
        return bool(self.lifts(limit=1))

    def to_json_dict(self) -> dict:
        return {"generator": self.generator.name,
                "top": self.top.to_json_dict(),
                "bottom": self.bottom.to_json_dict()}


def iter_lifting_problems(f: SimplicialMap, gens: GeneratingSet
                          ) -> Iterator[LiftingProblem]:
    """All commutative squares from the generating set to ``f``, in a fixed
    lexicographic order (generator, top map, bottom map)."""
    for gen in gens.generators():
        for top in enumerate_maps(gen.incl.source, f.source):
            for bottom in enumerate_maps(gen.incl.target, f.target,
                                         pinned=gen.pins(f.compose(top))):
                yield LiftingProblem(gen, top, bottom, f)


@dataclass
class RLPReport:
    gens: GeneratingSet
    checked: int
    failures: list[LiftingProblem]

    @property
    def has_rlp(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"kind": self.gens.kind, "max_dim": self.gens.max_dim,
                "checked": self.checked,
                "failing": [p.to_json_dict() for p in self.failures]}


def rlp_check(f: SimplicialMap, gens: GeneratingSet) -> RLPReport:
    """Brute-force right-lifting-property check of ``f`` against the
    generating set, with every failing square reported."""
    failures = []
    checked = 0
    for prob in iter_lifting_problems(f, gens):
        checked += 1
        if not prob.has_lift():
            failures.append(prob)
    return RLPReport(gens, checked, failures)


# -- bounded gluing factorization ---------------------------------------------


@dataclass
class FactorizationStage:
    n: int
    complex: FiniteSimplicialSet
    attached: int
    j: SimplicialMap          # X -> G^n, a subcomplex inclusion
    q: SimplicialMap          # G^n -> Y with q ∘ j = f
    residual: list[LiftingProblem]
    birth: dict[int, int]     # cell id -> stage that created it

    def to_json_dict(self) -> dict:
        return {"stage": self.n, "attached": self.attached,
                "cells": sum(self.complex.counts()),
                "residual_problems": [p.to_json_dict() for p in self.residual]}


def igc_factor(f: SimplicialMap, gens: GeneratingSet, max_stages: int,
               max_problems: Optional[int] = None) -> list[FactorizationStage]:
    """Finite stages of the gluing factorization of ``f`` through cells of
    the generating set.

    Stage ``n+1`` attaches one cell per unsolved lifting problem of ``q_n``.
    The run stops early once ``q_n`` has the right lifting property up to
    the generating set's dimension bound; otherwise the last stage carries
    the still-unsolved problems.
    """
    if max_stages < 0:
        raise ValueError("max_stages must be nonnegative")

    def unsolved(q: SimplicialMap) -> list[LiftingProblem]:
        return list(islice((prob for prob in iter_lifting_problems(q, gens)
                            if not prob.has_lift()), max_problems))

    birth = {r.id: 0 for r in f.source.nondegenerate()}
    stages = [FactorizationStage(0, f.source, 0, SimplicialMap.identity(f.source),
                                 f, unsolved(f), birth)]
    for n in range(1, max_stages + 1):
        prev = stages[-1]
        if not prev.residual:
            break
        # One pushout per problem, in order (its ids are the stage's ids).
        # q and birth are carried through each one: moved to the new ids of
        # the old cells, then extended by the new cell, which q sends where
        # the problem's bottom map does.
        emb = SimplicialMap.identity(prev.complex)
        q, birth = prev.q.assignment, prev.birth
        for prob in prev.residual:
            _, in_cell, in_old = pushout(prob.generator.incl, emb.compose(prob.top))
            emb = in_old.compose(emb)
            moved = {i: tgt.id for i, (_, tgt) in in_old.assignment.items()}
            q = {moved[i]: img for i, img in q.items()}
            birth = {moved[i]: s for i, s in birth.items()}
            for r, (word, tgt) in in_cell.assignment.items():
                if word == EMPTY and tgt.id not in q:
                    q[tgt.id] = prob.bottom.assignment[r]
                    birth[tgt.id] = n
        q_n = SimplicialMap(emb.target, f.target, q, name=f"q_{n}")
        q_n.validate()
        stages.append(FactorizationStage(
            n, emb.target, len(birth) - len(prev.birth), emb.compose(prev.j), q_n,
            unsolved(q_n), birth))
    return stages


def factors_through_stage(stages: list[FactorizationStage],
                          m: SimplicialMap) -> int:
    """Least stage of a gluing tower that a map into its top complex factors
    through (possible for every map from a finite complex)."""
    top = stages[-1]
    if m.target is not top.complex:
        raise ValueError("map does not land in the tower's top stage")
    needed = 0
    for r in m.source.nondegenerate():
        _, tgt = m.assignment[r.id]
        needed = max(needed, top.birth[tgt.id])
    return needed


# -- numeric horn filling -------------------------------------------------------


@dataclass
class FilledMap:
    """Extension of a map on a realized horn to the whole simplex, obtained
    by precomposing with the deformation retraction at time one."""

    p: int
    k: int
    original: Callable[[Bary], object]
    retraction: Callable[[object], Bary]

    def __call__(self, z) -> object:
        return self.original(self.retraction(z))


def fill_horn_numeric(g: Callable[[Bary], object], p: int, k: int) -> FilledMap:
    """Fill ``g : Λ^p_k -> X`` to all of Δ^p through the smooth retraction;
    the restriction back to the horn reproduces ``g``."""
    H = build_full_horn_deformation(p, k)
    return FilledMap(p, k, g, H.at_time(1.0))


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
    if not rows or not rows[0]:
        return 0
    mat = [row[:] for row in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
