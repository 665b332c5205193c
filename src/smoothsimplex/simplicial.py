"""Finite simplicial sets presented by their nondegenerate simplices.

Only nondegenerate simplices are stored; degenerate ones are represented on
demand as ``(word, ref)`` pairs in Eilenberg-Zilber normal form.  Face data
of a nondegenerate simplex may point at a degenerate simplex, hence faces are
stored as ``(word, target_ref)`` pairs as well.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from . import words
from .words import EMPTY, Word


class SimplexRef(NamedTuple):
    """Handle for one nondegenerate simplex of a fixed complex (a tuple, so
    that hashing it, on every index lookup, runs in C)."""

    id: int
    dim: int

    def __repr__(self) -> str:
        return f"<{self.dim}-simplex #{self.id}>"


Simplex = tuple[Word, SimplexRef]
"""A (possibly degenerate) simplex in normal form."""


def simplex_dim(sx: Simplex) -> int:
    word, ref = sx
    return ref.dim + len(word)


class FiniteSimplicialSet:
    """A finite simplicial set with explicit face data.

    ``faces[ref.id][i]`` is the normal form of ``d_i ref`` for a
    nondegenerate ``ref`` of positive dimension.  ``labels`` optionally
    carries presentation data (vertex tuples for subcomplexes of a standard
    simplex); it has no semantic weight beyond reporting and the canonical
    injection of the realization module.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._by_dim: dict[int, list[SimplexRef]] = {}
        self._refs: dict[int, SimplexRef] = {}
        self._faces: dict[int, list[Simplex]] = {}
        self.labels: dict[int, object] = {}
        # derived lookups, dropped whenever a simplex is added
        self._cache: dict[object, object] = {}

    # -- construction ----------------------------------------------------

    def add_simplex(self, dim: int, faces: Optional[list[Simplex]] = None,
                    label: object = None) -> SimplexRef:
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if dim == 0 and faces:
            raise ValueError("a vertex has no faces")
        ref = SimplexRef(len(self._refs), dim)
        if dim > 0:   # the faces are checked before the simplex is registered
            if faces is None or len(faces) != dim + 1:
                raise ValueError(f"a {dim}-simplex needs {dim + 1} faces")
            for i, (word, tgt) in enumerate(faces):
                if self._refs.get(tgt.id) != tgt:
                    raise ValueError(f"face target {tgt} not in complex")
                if word != EMPTY:   # the empty word is always valid
                    words.check_valid(word, tgt.dim)
                if tgt.dim + len(word) != dim - 1:
                    raise ValueError(f"face {i} of {ref} has wrong dimension")
            self._faces[ref.id] = list(faces)
        self._cache.clear()
        self._by_dim.setdefault(dim, []).append(ref)
        self._refs[ref.id] = ref
        if label is not None:
            self.labels[ref.id] = label
        return ref

    # -- basic queries ---------------------------------------------------

    @property
    def dimension(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def nondegenerate(self, dim: Optional[int] = None) -> list[SimplexRef]:
        if dim is None:
            return [r for d in sorted(self._by_dim) for r in self._by_dim[d]]
        return list(self._by_dim.get(dim, []))

    def counts(self) -> list[int]:
        """Number of nondegenerate simplices per dimension, ``[n0, n1, ...]``."""
        if not self._by_dim:
            return []
        return [len(self._by_dim.get(d, [])) for d in range(self.dimension + 1)]

    def ref(self, ident: int) -> SimplexRef:
        return self._refs[ident]

    def __contains__(self, ref: SimplexRef) -> bool:
        return self._refs.get(ref.id) == ref

    def face(self, sx: Simplex, i: int) -> Simplex:
        """``d_i`` of a simplex in normal form: the stored face of a
        nondegenerate one, else a rewrite of the word."""
        word, ref = sx
        n = ref.dim + len(word)
        if type(i) is not int:
            raise ValueError(f"face index {i!r:.60} is not an int")
        if n == 0:
            raise ValueError("a vertex has no faces")
        if not 0 <= i <= n:
            raise ValueError(f"face index {i} out of range for dimension {n}")
        if not word:
            return self._faces[ref.id][i]
        word1, residual = words.prepend_face(i, word)
        if residual is None:
            return (word1, ref)
        inner_word, target = self._faces[ref.id][residual]
        return (words.concat(word1, inner_word), target)

    def degeneracy(self, sx: Simplex, j: int) -> Simplex:
        word, ref = sx
        n = simplex_dim(sx)
        if type(j) is not int:
            raise ValueError(f"degeneracy index {j!r:.60} is not an int")
        if not 0 <= j <= n:
            raise ValueError(f"degeneracy index {j} out of range")
        return (words.prepend_degeneracy(j, word), ref)

    def _cached(self, key: object, build: Callable[..., object], *args):
        """``build(*args)``, kept until :meth:`add_simplex` grows the complex
        (a hot reader tries ``self._cache.get(key)`` first: one lookup)."""
        if key not in self._cache:
            self._cache[key] = build(*args)
        return self._cache[key]

    def faces_index(self, n: int) -> tuple[dict[Simplex, tuple[Simplex, ...]],
                                           dict[tuple[Simplex, ...], list[Simplex]]]:
        """``(faces_of, with_faces)`` for the ``n``-simplices, degenerate ones
        included: ``faces_of[z]`` is ``(d_0 z, ..., d_n z)`` (``()`` for a
        vertex), and ``with_faces[t]`` lists the simplices whose faces are
        ``t``, in :meth:`simplices` order."""
        return (self._cache.get(("faces", n))
                or self._cached(("faces", n), self._index_faces, n))

    def _index_faces(self, n: int) -> tuple[dict, dict]:
        faces_of: dict[Simplex, tuple[Simplex, ...]] = {}
        with_faces: dict[tuple[Simplex, ...], list[Simplex]] = {}
        for z in self.simplices(n):
            t = tuple(self.face(z, i) for i in range(n + 1)) if n else ()
            faces_of[z] = t
            with_faces.setdefault(t, []).append(z)
        return faces_of, with_faces

    def horn_index(self, n: int, k: Optional[int]
                   ) -> dict[tuple[Simplex, ...], list[Simplex]]:
        """The ``n``-simplices by their faces other than ``d_k``: the fillers
        of each ``Λ[n,k]``-shaped horn, in the order a search that fills
        ``d_k`` first meets them (by ``d_k`` in ``simplices(n - 1)`` order,
        then in :meth:`simplices` order).  For ``k`` None, by all their
        faces: ``faces_index(n)[1]``."""
        if k is None:
            return self.faces_index(n)[1]
        return (self._cache.get(("horn", n, k))
                or self._cached(("horn", n, k), self._index_horns, n, k))

    def _index_horns(self, n: int, k: int) -> dict:
        rank = {y: i for i, y in enumerate(self.faces_index(n - 1)[0])}
        out: dict[tuple[Simplex, ...], list[Simplex]] = {}
        for z, t in sorted(self.faces_index(n)[0].items(),
                           key=lambda zt: rank[zt[1][k]]):
            out.setdefault(t[:k] + t[k + 1:], []).append(z)
        return out

    def simplices(self, n: int) -> Iterator[Simplex]:
        """All ``n``-simplices, degenerate ones included, in a fixed order."""
        for m in range(n + 1):
            for ref in self._by_dim.get(m, []):
                for word in words.words_of_length(n - m, n):
                    yield (word, ref)

    def vertices_of(self, sx: Simplex) -> tuple[Simplex, ...]:
        """The ordered vertex list of a simplex, as 0-simplices."""
        return tuple((EMPTY, self.ref(v))
                     for v in _vertex_ids(sx, _cell_vertices(self)))

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check the simplicial identities d_i d_j = d_{j-1} d_i (i < j)."""
        for dim in sorted(self._by_dim):
            if dim < 2:
                continue
            for ref in self._by_dim[dim]:
                sx: Simplex = (EMPTY, ref)
                for j in range(1, dim + 1):
                    for i in range(j):
                        lhs = self.face(self.face(sx, j), i)
                        rhs = self.face(self.face(sx, i), j - 1)
                        if lhs != rhs:
                            raise ValueError(
                                f"simplicial identity fails on {ref}: "
                                f"d_{i} d_{j} = {lhs} != {rhs} = d_{j-1} d_{i}")

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        dims = [[r.id for r in self._by_dim.get(d, [])]
                for d in range(self.dimension + 1)]
        faces = {
            str(ident): [[list(word), tgt.id] for word, tgt in fl]
            for ident, fl in sorted(self._faces.items())
        }
        return {"dims": dims, "faces": faces}

    @classmethod
    def from_json_dict(cls, data: dict, name: str = "") -> "FiniteSimplicialSet":
        if not isinstance(data, dict) or not isinstance(data.get("dims"), list):
            raise ValueError('a complex must be a JSON object with a "dims" list')
        faces = data.get("faces", {})
        if not isinstance(faces, dict):
            raise ValueError('"faces" of a complex must be a JSON object')
        out = cls(name)
        id_map: dict[int, SimplexRef] = {}
        faces_raw = {_id_key(k): v for k, v in faces.items()}
        for dim, ids in enumerate(data["dims"]):
            if not isinstance(ids, list) or not all(type(i) is int for i in ids):
                raise ValueError(f'"dims"[{dim}] must be a list of simplex ids')
            for ident in ids:
                if ident in id_map:
                    raise ValueError(f"simplex id {ident} is listed twice")
                # a vertex's entry, if any, goes to add_simplex, which
                # rejects a non-empty one
                face_list = faces_raw.get(ident, [] if dim == 0 else None)
                if not isinstance(face_list, list):
                    raise ValueError(f"simplex {ident} needs a list of faces")
                id_map[ident] = out.add_simplex(
                    dim, [_simplex_from_json(e, id_map) for e in face_list])
        unknown = faces_raw.keys() - id_map.keys()
        if unknown:
            raise ValueError(f'"faces" names simplex {min(unknown)}, not in "dims"')
        out.validate()
        return out


class SimplicialMap:
    """A simplicial map, stored on nondegenerate simplices of the source."""

    def __init__(self, source: FiniteSimplicialSet, target: FiniteSimplicialSet,
                 assignment: dict[int, Simplex]) -> None:
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def __call__(self, sx: Simplex) -> Simplex:
        word, ref = sx
        if not word:
            return self.assignment[ref.id]
        inner_word, tgt = self.assignment[ref.id]
        return (words.concat(word, inner_word), tgt)

    def validate(self) -> None:
        extra = self.assignment.keys() - self.source._refs.keys()
        if extra:
            raise ValueError(f"assignment for id {min(extra)}, not a source cell")
        for ref in self.source.nondegenerate():
            if ref.id not in self.assignment:
                raise ValueError(f"no assignment for {ref}")
            img = self.assignment[ref.id]
            if simplex_dim(img) != ref.dim:
                raise ValueError(f"assignment for {ref} has wrong dimension")
            if img[1] not in self.target:
                raise ValueError(f"assignment for {ref} leaves the target")
            words.check_valid(img[0], img[1].dim)
        for ref in self.source.nondegenerate():
            for i, face in enumerate(self.source._faces.get(ref.id, ())):
                if self.target.face(self.assignment[ref.id], i) != self(face):
                    raise ValueError(f"map does not commute with d_{i} on {ref}")

    def is_injective(self) -> bool:
        seen = set()
        for ref in self.source.nondegenerate():
            img = self.assignment[ref.id]
            if img in seen:
                return False
            seen.add(img)
        return True

    def is_subcomplex_inclusion(self) -> bool:
        """True when every nondegenerate simplex maps to a distinct
        nondegenerate simplex (empty word)."""
        return self.is_injective() and all(
            word == EMPTY for word, _ in self.assignment.values())

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """``self ∘ other``."""
        if other.target is not self.source:
            raise ValueError("maps are not composable")
        assignment = {
            ref.id: self(other.assignment[ref.id])
            for ref in other.source.nondegenerate()
        }
        return SimplicialMap(other.source, self.target, assignment)

    @classmethod
    def identity(cls, X: FiniteSimplicialSet) -> "SimplicialMap":
        return cls(X, X, {r.id: (EMPTY, r) for r in X.nondegenerate()})

    def to_json_dict(self) -> dict:
        return {"assignment": {
            str(i): [list(word), tgt.id]
            for i, (word, tgt) in sorted(self.assignment.items())}}

    @classmethod
    def from_json_dict(cls, data: dict, source: FiniteSimplicialSet,
                       target: FiniteSimplicialSet) -> "SimplicialMap":
        raw = data.get("assignment") if isinstance(data, dict) else None
        if not isinstance(raw, dict):
            raise ValueError('a map must be a JSON object with an "assignment" object')
        assignment = {_id_key(k): _simplex_from_json(v, target._refs)
                      for k, v in raw.items()}
        out = cls(source, target, assignment)
        out.validate()
        return out


def _id_key(key: str) -> int:
    """The simplex id a JSON key names; only ``str(id)`` is read, one key per id."""
    if key != str(ident := int(key)):
        raise ValueError(f"JSON key {key!r:.60} is not a simplex id")
    return ident


def _simplex_from_json(entry: object, refs: dict[int, SimplexRef]) -> Simplex:
    """A ``[word, simplex id]`` pair as a simplex over ``refs``."""
    if not (isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], list) and all(type(j) is int for j in entry[0])
            and type(entry[1]) is int and entry[1] in refs):
        raise ValueError(f"expected [word, known simplex id], got {entry!r:.60}")
    return (tuple(entry[0]), refs[entry[1]])


# -- standard complexes ---------------------------------------------------


def _complex_of_tuples(name: str, tuples) -> FiniteSimplicialSet:
    """One nondegenerate simplex per vertex tuple, labelled by it, with
    ``d_i`` dropping the ``i``-th vertex; ``tuples`` come faces first."""
    X = FiniteSimplicialSet(name)
    by_verts: dict[tuple[int, ...], SimplexRef] = {}
    for verts in tuples:
        k = len(verts) - 1
        faces = [(EMPTY, by_verts[verts[:i] + verts[i + 1:]])
                 for i in range(k + 1)] if k else None
        by_verts[verts] = X.add_simplex(k, faces, label=verts)
    return X


def standard_simplicial_set(p: int) -> FiniteSimplicialSet:
    """The standard simplex ``Δ[p]``; nondegenerate k-simplices are the
    strictly increasing (k+1)-subsequences of ``{0, ..., p}``."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    return _complex_of_tuples(f"Delta[{p}]", (
        verts for k in range(p + 1) for verts in combinations(range(p + 1), k + 1)))


def vertex_ref(X: FiniteSimplicialSet, verts: tuple[int, ...]) -> SimplexRef:
    """Look up a simplex of a vertex-labelled complex by its vertex tuple."""
    def build() -> dict[object, SimplexRef]:
        by_label: dict[object, SimplexRef] = {}
        for ident, label in X.labels.items():
            by_label.setdefault(label, X.ref(ident))
        return by_label
    return X._cached("labels", build)[verts]


def _sub_of_standard(p: int, keep: Callable[[tuple[int, ...]], bool],
                     name: str) -> tuple[FiniteSimplicialSet, SimplicialMap]:
    """Subcomplex of ``Δ[p]`` spanned by the vertex tuples accepted by
    ``keep``, plus its inclusion."""
    ambient = standard_simplicial_set(p)
    kept = [r for r in ambient.nondegenerate() if keep(ambient.labels[r.id])]
    X = _complex_of_tuples(name, (ambient.labels[r.id] for r in kept))
    # kept is in dimension order, so X lists its simplices in the same order
    assignment = {new.id: (EMPTY, r) for new, r in zip(X.nondegenerate(), kept)}
    return X, SimplicialMap(X, ambient, assignment)


def boundary_complex(p: int) -> tuple[FiniteSimplicialSet, SimplicialMap]:
    """``∂Δ[p]`` with its inclusion; for p = 0 the boundary is empty."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p == 0:
        empty = FiniteSimplicialSet("Boundary[0]")
        return empty, SimplicialMap(empty, standard_simplicial_set(0), {})
    return _sub_of_standard(p, lambda v: len(v) <= p, f"Boundary[{p}]")


def horn_complex(p: int, k: int) -> tuple[FiniteSimplicialSet, SimplicialMap]:
    """``Λ[p, k]``: all proper faces except the one opposite vertex ``k``."""
    if p < 1:
        raise ValueError("horns need p >= 1")
    if not 0 <= k <= p:
        raise ValueError(f"horn index {k} out of range")
    missing = set(i for i in range(p + 1) if i != k)

    # faces of the horn: proper faces not containing the facet opposite k
    def keep(v: tuple[int, ...]) -> bool:
        return len(v) <= p and not missing <= set(v)

    return _sub_of_standard(p, keep, f"Horn[{p},{k}]")


def enumerate_simplices(X: FiniteSimplicialSet, n: int) -> list[Simplex]:
    """All ``n``-simplices of ``X`` including degenerate ones."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(X.simplices(n))


# -- colimits --------------------------------------------------------------


def _extend_by_copy(m: SimplicialMap, ref: SimplexRef) -> None:
    """Add a copy of ``ref`` to ``m.target``, its faces pushed through ``m``,
    and map ``ref`` to it."""
    faces = [m(face) for face in m.source._faces.get(ref.id, ())]
    m.assignment[ref.id] = (EMPTY, m.target.add_simplex(
        ref.dim, faces, label=m.source.labels.get(ref.id)))


def _glue(B: FiniteSimplicialSet,
          spans: list[tuple[SimplicialMap, SimplicialMap]], name: str
          ) -> tuple[FiniteSimplicialSet, list[SimplicialMap],
                     list[tuple[int, SimplexRef]]]:
    """Glue ``B`` along spans ``(f_i : A_i ↪ X_i, g_i : A_i → B)``, each
    ``f_i`` a subcomplex inclusion, with the ids of one :func:`pushout` per
    span in turn.  Returns ``(P, legs, order)``: ``legs`` are ``B → P`` and
    then each ``X_i → P``, and cell c of ``P`` copies cell ``order[c][1]`` of
    the source of ``legs[order[c][0]]``."""
    P = FiniteSimplicialSet(name)
    legs, to_b, cells = [SimplicialMap(B, P, {})], [{}], []
    for i, (f, g) in enumerate(spans, 1):
        legs.append(SimplicialMap(f.target, P, {}))
        to_b.append({t.id: g.assignment[a] for a, (_, t) in f.assignment.items()})
        cells.append([(i, r) for r in f.target.nondegenerate()])
    order = []
    # Each pushout copies the complex it extends in nondegenerate() order:
    # B's cells and those of spans 1..m-1 stably sorted by dimension, then
    # those of span m.  A cell of X_i on A_i goes where g_i sends it, to a
    # cell of B of no higher dimension, which is copied before it.
    for i, ref in sorted(chain([(0, r) for r in B.nondegenerate()], *cells[:-1]),
                         key=lambda cell: cell[1].dim) + cells[-1]:
        if ref.id in to_b[i]:
            legs[i].assignment[ref.id] = legs[0](to_b[i][ref.id])
        else:
            _extend_by_copy(legs[i], ref)
            order.append((i, ref))
    return P, legs, order


def pushout(f: SimplicialMap, g: SimplicialMap
            ) -> tuple[FiniteSimplicialSet, SimplicialMap, SimplicialMap]:
    """Pushout of ``X ←f− A −g→ B`` where ``f`` is a subcomplex inclusion.

    Returns ``(P, in_X, in_B)``.  Nondegenerate simplices of ``P`` are those
    of ``X`` not hit by ``f`` together with those of ``B``; general
    coequalizers are out of scope.
    """
    if f.source is not g.source:
        raise ValueError("pushout legs must share their source")
    if not f.is_subcomplex_inclusion():
        raise ValueError("first leg must be a subcomplex inclusion")
    P, (in_b, in_x), _ = _glue(g.target, [(f, g)], f"{f.target.name}∪{g.target.name}")
    return P, in_x, in_b


def cone(L: FiniteSimplicialSet) -> tuple[FiniteSimplicialSet, SimplicialMap,
                                          SimplexRef]:
    """The cone on ``L``: apex, a copy of ``L``, and one (n+1)-cell per
    nondegenerate n-cell, with the apex at vertex 0.

    Returns ``(CL, base_inclusion, apex)``.
    """
    C = FiniteSimplicialSet(f"Cone({L.name})")
    apex = C.add_simplex(0, label="apex")
    incl, lifted = SimplicialMap(L, C, {}), SimplicialMap(L, C, {})
    for ref in L.nondegenerate():
        _extend_by_copy(incl, ref)
    for ref in L.nondegenerate():
        # lifted sends a cell x of L to its cone c(x), and c(s_j x) = s_{j+1} c(x)
        faces = [lifted((tuple(j + 1 for j in w), f)) for w, f in L._faces.get(ref.id, ())]
        lifted.assignment[ref.id] = (EMPTY, C.add_simplex(
            ref.dim + 1, [incl.assignment[ref.id]] + (faces or [(EMPTY, apex)])))
    return C, incl, apex


# -- map enumeration and bounded Kan checks --------------------------------


def _levels(A: FiniteSimplicialSet, by_vertex: bool) -> list[tuple]:
    """The map search's levels ``(ref, face ids, follow)``: one per cell in
    ``nondegenerate()`` order, with the ids of its faces (None when a face
    carries a degeneracy word), or with ``by_vertex`` one per vertex, which
    follows the cells whose last vertex it is, as ``(id, dim, vertex ids
    getter)``: ``v0; v1: e01; v2: e02, e12, t012; ...``, faces first.

    A vertex level's ``face ids`` are its anchor: ``(u, side, e)`` for the
    first non-loop edge ``e`` joining it to ``u``, its latest earlier
    neighbour, with ``side`` 0 for an edge ``u → v`` and 1 for ``v → u``;
    ``()`` for none.  The anchor edge takes its image with the vertex's,
    drawn from the adjacency lists of :func:`_plan`, so it is not in
    ``follow``."""
    if not by_vertex:
        return [(ref, None if any(w for w, _ in A._faces.get(ref.id, ()))
                 else tuple(t.id for _, t in A._faces.get(ref.id, ())), ())
                for ref in A.nondegenerate()]
    verts, levels = _cell_vertices(A), []
    # vertex ids grow in nondegenerate() order; the cells are in dimension
    # order, and the sort is stable
    for ref in sorted(A.nondegenerate(), key=lambda r: max(verts[r.id])):
        if not ref.dim:
            levels.append([ref, (), []])
            continue
        level, vs = levels[-1], verts[ref.id]
        level[2].append((ref.id, ref.dim, itemgetter(*vs)))
        # vertex ids grow in the level order, so u is the smaller end
        if ref.dim == 1 and vs[0] != vs[1] and (min(vs),) > level[1][:1]:
            level[1] = (min(vs), int(vs[0] > vs[1]), ref.id)
    return [(ref, anchor, [c for c in follow if c[0] not in anchor[2:]])
            for ref, anchor, follow in levels]


def _vertex_ids(sx: Simplex, verts: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The vertex ids of ``sx``, given those of each cell in ``verts``."""
    word, ref = sx
    out = verts[ref.id]
    for j in reversed(word):   # s_j repeats vertex j
        out = out[:j + 1] + out[j:]
    return out


def _cell_vertices(X: FiniteSimplicialSet) -> dict[int, tuple[int, ...]]:
    """The vertex ids of each nondegenerate simplex of ``X``: those of
    ``d_n`` of it and the last one of ``d_0``."""
    def build():
        verts: dict[int, tuple[int, ...]] = {}
        for ref in X.nondegenerate():   # faces first
            faces = X._faces.get(ref.id)
            verts[ref.id] = (_vertex_ids(faces[-1], verts)
                             + _vertex_ids(faces[0], verts)[-1:] if faces else (ref.id,))
        return verts
    return X._cached("cell vertices", build)


def _plan(X: FiniteSimplicialSet, d: int) -> tuple:
    """The map search's indexes of ``X`` for sources of dimension ``d``,
    ``(by_vertex, index, by_verts, ends)``, built here alone.  ``by_verts[n]``
    files the keys of ``X.faces_index(n)[0]``, the ``n``-simplices,
    degenerate ones included, by their vertex ids.  ``by_vertex`` is True when ``X``
    is vertex-determined in dimensions 1 to ``d``: no two ``n``-simplices
    share a vertex tuple.  Then ``index`` is ``[X.faces_index(0)[1]]`` and,
    for ``d > 0``, ``ends`` is ``(heads, tails)``: by vertex id, ``(y, e)``
    for each edge ``e`` from it and to it, ``y`` the vertex at its other end,
    in ``X``'s vertex order.  Else the search branches over the face indexes
    ``index[n] = X.faces_index(n)[1]``, ``n <= d``, and reads nothing else."""
    verts, by_verts = _cell_vertices(X), []
    for n in range(d + 1):
        faces_of = X.faces_index(n)[0]
        by_verts.append({_vertex_ids(z, verts): z for z in faces_of})
        if len(by_verts[n]) < len(faces_of):
            return False, [X.faces_index(m)[1] for m in range(d + 1)], (), ()
    ends = ({}, {}) if d > 0 else ()
    for (a, b), e in sorted(by_verts[1].items()) if ends else ():
        ends[0].setdefault(a, []).append((by_verts[0][b,], e))
        ends[1].setdefault(b, []).append((by_verts[0][a,], e))
    return True, [X.faces_index(0)[1]], by_verts, ends


def enumerate_maps(A: FiniteSimplicialSet, X: FiniteSimplicialSet
                   ) -> Iterator[SimplicialMap]:
    """All simplicial maps ``A → X``, lazily, by backtracking on an explicit
    stack (no recursion limit on ``A``).

    It branches on the levels of :func:`_levels`, each over the simplices of
    ``X`` with the images of its faces (``X.faces_index``): on the vertices
    of ``A`` when ``X`` is vertex-determined in dimensions 1 to
    ``A.dimension``, else on the cells in ``nondegenerate()`` order.  Once a
    vertex has an image, each cell whose last vertex it is takes the one
    simplex of ``X`` with its vertices' images (the plan's vertex-tuple
    index, over the simplices ``X.faces_index`` holds), and a cell with none
    rejects it.  A vertex with an anchor edge to an earlier vertex ``u``
    (:func:`_levels`) draws its images, each with the anchor edge's, from
    the edges of ``X`` at ``u``'s image on that side (the plan's adjacency
    lists): a subsequence of ``X``'s vertices in their order that drops only
    images the anchor edge's lookup would reject, and the edge that lookup
    would find.

    The indexes come from one :func:`_plan` per ``(X, A.dimension)``, kept on
    ``X``, and the levels are kept on ``A``: each costs one lookup when kept.
    Either way the maps come out ordered by their images of the cells in
    ``A.nondegenerate()`` order, each cell's images in index order: in the
    first case a map is fixed by its images of the vertices, which come
    first in that order.
    """
    d = A.dimension
    by_vertex, index, by_verts, ends = (X._cache.get(("plan", d))
                                        or X._cached(("plan", d), _plan, X, d))
    levels = (A._cache.get(("levels", by_vertex))
              or A._cached(("levels", by_vertex), _levels, A, by_vertex))
    partial = SimplicialMap(A, X, {})
    image = partial.assignment
    vertex_ids = [0] * len(A._refs)   # by cell id: the id of its image's ref

    # stack[i] holds the untried images of levels[i], whose current image is
    # in the assignment.  Entries for cells past the stack are left over from
    # abandoned branches; they are overwritten before anything reads them.
    stack: list[Iterator] = []
    while True:
        if len(stack) == len(levels):
            yield SimplicialMap(A, X, image)
        else:
            ref, ids, _ = levels[len(stack)]
            if by_vertex and ids:   # the anchor's image's edges and their ends
                xs = ends[ids[1]][vertex_ids[ids[0]]]
            else:
                faces = (tuple(map(image.__getitem__, ids)) if ids is not None
                         else tuple(map(partial, A._faces[ref.id])))
                xs = index[ref.dim].get(faces, ())
            stack.append(iter(xs))
        while stack:   # the deepest level with an untried image takes it
            img = next(stack[-1], None)
            if img is None:
                stack.pop()
                continue
            ref, ids, follow = levels[len(stack) - 1]
            if by_vertex and ids:   # a vertex and its anchor edge's image
                img, image[ids[2]] = img
            image[ref.id] = img
            vertex_ids[ref.id] = img[1].id
            for cell, dim, vertices in follow:
                z = by_verts[dim].get(vertices(vertex_ids))
                if z is None:
                    break
                image[cell] = z
            else:
                break
        else:
            return


def _facet_ids(A: FiniteSimplicialSet, p: int, k: Optional[int]) -> tuple[int, ...]:
    """The ids of the cells of ``A``, a vertex-labelled subcomplex of
    ``Δ[p]``, on the facets ``d_i`` of ``Δ[p]`` with ``i ≠ k``, by ``i``."""
    key = ("facets", p, k)
    return A._cache.get(key) or A._cached(key, lambda: tuple(
        vertex_ref(A, tuple(j for j in range(p + 1) if j != i)).id
        for i in range(p + 1) if p and i != k))


def horn_fillers(X: FiniteSimplicialSet, horn_map: SimplicialMap,
                 p: int, k: int) -> list[Simplex]:
    """All p-simplices of ``X`` filling a horn map ``Λ[p,k] → X``, in
    :func:`enumerate_maps` order.  The list is the horn index's own (a new
    empty one when there are none), so callers must not change it."""
    faces = map(horn_map.assignment.__getitem__, _facet_ids(horn_map.source, p, k))
    return X.horn_index(p, k).get(tuple(faces), [])


class _Frozen(FiniteSimplicialSet):
    """A complex shared by every caller, which nothing may grow."""

    def add_simplex(self, *args, **kwargs) -> SimplexRef:
        raise ValueError(f"{self.name} is shared and cannot grow")


@cache
def _shared(p: int, k: Optional[int]) -> tuple[FiniteSimplicialSet, SimplicialMap]:
    """:func:`horn_complex` (:func:`boundary_complex` for ``k`` None) built
    once per ``(p, k)`` and shared, with the lookups cached on it.  Both
    complexes are frozen: gluing and cones add cells only to the complexes
    they create.  This is the one place that freezes a complex."""
    A, incl = boundary_complex(p) if k is None else horn_complex(p, k)
    A.__class__ = incl.target.__class__ = _Frozen
    return A, incl


def is_kan_up_to(X: FiniteSimplicialSet, n_max: int) -> list[dict]:
    """For every horn map ``Λ[p,k] → X`` with p <= n_max, report whether an
    extension to ``Δ[p]`` exists (brute force)."""
    report = []
    for p in range(1, n_max + 1):
        for k in range(p + 1):
            A, _ = _shared(p, k)
            total = 0
            unfilled = 0
            witness = None
            for hm in enumerate_maps(A, X):
                total += 1
                if not horn_fillers(X, hm, p, k):
                    unfilled += 1
                    if witness is None:
                        witness = hm.to_json_dict()
            report.append({
                "p": p, "k": k, "maps": total, "unfillable": unfilled,
                "fillable": unfilled == 0, "witness": witness,
            })
    return report
