import math
import random
import re
from itertools import combinations, combinations_with_replacement, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from smoothsimplex import words
from smoothsimplex.cli import named_map
from smoothsimplex.engine import GeneratingSet, igc_factor
from smoothsimplex.simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary_complex,
    cone,
    enumerate_maps,
    enumerate_simplices,
    horn_complex,
    horn_fillers,
    is_kan_up_to,
    pushout,
    standard_simplicial_set,
    vertex_ref,
)
from smoothsimplex.simplicial import _levels, _plan


# -- independent oracles ----------------------------------------------------

def brute_monotone_maps(n, p):
    """All monotone maps [n] -> [p], the n-simplices of Delta[p]."""
    out = []

    def rec(prefix):
        if len(prefix) == n + 1:
            out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, p + 1):
            rec(prefix + [v])

    rec([])
    return out


def oracle_horn_counts(p, k):
    """Face counts of Λ[p,k] by direct enumeration of vertex subsets."""
    missing = set(range(p + 1)) - {k}
    counts = [0] * p
    for size in range(1, p + 1):
        for verts in _subsets(range(p + 1), size):
            if not missing <= set(verts):
                counts[size - 1] += 1
    return counts


def _subsets(pool, size):
    from itertools import combinations
    return combinations(pool, size)


# -- word algebra -----------------------------------------------------------

@given(st.lists(st.integers(0, 6), min_size=0, max_size=4),
       st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_prepend_degeneracy_keeps_normal_form(raw, i):
    word = tuple(sorted(set(raw), reverse=True))
    out = words.prepend_degeneracy(i, word)
    assert words.is_normal(out)
    assert len(out) == len(word) + 1


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4),
       st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_prepend_face_output_is_normal(raw, i):
    word = tuple(sorted(set(raw), reverse=True))
    out, residual = words.prepend_face(i, word)
    assert words.is_normal(out)
    if residual is None:
        assert len(out) == len(word) - 1
    else:
        assert len(out) == len(word)


def test_word_count_matches_subset_count():
    # normal words of length r into dimension n are r-subsets of {0..n-1}
    assert len(list(words.words_of_length(2, 4))) == math.comb(4, 2)
    assert list(words.words_of_length(0, 3)) == [()]


def test_known_word_identities():
    # s0 s0 = s1 s0
    assert words.prepend_degeneracy(0, (0,)) == (1, 0)
    # d2 s3 s1 = s2
    assert words.prepend_face(2, (3, 1)) == ((2,), None)
    # d0 s2 s1 = s1 s0 d0
    assert words.prepend_face(0, (2, 1)) == ((1, 0), 0)


def _positions(word, seq):
    """The vertex positions of ``s_word`` of a simplex with vertices
    ``seq``: ``s_j`` repeats position ``j``, innermost letter first."""
    for j in reversed(word):
        seq = seq[:j + 1] + seq[j:]
    return seq


def _normal_words(base_dim, max_len=3):
    """Every normal word of length <= ``max_len`` acting on ``base_dim``:
    the decreasing r-subsets of ``{0, ..., base_dim + r - 1}``."""
    return [tuple(sorted(c, reverse=True))
            for r in range(max_len + 1) for c in combinations(range(base_dim + r), r)]


def _is_word(out):
    return type(out) is tuple and words.is_normal(out) and all(type(j) is int for j in out)


def test_word_algebra_matches_the_vertex_model():
    # an operator is fixed by what it does to the vertex positions 0..m of
    # a generic m-simplex: s_j repeats position j, d_i deletes position i
    words.prepend_face.cache_clear()
    words.concat.cache_clear()
    checked = 0
    for _ in range(2):   # cold caches, then warm
        for m in range(4):
            base = tuple(range(m + 1))
            for word in _normal_words(m):
                seq = _positions(word, base)
                for i in range(len(seq)):
                    out, f = words.prepend_face(i, word)
                    assert _is_word(out)
                    kept = base if f is None else base[:f] + base[f + 1:]
                    assert f is None or (type(f) is int and 0 <= f <= m)
                    assert _positions(out, kept) == seq[:i] + seq[i + 1:], (i, word)
                    out = words.prepend_degeneracy(i, word)
                    assert _is_word(out)
                    assert _positions(out, base) == seq[:i + 1] + seq[i:], (i, word)
                    checked += 2
                for outer in _normal_words(len(seq) - 1):
                    out = words.concat(outer, word)
                    assert _is_word(out)
                    assert _positions(out, base) == _positions(outer, seq), (outer, word)
                    checked += 1
    assert checked > 5000
    assert words.prepend_face.cache_info().hits > 0 and words.concat.cache_info().hits > 0


def _two_vertices():
    X = FiniteSimplicialSet()
    return X, X.add_simplex(0), X.add_simplex(0)


@pytest.mark.parametrize("word", [[0], (0.0,), (False,), [], (1, False), "0"],
                         ids=["list", "float", "bool", "empty-list", "bool-last", "str"])
def test_malformed_words_are_rejected_where_they_enter(word):
    X, u, v = _two_vertices()
    X.add_simplex(1, [(EMPTY, v), (EMPTY, u)])
    before = X.to_json_dict()
    dim = 1 + len(word)
    with pytest.raises(ValueError, match="not a tuple of ints"):
        X.add_simplex(dim, [(word, u)] * (dim + 1))
    assert X.to_json_dict() == before
    X.faces_index(2)   # a list word accepted here made this a TypeError
    # Δ[r] to v, its r-cells to s_{r-1}...s_0 v, the top one to word on v
    D = standard_simplicial_set(len(word))
    assignment = {r.id: (tuple(range(r.dim - 1, -1, -1)), v) for r in D.nondegenerate()}
    assignment[D.nondegenerate()[-1].id] = (word, v)
    with pytest.raises(ValueError, match="not a tuple of ints"):
        SimplicialMap(D, X, assignment).validate()


@pytest.mark.parametrize("index", [False, True, 0.0, 1.0], ids=str)
def test_face_and_degeneracy_take_int_indices(index):
    X = standard_simplicial_set(2)
    top = (EMPTY, X.nondegenerate()[-1])
    with pytest.raises(ValueError, match="is not an int"):
        X.face(top, index)
    with pytest.raises(ValueError, match="is not an int"):
        X.degeneracy(top, index)
    with pytest.raises(ValueError, match="is not an int"):
        X.face(X.degeneracy(top, 0), index)


def test_a_rejected_index_leaves_no_impostor_letter():
    X, u, v = _two_vertices()
    sx = (EMPTY, v)
    with pytest.raises(ValueError):
        X.degeneracy(sx, False)
    word, ref = X.degeneracy(sx, 0)
    assert (word, ref) == ((0,), v) and type(word[0]) is int
    face = X.face((word, ref), 1)
    assert face == (EMPTY, v)
    D1 = standard_simplicial_set(1)
    m = SimplicialMap(D1, X, {0: (EMPTY, v), 1: (EMPTY, v), 2: (word, ref)})
    m.validate()
    letters = [j for w, _ in m.to_json_dict()["assignment"].values() for j in w]
    assert letters == [0] and type(letters[0]) is int


def test_an_unvalidated_map_leaves_no_impostor_letter_in_the_word_cache():
    # a hand-built map is not validated, so its image words reach concat
    # unchecked; concat's cached body checks their letters on a miss, and
    # the miss it rejects caches nothing
    words.concat.cache_clear()
    X, u, v = _two_vertices()
    D1 = standard_simplicial_set(1)
    a, b, edge = D1.nondegenerate()
    to_v = {a.id: (EMPTY, v), b.id: (EMPTY, v)}
    bad = SimplicialMap(D1, X, {**to_v, edge.id: ((False,), v)})
    with pytest.raises(ValueError, match="not a tuple of ints"):
        bad(((1,), edge))
    good = SimplicialMap(D1, X, {**to_v, edge.id: ((0,), v)})
    word, ref = good(((1,), edge))
    assert (word, ref) == ((1, 0), v) and all(type(j) is int for j in word)


@pytest.mark.parametrize("i, word", [(False, (1,)), (1.0, (1,)), (1, (False,)),
                                     (0, (2, True))], ids=repr)
def test_prepend_face_rejects_non_int_letters_on_a_miss(i, word):
    words.prepend_face.cache_clear()
    with pytest.raises(ValueError, match="not an int|not a tuple of ints"):
        words.prepend_face(i, word)
    assert words.prepend_face.cache_info().currsize == 0
    clean = (int(i), tuple(map(int, word)))
    out, f = words.prepend_face(*clean)
    assert _is_word(out) and (f is None or type(f) is int)


# -- standard complexes -----------------------------------------------------

@pytest.mark.parametrize("p,expected", [
    (0, [1]),
    (2, [3, 3, 1]),
    (3, [4, 6, 4, 1]),
])
def test_standard_counts(p, expected):
    X = standard_simplicial_set(p)
    assert X.counts() == expected
    X.validate()


def test_standard_total_count_formula():
    for p in range(5):
        X = standard_simplicial_set(p)
        assert sum(X.counts()) == sum(
            math.comb(p + 1, k + 1) for k in range(p + 1))


def test_boundary_and_horn_counts():
    B, incl = boundary_complex(2)
    assert B.counts() == [3, 3]
    incl.validate()
    H, hincl = horn_complex(2, 0)
    assert H.counts() == [3, 2]
    hincl.validate()
    edge_labels = sorted(H.labels[r.id] for r in H.nondegenerate(1))
    assert edge_labels == [(0, 1), (0, 2)]


def test_horn_3_1_counts_against_oracle():
    H, _ = horn_complex(3, 1)
    assert H.counts() == oracle_horn_counts(3, 1)
    assert H.counts() == [4, 6, 3]
    H.validate()


@pytest.mark.parametrize("p,k", [(1, 0), (1, 1), (2, 1), (3, 0), (3, 2)])
def test_horn_validates(p, k):
    H, incl = horn_complex(p, k)
    H.validate()
    incl.validate()
    assert incl.is_subcomplex_inclusion()


def test_invalid_horn_parameters_rejected():
    with pytest.raises(ValueError):
        horn_complex(0, 0)
    with pytest.raises(ValueError):
        horn_complex(2, 3)
    with pytest.raises(ValueError):
        horn_complex(2, -1)
    with pytest.raises(ValueError):
        boundary_complex(-1)


def test_pushout_rejects_non_inclusion_leg():
    B, _ = boundary_complex(1)
    pt = standard_simplicial_set(0)
    to_pt = SimplicialMap(B, pt, {
        r.id: (EMPTY, pt.ref(0)) for r in B.nondegenerate()})
    with pytest.raises(ValueError):
        pushout(to_pt, SimplicialMap.identity(B))


def test_a_rejected_simplex_leaves_nothing_behind():
    X = FiniteSimplicialSet()
    v = X.add_simplex(0)
    e = X.add_simplex(1, [(EMPTY, v), (EMPTY, v)])
    before = X.to_json_dict()
    bad = [[(EMPTY, v), (EMPTY, SimplexRef(9, 0))],   # a face outside X
           [(EMPTY, v), (EMPTY, e)],                   # a face of the wrong dimension
           [((3,), v), (EMPTY, v)],                    # a word that is not valid
           [(EMPTY, v)]]                               # too few faces
    for faces in bad:
        with pytest.raises(ValueError):
            X.add_simplex(1, faces)
        assert X.counts() == [1, 1] and X.to_json_dict() == before
    X.validate()
    assert X.add_simplex(0) == SimplexRef(2, 0)


def test_a_face_ref_must_be_the_cell_it_names():
    # SimplexRef(0, 1) has the id of vertex 0 and claims to be an edge
    X = FiniteSimplicialSet()
    v0, v1 = X.add_simplex(0), X.add_simplex(0)
    e = X.add_simplex(1, [(EMPTY, v1), (EMPTY, v0)])
    before = X.to_json_dict()
    with pytest.raises(ValueError, match="not in complex"):
        X.add_simplex(2, [(EMPTY, SimplexRef(0, 1)), (EMPTY, e), (EMPTY, e)])
    assert X.counts() == [2, 1] and X.to_json_dict() == before
    X.validate()


# -- enumeration ------------------------------------------------------------

def test_enumerate_delta1_against_monotone_oracle():
    X = standard_simplicial_set(1)
    for n in range(4):
        assert len(enumerate_simplices(X, n)) == len(brute_monotone_maps(n, 1))


def test_enumerate_examples():
    assert len(enumerate_simplices(standard_simplicial_set(1), 1)) == 3
    assert len(enumerate_simplices(standard_simplicial_set(0), 5)) == 1
    B, _ = boundary_complex(2)
    assert len(enumerate_simplices(B, 2)) == 9


def test_simplicial_identities_on_degenerate_simplices():
    X = standard_simplicial_set(2)
    for sx in enumerate_simplices(X, 3):
        for j in range(1, 4):
            for i in range(j):
                lhs = X.face(X.face(sx, j), i)
                rhs = X.face(X.face(sx, i), j - 1)
                assert lhs == rhs


def test_vertices_of_known_simplices():
    X = standard_simplicial_set(2)
    top = (EMPTY, vertex_ref(X, (0, 1, 2)))
    verts = X.vertices_of(top)
    assert [X.labels[r.id] for _, r in verts] == [(0,), (1,), (2,)]
    degen = X.degeneracy(top, 1)
    verts = X.vertices_of(degen)
    assert [X.labels[r.id] for _, r in verts] == [(0,), (1,), (1,), (2,)]


# -- pushouts ---------------------------------------------------------------

def test_pushout_wedge_of_intervals():
    # Delta[1] glued to Delta[1] at a point: endpoint 1 of the first to
    # endpoint 0 of the second
    I1 = standard_simplicial_set(1)
    I2 = standard_simplicial_set(1)
    pt = standard_simplicial_set(0)
    f = SimplicialMap(pt, I1, {0: (EMPTY, vertex_ref(I1, (1,)))})
    g = SimplicialMap(pt, I2, {0: (EMPTY, vertex_ref(I2, (0,)))})
    P, in_x, in_b = pushout(f, g)
    assert P.counts() == [3, 2]
    P.validate()
    in_x.validate()
    in_b.validate()


def test_pushout_along_identity_restores_cell():
    H, incl = horn_complex(2, 0)
    D = standard_simplicial_set(2)
    P, in_x, in_b = pushout(incl, SimplicialMap.identity(H))
    assert P.counts() == D.counts()
    P.validate()


def test_pushout_circle_from_interval():
    # both endpoints of Delta[1] to the point: a circle with one cell
    B, incl = boundary_complex(1)
    pt = standard_simplicial_set(0)
    to_pt = SimplicialMap(B, pt, {
        r.id: (EMPTY, pt.ref(0)) for r in B.nondegenerate()})
    P, in_x, in_b = pushout(incl, to_pt)
    assert P.counts() == [1, 1]
    P.validate()
    # the unique edge's two faces are the single vertex
    edge = P.nondegenerate(1)[0]
    assert P.face((EMPTY, edge), 0) == P.face((EMPTY, edge), 1)


def test_pushout_cocones_commute():
    H, incl = horn_complex(2, 1)
    D = standard_simplicial_set(2)
    amb_incl = _horn_into_standard(H, D)
    P, in_x, in_b = pushout(incl, amb_incl)
    left = in_x.compose(incl)
    right = in_b.compose(amb_incl)
    for r in H.nondegenerate():
        assert left.assignment[r.id] == right.assignment[r.id]


def _horn_into_standard(H, D):
    assignment = {}
    for r in H.nondegenerate():
        verts = H.labels[r.id]
        assignment[r.id] = (EMPTY, vertex_ref(D, verts))
    m = SimplicialMap(H, D, assignment)
    m.validate()
    return m


def random_complex(seed, max_cells=4):
    """Random complex built from a standard simplex by attaching cells
    along horn or boundary maps; exercises degenerate face words."""
    rng = random.Random(seed)
    X = standard_simplicial_set(rng.choice([1, 2]))
    for _ in range(rng.randrange(1, max_cells)):
        p = rng.choice([1, 2])
        if rng.random() < 0.5:
            A, incl = horn_complex(p, rng.randrange(p + 1))
        else:
            A, incl = boundary_complex(p)
        maps = []
        for m in islice(enumerate_maps(A, X), 40):
            maps.append(m)
        if not maps:
            continue
        g = maps[rng.randrange(len(maps))]
        X, _, _ = pushout(incl, g)
    return X


@pytest.mark.parametrize("seed", range(6))
def test_random_complexes_satisfy_simplicial_identities(seed):
    X = random_complex(seed)
    X.validate()
    # also on degenerate simplices one level up
    top = X.dimension
    for sx in enumerate_simplices(X, min(top + 1, 3)):
        n = top + 1 if top + 1 <= 3 else 3
        for j in range(1, n + 1):
            for i in range(j):
                assert X.face(X.face(sx, j), i) == X.face(X.face(sx, i), j - 1)


def induced_from_cocone(P, in_x, in_b, u, v):
    """The unique map P -> Z determined by a commuting cocone (u, v)."""
    assignment = {}
    for r in in_x.source.nondegenerate():
        word, tgt = in_x.assignment[r.id]
        if word == EMPTY:
            assignment[tgt.id] = u.assignment[r.id]
    for r in in_b.source.nondegenerate():
        word, tgt = in_b.assignment[r.id]
        if word == EMPTY:
            assignment[tgt.id] = v.assignment[r.id]
    h = SimplicialMap(P, u.target, assignment)
    h.validate()
    return h


@pytest.mark.parametrize("seed", range(10))
def test_pushout_universal_factoring(seed):
    """Commuting cocones factor uniquely through the pushout."""
    rng = random.Random(100 + seed)
    X = random_complex(rng.randrange(50))
    if sum(X.counts()) > 20:
        X = standard_simplicial_set(2)
    p = rng.choice([1, 2])
    A, incl = horn_complex(p, rng.randrange(p + 1))
    cell = incl.target
    maps = list(islice(enumerate_maps(A, X), 20))
    if not maps:
        pytest.skip("no attaching map")
    g = maps[rng.randrange(len(maps))]
    P, in_x, in_b = pushout(incl, g)
    # cocone through the cone on P
    Z, base, _ = cone(P)
    u = base.compose(in_x)
    v = base.compose(in_b)
    for r in A.nondegenerate():
        assert u(incl.assignment[r.id]) == v(g.assignment[r.id])
    h = induced_from_cocone(P, in_x, in_b, u, v)
    for r in cell.nondegenerate():
        assert h(in_x.assignment[r.id]) == u.assignment[r.id]
    for r in X.nondegenerate():
        assert h(in_b.assignment[r.id]) == v.assignment[r.id]
    # uniqueness: the cocone legs jointly cover every nondegenerate simplex
    covered = {in_x.assignment[r.id][1].id for r in cell.nondegenerate()}
    covered |= {in_b.assignment[r.id][1].id for r in X.nondegenerate()}
    assert covered == {r.id for r in P.nondegenerate()}


# -- cones ------------------------------------------------------------------

def test_cone_examples():
    C0, _, _ = cone(standard_simplicial_set(0))
    assert C0.counts() == standard_simplicial_set(1).counts()
    C0.validate()

    B1, _ = boundary_complex(1)
    C1, _, _ = cone(B1)
    assert C1.counts() == [3, 2]
    C1.validate()

    B2, _ = boundary_complex(2)
    C2, _, _ = cone(B2)
    assert C2.counts() == [4, 6, 3]
    C2.validate()


@pytest.mark.parametrize("seed", range(4))
def test_cone_cell_count(seed):
    L = random_complex(seed)
    C, incl, apex = cone(L)
    assert sum(C.counts()) == 2 * sum(L.counts()) + 1
    C.validate()
    incl.validate()


# -- indexed map search ---------------------------------------------------------

def rp2():
    """RP^2: one loop ``a`` and one 2-simplex with faces ``(a, s_0 v, a)``."""
    X = FiniteSimplicialSet("RP2")
    v = X.add_simplex(0)
    a = X.add_simplex(1, [(EMPTY, v), (EMPTY, v)])
    X.add_simplex(2, [(EMPTY, a), ((0,), v), (EMPTY, a)])
    X.validate()
    return X


def sphere2():
    """S^2 = Delta[2]/Boundary[2]: one 2-simplex whose faces are all ``s_0 v``."""
    X = FiniteSimplicialSet("S2")
    v = X.add_simplex(0)
    X.add_simplex(2, [((0,), v)] * 3)
    X.validate()
    return X


def parallel_edges():
    """Two edges with the same ends, ``v0 -> v1``."""
    X = FiniteSimplicialSet("Parallel")
    v0, v1 = X.add_simplex(0), X.add_simplex(0)
    for _ in range(2):
        X.add_simplex(1, [(EMPTY, v1), (EMPTY, v0)])
    return X


def reversed_interval():
    """An edge ``v0 -> v1`` whose end ``v1`` is listed first."""
    X = FiniteSimplicialSet("Reversed")
    v1, v0 = X.add_simplex(0), X.add_simplex(0)
    X.add_simplex(1, [(EMPTY, v1), (EMPTY, v0)])
    return X


def delta1_tower_stage1():
    """Stage 1 of the J tower of ``Δ[1] → Δ[0]``: two 2-cells glued on."""
    stages = igc_factor(named_map("delta1_to_delta0"), GeneratingSet("J", 2), 1)
    return stages[1].complex


# The first four targets are vertex-determined, so the search visits each
# cell right after its vertices; the others are not (S^2 from dimension 2
# on), and keep the order of nondegenerate().
SEARCH_TARGETS = {
    "Delta[2]": lambda: standard_simplicial_set(2),
    "Delta[3]": lambda: standard_simplicial_set(3),
    "Boundary[3]": lambda: boundary_complex(3)[0],
    "Cone(Boundary[2])": lambda: cone(boundary_complex(2)[0])[0],
    "RP2": rp2,
    "S2": sphere2,
    "Parallel": parallel_edges,
    "J-tower stage 1": delta1_tower_stage1,
}

# the horns' faces are all nondegenerate; RP^2's and S^2's are not; the
# reversed interval lists the end of its edge first, so the edge must wait
# for both of its vertices, not only for its vertex 1
SEARCH_SOURCES = {f"{p}-{k}": (lambda p=p, k=k: horn_complex(p, k)[0])
                  for p, k in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]}
SEARCH_SOURCES.update({"RP2": rp2, "S2": sphere2, "Reversed": reversed_interval})


def brute_force_maps(A, X):
    """Every map A -> X as an assignment: the product of all images of each
    nondegenerate cell, in ``A.nondegenerate()`` order, kept when
    ``SimplicialMap.validate`` accepts it."""
    cells = A.nondegenerate()
    out = []
    for imgs in product(*(list(X.simplices(r.dim)) for r in cells)):
        m = SimplicialMap(A, X, {r.id: img for r, img in zip(cells, imgs)})
        try:
            m.validate()
        except ValueError:
            continue
        out.append(m.assignment)
    return out


@pytest.mark.parametrize("target", SEARCH_TARGETS)
@pytest.mark.parametrize("source", SEARCH_SOURCES)
def test_enumerate_maps_matches_brute_force(target, source):
    X = SEARCH_TARGETS[target]()
    A = SEARCH_SOURCES[source]()
    brute = brute_force_maps(A, X)
    assert brute
    assert [m.assignment for m in enumerate_maps(A, X)] == brute


@pytest.mark.parametrize("p", range(1, 4))
def test_vertex_determined_complexes(p):
    complexes = [standard_simplicial_set(p), boundary_complex(p)[0],
                 *(horn_complex(p, k)[0] for k in range(p + 1))]
    if p == 2:
        complexes.append(cone(boundary_complex(2)[0])[0])
    for X in complexes:
        for n in range(1, p + 2):
            assert _plan(X, n)[0], (X.name, n)
            assert all(oracle_vertex_determined(X, m) for m in range(1, n + 1))


def test_vertex_index_holds_the_face_index_simplices():
    # one copy of each n-simplex: the plan's vertex-tuple indexes' values
    # are the face index's own key objects, not equal copies
    for X in (standard_simplicial_set(4), boundary_complex(3)[0],
              cone(boundary_complex(2)[0])[0]):
        by_vertex, _, indexes, _ = _plan(X, 3)
        assert by_vertex and len(indexes) == 4, X.name
        for n, by_verts in enumerate(indexes):
            own = {z: z for z in X.faces_index(n)[0]}
            assert len(by_verts) == len(own), (X.name, n)
            assert all(own[z] is z for z in by_verts.values()), (X.name, n)


def oracle_vertex_determined(X, n):
    """No two n-simplices of X share a vertex tuple, by listing them all."""
    tuples = [X.vertices_of(z) for z in X.simplices(n)]
    return len(set(tuples)) == len(tuples)


def test_vertex_determined_matches_brute_force():
    # the plan for sources of dimension n takes vertex levels when X is
    # vertex-determined in every dimension from 1 to n
    complexes = [random_complex(seed) for seed in range(6)]
    complexes += [parallel_edges(), rp2(), sphere2()]
    verdicts = set()
    for X in complexes:
        for n in range(X.dimension + 2):
            verdict = all(oracle_vertex_determined(X, m) for m in range(1, n + 1))
            assert _plan(X, n)[0] == verdict, (X.name, n)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_shared_vertex_tuples_are_not_vertex_determined():
    # two edges v0 -> v1; the loop of RP^2 and the degenerate edge on its vertex
    for X, n, verdict in [(parallel_edges(), 1, False), (rp2(), 1, False),
                          # degenerate simplices count: S^2's 2-cell and
                          # s_1 s_0 v share (v, v, v)
                          (sphere2(), 1, True), (sphere2(), 2, False)]:
        assert _plan(X, n)[0] == verdict, (X.name, n)
        assert all(oracle_vertex_determined(X, m) for m in range(1, n + 1)) == verdict


def vertex_order(A):
    """``A``'s cells in the order of its vertex levels: each level's vertex,
    its anchor edge (read from the anchor slot), then the cells it follows."""
    return [r for ref, anchor, follow in _levels(A, True)
            for r in [ref, *map(A.ref, anchor[2:]),
                      *(A.ref(cell) for cell, _, _ in follow)]]


def test_vertex_order_visits_each_cell_after_its_vertices():
    A = standard_simplicial_set(2)
    # vertex 2's anchor is the edge 12, to its latest earlier neighbour
    assert [A.labels[ref.id] for ref in vertex_order(A)] == [
        (0,), (1,), (0, 1), (2,), (1, 2), (0, 2), (0, 1, 2)]
    for seed in range(4):
        A = random_complex(seed)
        order = vertex_order(A)
        assert sorted(order) == sorted(ref for ref, _, _ in _levels(A, False))
        seen = set()
        for ref in order:
            assert all(t in seen for _, t in A._faces.get(ref.id, ()))
            seen.add(ref)
        # each level's cells are those whose last vertex it is
        for ref, anchor, follow in _levels(A, True):
            for cell in [*anchor[2:], *(cell for cell, _, _ in follow)]:
                last = max(v[1].id for v in A.vertices_of((EMPTY, A.ref(cell))))
                assert last == ref.id, (A.name, ref, cell)


def test_search_runs_on_sources_deeper_than_the_recursion_limit():
    A, _ = horn_complex(10, 0)   # 2045 nondegenerate cells
    maps = list(enumerate_maps(A, standard_simplicial_set(0)))
    assert len(maps) == 1
    maps[0].validate()


def test_search_sees_a_grown_complex():
    X, _ = horn_complex(2, 1)
    D1, D2 = standard_simplicial_set(1), standard_simplicial_set(2)
    A, _ = horn_complex(2, 1)
    horn_map = SimplicialMap(A, X, {r.id: (EMPTY, X.ref(r.id))
                                    for r in A.nondegenerate()})
    before = len(list(enumerate_maps(D2, X)))
    assert not horn_fillers(X, horn_map, 2, 1)
    # fill the horn: a new edge 0 -> 2, then a 2-simplex on all three edges
    v = {X.labels[r.id]: r for r in X.nondegenerate()}
    e02 = X.add_simplex(1, [(EMPTY, v[(2,)]), (EMPTY, v[(0,)])])
    edge_id = D1.nondegenerate(1)[0].id
    assert (EMPTY, e02) in [m.assignment[edge_id] for m in enumerate_maps(D1, X)]
    top = X.add_simplex(2, [(EMPTY, v[(1, 2)]), (EMPTY, e02), (EMPTY, v[(0, 1)])])
    top_id = D2.nondegenerate(2)[0].id
    images = [m.assignment[top_id] for m in enumerate_maps(D2, X)]
    # the new 2-simplex and the two degeneracies of the new edge
    assert len(images) == before + 3
    assert (EMPTY, top) in images
    assert horn_fillers(X, horn_map, 2, 1) == [(EMPTY, top)]


def test_horn_fillers_are_the_horn_index_own_list():
    # no copy: the fillers of a horn map are the list the horn index holds,
    # and a horn map with none gets an empty list that no index holds
    X, kinds = standard_simplicial_set(2), set()
    for p in (1, 2):
        for k in range(p + 1):
            lists = X.horn_index(p, k).values()
            for hm in enumerate_maps(horn_complex(p, k)[0], X):
                fillers = horn_fillers(X, hm, p, k)
                own = [ys for ys in lists if ys is fillers]
                assert own == ([fillers] if fillers else []), (p, k)
                kinds.add(bool(fillers))
    assert kinds == {True, False}


def horn_vertex_sequences(p, k, n):
    """The vertex images of the maps Λ[p,k] → Δ[n], in lexicographic order:
    weakly increasing along each edge of Λ[p,k], which is every edge of Δ[p]
    but, for p = 2, the one opposite k (Δ[n] is the nerve of 0 < ... < n)."""
    missing = [tuple(j for j in range(3) if j != k)] if p == 2 else []
    edges = [e for e in combinations(range(p + 1), 2) if e not in missing]
    return [seq for seq in product(range(n + 1), repeat=p + 1)
            if all(seq[i] <= seq[j] for i, j in edges)]


@pytest.mark.parametrize("p", range(2, 5))
def test_horn_maps_into_a_simplex_are_monotone_vertex_sequences(p):
    # independent oracle: a map into Δ[n] is fixed by its vertex images;
    # where the horn holds every edge of Δ[p] (p >= 3, or k = 1, whose
    # missing edge 02 follows from 01 and 12), they are the monotone
    # sequences, comb(n + p + 1, p + 1) of them
    for k in range(p + 1):
        A, _ = horn_complex(p, k)
        verts = A.nondegenerate(0)
        assert [A.labels[v.id] for v in verts] == [(i,) for i in range(p + 1)]
        for n in range(5):
            X = standard_simplicial_set(n)
            got = [tuple(X.labels[m.assignment[v.id][1].id][0] for v in verts)
                   for m in enumerate_maps(A, X)]
            assert got == horn_vertex_sequences(p, k, n), (p, k, n)
            if p >= 3 or k == 1:
                monotone = list(combinations_with_replacement(range(n + 1), p + 1))
                assert got == monotone
                assert len(got) == math.comb(n + p + 1, p + 1)


def test_search_of_an_empty_source_yields_one_empty_map():
    for X in (standard_simplicial_set(2), rp2(), FiniteSimplicialSet("empty")):
        maps = list(enumerate_maps(FiniteSimplicialSet("empty"), X))
        assert [m.assignment for m in maps] == [{}]


def test_search_of_vertices_alone_runs_over_their_product():
    A = FiniteSimplicialSet("three points")
    points = [A.add_simplex(0) for _ in range(3)]
    for X in (standard_simplicial_set(2), parallel_edges(), sphere2()):
        xs = [(EMPTY, r) for r in X.nondegenerate(0)]
        got = [tuple(m.assignment[v.id] for v in points) for m in enumerate_maps(A, X)]
        assert len(got) == len(xs) ** 3
        assert got == list(product(xs, repeat=3))


def test_search_into_an_empty_complex_yields_nothing():
    empty = FiniteSimplicialSet("empty")
    for A in (standard_simplicial_set(0), horn_complex(2, 1)[0], rp2()):
        assert list(enumerate_maps(A, empty)) == []


@pytest.mark.parametrize("target", ["Delta[3]", "RP2"])
def test_yielded_maps_keep_their_own_assignments(target):
    # the search fills one working dict; each map it yields copies it
    X = SEARCH_TARGETS[target]()
    A, _ = horn_complex(2, 1)
    kept = list(enumerate_maps(A, X))
    seen = [dict(m.assignment) for m in enumerate_maps(A, X)]
    assert len(kept) > 1
    assert [m.assignment for m in kept] == seen == brute_force_maps(A, X)


def test_search_by_vertex_indexes_no_simplex_of_its_source():
    # a search into a vertex-determined target reads the source's cells and
    # their vertices; it keeps only its levels and the cells' vertex ids on
    # the source, no index of it, which would hold every degenerate simplex
    # of it.  On the target it keeps the face indexes and one plan, which
    # holds the vertex-tuple indexes and the adjacency lists.
    for k in range(5):
        A, _ = horn_complex(4, k)
        X = standard_simplicial_set(4)
        assert sum(1 for _ in enumerate_maps(A, X)) == 126
        assert set(A._cache) == {("levels", True), "cell vertices"}
        assert set(X._cache) == {*(("faces", n) for n in range(4)), ("plan", 3),
                                 "cell vertices"}


# -- anchor edges of the vertex search ------------------------------------------

def zigzag():
    """Vertices 0-3 and edges 0 -> 1, 0 -> 3, 3 -> 2: vertex 2 has no earlier
    neighbour, and vertex 3's latest one, 2, is at the head of an edge from
    it, while its first edge comes from 0."""
    X = FiniteSimplicialSet("Zigzag")
    v = [X.add_simplex(0) for _ in range(4)]
    for a, b in [(0, 1), (0, 3), (3, 2)]:
        X.add_simplex(1, [(EMPTY, v[b]), (EMPTY, v[a])])
    return X


def sink():
    """Vertices 0-3 and edges 0 -> 2, 1 -> 2: no edge leaves vertex 2 but its
    degenerate one, and vertex 3 has no other edge at all."""
    X = FiniteSimplicialSet("Sink")
    v = [X.add_simplex(0) for _ in range(4)]
    for a in (0, 1):
        X.add_simplex(1, [(EMPTY, v[2]), (EMPTY, v[a])])
    return X


def horn_tower_stage1():
    """Stage 1 of the J tower of ``Λ[2,1] ↪ Δ[2]``: vertex-determined, with
    an edge from vertex 4 to vertex 2."""
    return igc_factor(named_map("horn2_1_incl"), GeneratingSet("J", 2), 1)[1].complex


def circle_stage1():
    """Stage 1 of the I tower of ``Δ[1] → Δ[0]``: edges 0 -> 1 and 1 -> 0."""
    return igc_factor(named_map("delta1_to_delta0"), GeneratingSet("I", 2), 1)[1].complex


ANCHOR_SOURCES = {"Zigzag": zigzag, "Reversed": reversed_interval, "RP2": rp2,
                  "J-tower stage 1": horn_tower_stage1, "Circle": circle_stage1}
ANCHOR_TARGETS = {"Sink": sink, "Delta[3]": lambda: standard_simplicial_set(3),
                  "J-tower stage 1": horn_tower_stage1, "Circle": circle_stage1}


def cellwise_maps(A, X):
    """The maps of :func:`brute_force_maps`, in its order, found cell by cell
    with no index: each cell of ``A`` in ``nondegenerate()`` order tries every
    simplex of ``X`` of its dimension in ``simplices()`` order, and keeps each
    whose faces are the images of its faces.  It prunes the product early, so
    it runs on sources too big for the product."""
    cells, out = A.nondegenerate(), []
    partial = SimplicialMap(A, X, {})

    def rec(i):
        if i == len(cells):
            out.append(dict(partial.assignment))
            return
        ref = cells[i]
        for z in X.simplices(ref.dim):
            if all(X.face(z, j) == partial(face)
                   for j, face in enumerate(A._faces.get(ref.id, ()))):
                partial.assignment[ref.id] = z
                rec(i + 1)

    rec(0)
    return out


def test_cellwise_oracle_is_the_filtered_product():
    for A, X in [(reversed_interval(), sink()), (zigzag(), circle_stage1()),
                 (rp2(), standard_simplicial_set(2)), (sphere2(), rp2())]:
        assert cellwise_maps(A, X) == brute_force_maps(A, X)


@pytest.mark.parametrize("target", ANCHOR_TARGETS)
@pytest.mark.parametrize("source", ANCHOR_SOURCES)
def test_anchored_search_matches_brute_force(target, source):
    # every target is vertex-determined, so the search takes vertex levels
    # and draws each vertex with an earlier neighbour from its anchor edge
    X, A = ANCHOR_TARGETS[target](), ANCHOR_SOURCES[source]()
    assert _plan(X, A.dimension)[0]
    want = cellwise_maps(A, X)
    assert want
    assert [m.assignment for m in enumerate_maps(A, X)] == want


def test_anchor_is_the_edge_to_the_latest_earlier_neighbour():
    # (u, 0, e) for an edge e: u -> v, (u, 1, e) for e: v -> u, () for no
    # earlier neighbour; Zigzag's edges 0 -> 1, 0 -> 3, 3 -> 2 are cells 4-6
    assert [ids for _, ids, _ in _levels(zigzag(), True)] == [(), (0, 0, 4), (), (2, 1, 6)]
    # the edge v0 -> v1 is cell 2, and v1 is vertex 0
    assert [ids for _, ids, _ in _levels(reversed_interval(), True)] == [(), (0, 1, 2)]
    # RP^2's only edge is a loop
    assert [ids for _, ids, _ in _levels(rp2(), True)] == [()]
    # every anchor edge runs between u and the level's vertex on its side,
    # and takes its image with the vertex, not by a lookup of its own
    for A in (*(make() for make in ANCHOR_SOURCES.values()), standard_simplicial_set(3)):
        for ref, anchor, follow in _levels(A, True):
            if anchor:
                u, side, e = anchor
                ends = tuple(v[1].id for v in A.vertices_of((EMPTY, A.ref(e))))
                assert ends == ((u, ref.id), (ref.id, u))[side], (A.name, ref)
                assert e not in [cell for cell, _, _ in follow], (A.name, ref)


def test_neighbours_are_the_ends_of_edges_in_vertex_order():
    for X in (sink(), zigzag(), horn_tower_stage1(), circle_stage1(),
              boundary_complex(3)[0]):
        points = [(EMPTY, r) for r in X.nondegenerate(0)]
        # X is vertex-determined in dimension 1: one edge per pair of ends
        edge = {(X.face(e, 1), X.face(e, 0)): e for e in X.simplices(1)}
        assert len(edge) == len(list(X.simplices(1))), X.name
        heads, tails = _plan(X, 1)[3]
        # a source of no edge reads no adjacency list, and none is built
        assert _plan(X, 0)[3] == _plan(X, -1)[3] == (), X.name
        for x in points:
            # each end comes with the edge of X between it and x
            assert heads[x[1].id] == [(y, edge[x, y]) for y in points if (x, y) in edge]
            assert tails[x[1].id] == [(y, edge[y, x]) for y in points if (y, x) in edge]


def levels_taken(A):
    """The kinds of level (True for vertex levels) that searches out of ``A``
    have built and kept on it."""
    return {key[1] for key in A._cache if key[:1] == ("levels",)}


def test_search_keeps_one_plan_per_source_dimension():
    # S^2 is vertex-determined in dimension 1 but not in dimension 2, so a
    # search from a 1-dimensional source takes vertex levels and one from a
    # 2-dimensional source cell levels, whichever ran before it
    X = sphere2()
    sources = [lambda: horn_complex(2, 1)[0], lambda: standard_simplicial_set(2)]
    for make in (*sources, sources[0]):
        A = make()
        by_vertex = all(oracle_vertex_determined(X, n)
                        for n in range(1, A.dimension + 1))
        assert by_vertex == (A.dimension == 1)
        assert [m.assignment for m in enumerate_maps(A, X)] == cellwise_maps(A, X)
        assert levels_taken(A) == {by_vertex}, A.name
    assert {key for key in X._cache if key[:1] == ("plan",)} == {
        ("plan", 1), ("plan", 2)}
    # a parallel edge makes Δ[2] not vertex-determined in dimension 1: the
    # plan kept on it is dropped, and the next search takes cell levels
    X, D1 = standard_simplicial_set(2), standard_simplicial_set(1)
    assert [m.assignment for m in enumerate_maps(D1, X)] == cellwise_maps(D1, X)
    assert levels_taken(D1) == {True}
    v0, v1 = X.nondegenerate(0)[:2]
    X.add_simplex(1, [(EMPTY, v1), (EMPTY, v0)])
    for A in (standard_simplicial_set(1), horn_complex(2, 1)[0]):
        want = cellwise_maps(A, X)
        assert [m.assignment for m in enumerate_maps(A, X)] == want
        assert levels_taken(A) == {False}, A.name
    assert len(want) > len(cellwise_maps(A, standard_simplicial_set(2)))


def test_search_by_vertex_draws_from_the_anchor_edge_alone():
    # In these searches every vertex after the first has an anchor edge,
    # and every image joined to its anchor's image extends to a map (Δ[4]
    # and ∂Δ[3] hold every monotone edge and triangle).  So a search that
    # draws from the anchor edge alone draws each prefix of the maps'
    # vertex images once, 125 draws for Λ[3,k] → Δ[4] and 34 for Λ[2,1] →
    # ∂Δ[3]; one that draws a vertex not joined to its anchor's image
    # draws more.
    drawn = []

    class Drawn(list):
        def __iter__(self):
            for z in list.__iter__(self):
                drawn.append(z)
                yield z

    cases = [(horn_complex(3, k)[0], standard_simplicial_set(4), 125) for k in range(4)]
    cases.append((horn_complex(2, 1)[0], boundary_complex(3)[0], 34))
    for A, X, want in cases:
        verts = A.nondegenerate(0)
        images = [tuple(m.assignment[v.id] for v in verts) for m in enumerate_maps(A, X)]
        prefixes = sum(len({seq[:j] for seq in images}) for j in range(1, len(verts) + 1))
        assert prefixes == want
        drawn.clear()
        # the search reads these lists from the caches its first run built:
        # the face index of the vertices, and the adjacency lists of the
        # plan for its source's dimension
        lists = X.faces_index(0)[1]
        lists[()] = Drawn(lists[()])
        for side in X._cache[("plan", A.dimension)][3]:
            for x, ys in side.items():
                side[x] = Drawn(ys)
        again = [tuple(m.assignment[v.id] for v in verts) for m in enumerate_maps(A, X)]
        assert again == images
        assert len(drawn) == prefixes


# -- bounded Kan checks -------------------------------------------------------

def test_kan_terminal_object():
    X = standard_simplicial_set(0)
    report = is_kan_up_to(X, 3)
    assert all(entry["fillable"] for entry in report)


def test_kan_delta4_totals():
    # totals from the vertex-sequence oracle of the benchmark (1065 horn
    # maps into Delta[4] for p <= 4, 40 of them unfillable)
    report = is_kan_up_to(standard_simplicial_set(4), 4)
    assert sum(e["maps"] for e in report) == 1065
    assert sum(e["unfillable"] for e in report) == 40


def test_kan_delta1_has_unfillable_horn():
    X = standard_simplicial_set(1)
    report = {(e["p"], e["k"]): e for e in is_kan_up_to(X, 2)}
    assert report[(2, 0)]["unfillable"] > 0
    # inner horns of an interval fill
    assert report[(1, 0)]["fillable"]
    assert report[(1, 1)]["fillable"]


def test_kan_delta2_has_unfillable_horn():
    X = standard_simplicial_set(2)
    report = {(e["p"], e["k"]): e for e in is_kan_up_to(X, 2)}
    assert report[(2, 0)]["unfillable"] > 0


# -- serialization ------------------------------------------------------------

def test_json_round_trip():
    X = random_complex(3)
    Y = FiniteSimplicialSet.from_json_dict(X.to_json_dict())
    assert Y.counts() == X.counts()
    for r in X.nondegenerate():
        if r.dim == 0:
            continue
        for i in range(r.dim + 1):
            wx, tx = X.face((EMPTY, r), i)
            wy, ty = Y.face((EMPTY, Y.ref(r.id)), i)
            assert wx == wy and tx.id == ty.id


# -- rejections ----------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: words.prepend_degeneracy(-1, ()), "degeneracy index must be nonnegative"),
    (lambda: words.prepend_face(-1, ()), "face index must be nonnegative"),
])
def test_words_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _map_of_delta0(image):
    return SimplicialMap(standard_simplicial_set(0), standard_simplicial_set(1), {0: image})


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteSimplicialSet().add_simplex(-1), "dimension must be nonnegative"),
    (lambda: standard_simplicial_set(0).add_simplex(0, [(EMPTY, SimplexRef(0, 0))]),
     "a vertex has no faces"),
    (lambda: standard_simplicial_set(1).face((EMPTY, SimplexRef(0, 0)), 0),
     "a vertex has no faces"),
    (lambda: standard_simplicial_set(1).face((EMPTY, SimplexRef(2, 1)), 2),
     "face index 2 out of range for dimension 1"),
    (lambda: standard_simplicial_set(1).degeneracy((EMPTY, SimplexRef(2, 1)), 2),
     "degeneracy index 2 out of range"),
    (lambda: FiniteSimplicialSet.from_json_dict({"dims": [[0], 1]}),
     '"dims"[1] must be a list of simplex ids'),
    # the three checks of an image: its dimension, its target, its word
    (lambda: _map_of_delta0((EMPTY, SimplexRef(2, 1))).validate(),
     "assignment for <0-simplex #0> has wrong dimension"),
    (lambda: _map_of_delta0((EMPTY, SimplexRef(7, 0))).validate(),
     "assignment for <0-simplex #0> leaves the target"),
    (lambda: SimplicialMap(standard_simplicial_set(1), standard_simplicial_set(0), {
        0: (EMPTY, SimplexRef(0, 0)), 1: (EMPTY, SimplexRef(0, 0)),
        2: ((1,), SimplexRef(0, 0))}).validate(),
     "word (1,) out of range for base dimension 0"),
    (lambda: SimplicialMap.identity(standard_simplicial_set(1)).compose(
        SimplicialMap.identity(standard_simplicial_set(1))), "maps are not composable"),
    (lambda: standard_simplicial_set(-1), "p must be nonnegative"),
    (lambda: enumerate_simplices(standard_simplicial_set(1), -1), "n must be nonnegative"),
    (lambda: pushout(boundary_complex(1)[1], boundary_complex(1)[1]),
     "pushout legs must share their source"),
])
def test_simplicial_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
