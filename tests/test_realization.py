import random
import re
from fractions import Fraction as F

import pytest

from smoothsimplex.geometry import Bary
from smoothsimplex.realization import (
    RealPoint,
    _crossing_curve,
    canonical_injection,
    maximal_simplices,
    normalize,
    realize_map,
    witness_not_single_generated,
)
from smoothsimplex.simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    SimplexRef,
    SimplicialMap,
    boundary_complex,
    enumerate_simplices,
    horn_complex,
    standard_simplicial_set,
    vertex_ref,
)


def rand_interior(rng, dim):
    raw = [F(rng.randrange(1, 20)) for _ in range(dim + 1)]
    tot = sum(raw)
    return Bary(tuple(r / tot for r in raw))


# -- normalize ----------------------------------------------------------------

def test_normalize_degenerate_edge_collapses():
    K = standard_simplicial_set(1)
    v0 = vertex_ref(K, (0,))
    pt = normalize(K, ((0,), v0), Bary.of(F(3, 10), F(7, 10)))
    assert pt.simplex == v0
    assert pt.coords.coords == (F(1),)


def test_normalize_zero_coordinate_moves_to_face():
    K = standard_simplicial_set(2)
    top = vertex_ref(K, (0, 1, 2))
    pt = normalize(K, (EMPTY, top), Bary.of(F(2, 5), F(0), F(3, 5)))
    assert K.labels[pt.simplex.id] == (0, 2)
    assert pt.coords.coords == (F(2, 5), F(3, 5))


def test_normalize_interior_point_unchanged():
    K = standard_simplicial_set(1)
    e = vertex_ref(K, (0, 1))
    pt = normalize(K, (EMPTY, e), Bary.of(F(1, 2), F(1, 2)))
    assert pt.simplex == e and pt.coords.coords == (F(1, 2), F(1, 2))


def test_normalize_idempotent_on_random_inputs():
    rng = random.Random(2)
    K, _ = boundary_complex(2)
    for sx in enumerate_simplices(K, 2):
        for _ in range(5):
            u = rand_interior(rng, 2)
            pt = normalize(K, sx, u)
            again = normalize(K, (EMPTY, pt.simplex), pt.coords)
            assert again == pt
            assert min(pt.coords.coords) > 0


def test_normalize_word_and_zero_mix():
    # a degenerate 2-simplex over an edge, with a zero landing on a vertex
    K = standard_simplicial_set(1)
    e = vertex_ref(K, (0, 1))
    pt = normalize(K, ((0,), e), Bary.of(F(1, 4), F(3, 4), F(0)))
    assert K.labels[pt.simplex.id] == (0,)


# -- canonical injection ---------------------------------------------------------

def test_injection_example_horn_edge():
    H, incl = horn_complex(2, 0)
    e = vertex_ref(H, (0, 1))
    pt = normalize(H, (EMPTY, e), Bary.of(F(1, 4), F(3, 4)))
    out = canonical_injection(incl, pt)
    assert out.coords == (F(1, 4), F(3, 4), F(0))


def test_injection_vertices_to_basis():
    B, incl = boundary_complex(3)
    for v in B.nondegenerate(0):
        pt = normalize(B, (EMPTY, v), Bary.of(F(1)))
        out = canonical_injection(incl, pt)
        label = B.labels[v.id]
        assert out.coords[label[0]] == 1


@pytest.mark.parametrize("builder,arg", [
    (horn_complex, (2, 0)), (horn_complex, (3, 1)), (boundary_complex, (2,)),
    (boundary_complex, (3,)),
])
def test_injection_injective_on_random_normal_forms(builder, arg):
    K, incl = builder(*arg)
    rng = random.Random(hash(arg) % 100000)
    seen = {}
    trials = 2500
    for _ in range(trials):
        cells = K.nondegenerate()
        ref = cells[rng.randrange(len(cells))]
        pt = normalize(K, (EMPTY, ref), rand_interior(rng, ref.dim))
        img = canonical_injection(incl, pt).coords
        key = (pt.simplex.id, pt.coords.coords)
        if img in seen:
            assert seen[img] == key, "collision of distinct normal forms"
        seen[img] = key


def test_injection_rejects_foreign_simplex():
    H, incl = horn_complex(2, 0)
    D = standard_simplicial_set(2)
    top = vertex_ref(D, (0, 1, 2))
    pt = normalize(D, (EMPTY, top), Bary.barycenter(2))
    with pytest.raises(ValueError):
        canonical_injection(incl, pt)


# -- realized maps ----------------------------------------------------------------

def test_realize_collapse_to_point():
    I = standard_simplicial_set(1)
    P = standard_simplicial_set(0)
    f = SimplicialMap(I, P, {
        r.id: ((0,) if r.dim == 1 else EMPTY, P.ref(0))
        for r in I.nondegenerate()})
    f.validate()
    e = vertex_ref(I, (0, 1))
    pt = normalize(I, (EMPTY, e), Bary.of(F(1, 3), F(2, 3)))
    out = realize_map(f, pt)
    assert out.simplex.dim == 0 and out.coords.coords == (F(1),)


def test_realize_face_inclusion():
    I = standard_simplicial_set(1)
    D = standard_simplicial_set(2)
    f = SimplicialMap(I, D, {
        vertex_ref(I, (0,)).id: (EMPTY, vertex_ref(D, (1,))),
        vertex_ref(I, (1,)).id: (EMPTY, vertex_ref(D, (2,))),
        vertex_ref(I, (0, 1)).id: (EMPTY, vertex_ref(D, (1, 2))),
    })
    f.validate()
    pt = normalize(I, (EMPTY, vertex_ref(I, (0, 1))), Bary.of(F(3, 10), F(7, 10)))
    out = realize_map(f, pt)
    assert D.labels[out.simplex.id] == (1, 2)
    assert out.coords.coords == (F(3, 10), F(7, 10))


def test_realize_functorial_on_random_points():
    rng = random.Random(9)
    H, incl = horn_complex(2, 1)
    D = incl.target
    # collapse vertices 0,1 of Delta[2] onto Delta[1]
    T = standard_simplicial_set(1)
    assignment = {}
    collapse = {0: 0, 1: 0, 2: 1}
    for r in D.nondegenerate():
        verts = D.labels[r.id]
        image = [collapse[v] for v in verts]
        # build the image simplex of T as a (word, ref) pair
        word = []
        pos = 0
        clean = []
        for i, v in enumerate(image):
            if i + 1 < len(image) and image[i + 1] == v:
                word.append(i)
            else:
                clean.append(v)
        ref = vertex_ref(T, tuple(clean))
        assignment[r.id] = (tuple(sorted(word, reverse=True)), ref)
    g = SimplicialMap(D, T, assignment)
    g.validate()
    f = incl
    comp = g.compose(f)
    for _ in range(1000):
        cells = H.nondegenerate()
        ref = cells[rng.randrange(len(cells))]
        pt = normalize(H, (EMPTY, ref), rand_interior(rng, ref.dim))
        lhs = realize_map(comp, pt)
        rhs = realize_map(g, realize_map(f, pt))
        assert lhs == rhs


# -- Appendix-A witness ---------------------------------------------------------------

def test_maximal_simplices_of_horn():
    H, _ = horn_complex(2, 0)
    labels = sorted(H.labels[r.id] for r in maximal_simplices(H))
    assert labels == [(0, 1), (0, 2)]


def test_witness_horn_2_0():
    H, _ = horn_complex(2, 0)
    w = witness_not_single_generated(H)
    assert w is not None
    assert H.labels[w["sigma"].id] == (0, 1)
    assert H.labels[w["tau"].id] == (0, 2)
    assert H.labels[w["shared_vertex"].id] == (0,)
    c = w["curve"]
    left = c(F(-1, 2))
    right = c(F(1, 2))
    assert left[0] == w["sigma"] and min(left[1].coords) > 0
    assert right[0] == w["tau"] and min(right[1].coords) > 0


def test_crossing_curve_values():
    a, b = SimplexRef(0, 1), SimplexRef(1, 2)
    c = _crossing_curve(a, b, 1, 2)
    # t < 0: |t| of the way from the vertex (slot 1 of a) to a's barycenter
    assert c(F(-1, 2)) == (a, Bary((F(1, 4), F(3, 4))))
    assert c(-0.25) == (a, Bary((F(1, 8), F(7, 8))))
    # t >= 0: the same on b, from slot 2; t = 0 is the vertex, on b
    assert c(F(1, 3)) == (b, Bary((F(1, 9), F(1, 9), F(7, 9))))
    assert c(0) == (b, Bary((F(0), F(0), F(1))))
    for t in (F(-1), F(1), F(3, 2), -2):
        with pytest.raises(ValueError, match="outside"):
            c(t)


def test_witness_none_for_standard_simplex():
    for p in (1, 2, 3):
        assert witness_not_single_generated(standard_simplicial_set(p)) is None


def test_witness_boundary_2_deterministic():
    B, _ = boundary_complex(2)
    w1 = witness_not_single_generated(B)
    w2 = witness_not_single_generated(B)
    assert w1["sigma"] == w2["sigma"] and w1["tau"] == w2["tau"]
    assert B.labels[w1["sigma"].id] == (0, 1)
    assert B.labels[w1["tau"].id] == (0, 2)


def test_witness_none_for_disconnected():
    from smoothsimplex.simplicial import FiniteSimplicialSet
    K = FiniteSimplicialSet("two points")
    K.add_simplex(0)
    K.add_simplex(0)
    assert witness_not_single_generated(K) is None


def test_boundary_circle_cell_count_sanity():
    # 6 nondegenerate cells and Euler characteristic 0: a circle
    B, _ = boundary_complex(2)
    counts = B.counts()
    assert sum(counts) == 6
    assert counts[0] - counts[1] == 0


def _unlabelled_point():
    """The identity inclusion of a complex whose cells carry no vertex
    labels, and a point on its one vertex."""
    K = FiniteSimplicialSet("bare")
    v = K.add_simplex(0)
    return SimplicialMap.identity(K), RealPoint(v, Bary.of(F(1)))


def _collapse_of_delta1():
    D1, D0 = standard_simplicial_set(1), standard_simplicial_set(0)
    v = (EMPTY, SimplexRef(0, 0))
    return SimplicialMap(D1, D0, {0: v, 1: v, 2: ((0,), SimplexRef(0, 0))})


_EDGE_POINT = RealPoint(SimplexRef(2, 1), Bary.of(F(1, 2), F(1, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: RealPoint(SimplexRef(2, 1), Bary.of(F(1))),
     "coordinate dimension does not match the simplex"),
    (lambda: normalize(standard_simplicial_set(1), (EMPTY, SimplexRef(2, 1)), Bary.of(F(1))),
     "coordinate dimension does not match the simplex"),
    (lambda: canonical_injection(horn_complex(2, 0)[1], RealPoint(SimplexRef(9, 0), Bary.of(F(1)))),
     "<0-simplex #9> is not a simplex of Horn[2,0]"),
    (lambda: canonical_injection(_collapse_of_delta1(), _EDGE_POINT),
     "inclusion must be a subcomplex inclusion"),
    (lambda: canonical_injection(*_unlabelled_point()),
     "ambient complex does not carry vertex labels"),
    (lambda: realize_map(_collapse_of_delta1(), RealPoint(SimplexRef(9, 1), _EDGE_POINT.coords)),
     "<1-simplex #9> is not a simplex of the source"),
])
def test_realization_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
