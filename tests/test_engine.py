import random
import re
from dataclasses import replace
from itertools import islice, product

import pytest

from smoothsimplex.engine import (
    GeneratingSet,
    Generator,
    LiftingProblem,
    edge_group_rank,
    fill_horn_numeric,
    igc_factor,
    iter_lifting_problems,
    pi0,
    rlp_check,
)
from smoothsimplex.geometry import Bary, barycentric_grid
from smoothsimplex.simplicial import (
    EMPTY,
    FiniteSimplicialSet,
    SimplicialMap,
    boundary_complex,
    cone,
    enumerate_maps,
    horn_complex,
    horn_fillers,
    is_kan_up_to,
    pushout,
    standard_simplicial_set,
    vertex_ref,
)
from smoothsimplex.simplicial import _shared
from smoothsimplex.cli import named_map


def collapse_map(X, target=None):
    """The unique map X -> Delta[0]."""
    pt = target or standard_simplicial_set(0)
    return SimplicialMap(X, pt, {
        r.id: (tuple(range(r.dim - 1, -1, -1)), pt.ref(0))
        for r in X.nondegenerate()})


# -- independent oracles (vertex-sequence calculus on standard targets) --------

def oracle_horn20_unfillable_exists(q):
    """(2,0)-horn maps into Delta[q] are triples (w0,w1,w2) with w0<=w1 and
    w0<=w2; the unique filler candidate (w0,w1,w2) works iff w1<=w2."""
    bad = []
    for w in product(range(q + 1), repeat=3):
        if w[0] <= w[1] and w[0] <= w[2] and not w[1] <= w[2]:
            bad.append(w)
    return bad


def test_oracle_matches_engine_on_delta1_to_point():
    # Δ[1] -> Δ[0] fails J at (2,0); the oracle counts the failing squares
    X = standard_simplicial_set(1)
    f = collapse_map(X)
    f.validate()
    report = rlp_check(f, GeneratingSet("J", 2))
    fails = [p for p in report.failures
             if p.generator.name == "J(2,0)"]
    assert len(fails) == len(oracle_horn20_unfillable_exists(1)) == 1
    # and every failing square really is a (2,0) problem
    assert all(p.generator.p == 2 for p in report.failures)


def test_rlp_terminal_identity_passes_J():
    pt = standard_simplicial_set(0)
    f = SimplicialMap.identity(pt)
    report = rlp_check(f, GeneratingSet("J", 3))
    assert report.has_rlp
    assert report.checked > 0


def test_rlp_boundary_pair_fails_I():
    B, _ = boundary_complex(1)
    f = collapse_map(B)
    f.validate()
    report = rlp_check(f, GeneratingSet("I", 1))
    fails = [p for p in report.failures if p.generator.name == "I(1)"]
    # oracle: tops send the two boundary points to (a, b); no edge joins
    # distinct points of B, so exactly the two mixed assignments fail
    assert len(fails) == 2
    assert not report.has_rlp


def test_rlp_collapse_boundary3_totals():
    # totals from the vertex-sequence oracle of the benchmark: 488 squares
    # from J up to dimension 4 to Boundary[3] -> Delta[0], 24 without a lift
    report = rlp_check(collapse_map(boundary_complex(3)[0]), GeneratingSet("J", 4))
    assert (report.checked, len(report.failures)) == (488, 24)


def test_rlp_identity_always_lifts():
    for X in (standard_simplicial_set(1), horn_complex(2, 0)[0]):
        f = SimplicialMap.identity(X)
        report = rlp_check(f, GeneratingSet("J", 2))
        assert report.has_rlp


def test_constructed_lifts_verify():
    # every solvable problem yields a lift that is a valid simplicial map
    # commuting on both triangles
    X = standard_simplicial_set(2)
    f = collapse_map(X)
    f.validate()
    checked = 0
    for prob in iter_lifting_problems(f, GeneratingSet("J", 2)):
        lifts = prob.lifts(limit=1)
        every = [m.assignment for m in prob.lifts(limit=None)]
        assert [m.assignment for m in prob.lifts(limit=2)] == every[:2]
        if not lifts:
            continue
        lift = lifts[0]
        lift.validate()
        A = prob.generator.incl.source
        for r in A.nondegenerate():
            assert lift(prob.generator.incl.assignment[r.id]) == \
                prob.top.assignment[r.id]
        for r in prob.generator.incl.target.nondegenerate():
            assert f(lift.assignment[r.id]) == prob.bottom.assignment[r.id]
        checked += 1
        if checked >= 25:
            break
    assert checked >= 25


# -- gluing factorization --------------------------------------------------------

def test_igc_identity_attaches_nothing():
    pt = standard_simplicial_set(0)
    stages = igc_factor(SimplicialMap.identity(pt), GeneratingSet("I", 1),
                        max_stages=2)
    assert all(st.attached == 0 for st in stages)
    assert stages[-1].residual == []


def test_igc_empty_to_point_attaches_one_vertex():
    empty = FiniteSimplicialSet("empty")
    pt = standard_simplicial_set(0)
    f = SimplicialMap(empty, pt, {})
    stages = igc_factor(f, GeneratingSet("I", 0), max_stages=3)
    assert stages[1].attached == 1
    assert stages[1].complex.counts() == [1]
    assert stages[1].residual == []


def test_igc_tautological_horn_problem():
    H, incl = horn_complex(2, 1)
    stages = igc_factor(incl, GeneratingSet("J", 2), max_stages=1,
                        max_problems=12)
    assert stages[0].residual, "the tautological square must be unsolved"
    assert stages[1].attached >= 1
    # stage invariants: q ∘ j = f on X, j injective
    for st in stages:
        assert st.j.is_injective()
        comp = st.q.compose(st.j)
        for r in H.nondegenerate():
            assert comp.assignment[r.id] == incl.assignment[r.id]


def _random_small_map(seed):
    rng = random.Random(seed)
    complexes = [standard_simplicial_set(1), horn_complex(2, 0)[0],
                 boundary_complex(2)[0], standard_simplicial_set(2)]
    X = complexes[rng.randrange(len(complexes))]
    if rng.random() < 0.5:
        return collapse_map(X)
    maps = list(islice(enumerate_maps(X, standard_simplicial_set(1)), 30))
    return maps[rng.randrange(len(maps))]


@pytest.mark.parametrize("seed", range(5))
def test_igc_stage_invariants_randomized(seed):
    f = _random_small_map(seed)
    f.validate()
    gens = GeneratingSet("J" if seed % 2 else "I", 1)
    stages = igc_factor(f, gens, max_stages=2, max_problems=8)
    for st in stages:
        st.q.validate()
        assert st.j.is_injective()
        comp = st.q.compose(st.j)
        for r in f.source.nondegenerate():
            assert comp.assignment[r.id] == f.assignment[r.id]


# -- numeric horn filling -----------------------------------------------------------

def horn_grid(p, k, steps):
    out = []
    for g in barycentric_grid(p, steps):
        z = g.as_floats()
        if any(z[i] == 0.0 for i in range(p + 1) if i != k):
            out.append(z)
    return out


@pytest.mark.parametrize("p,k", [(2, 0), (2, 2), (3, 1)])
def test_fill_horn_restriction_agrees(p, k):
    filled = fill_horn_numeric(lambda z: z, p, k)
    pts = horn_grid(p, k, 12)
    assert len(pts) >= 100 or p == 2
    for z in pts:
        out = filled(z).coords
        assert max(abs(a - b) for a, b in zip(out, z)) <= 1e-9


def test_fill_horn_constant():
    filled = fill_horn_numeric(lambda z: "c", 2, 0)
    for z in barycentric_grid(2, 5):
        assert filled(z.as_floats()) == "c"


def test_fill_horn_affine_projection():
    # project to the edge <0,1> after retraction; restriction matches
    def proj(z):
        return (float(z[0]), float(z[1]) + float(z[2]))

    filled = fill_horn_numeric(proj, 2, 0)
    for z in horn_grid(2, 0, 20):
        got = filled(z)
        want = proj(Bary(z))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9


# -- invariants ------------------------------------------------------------------

def test_pi0_and_rank_examples():
    B, _ = boundary_complex(2)
    n, _ = pi0(B)
    assert n == 1
    assert edge_group_rank(B)["rank"] == 1

    D = standard_simplicial_set(2)
    assert pi0(D)[0] == 1
    assert edge_group_rank(D)["rank"] == 0

    two = FiniteSimplicialSet("interval and point")
    a = two.add_simplex(0)
    b = two.add_simplex(0)
    two.add_simplex(1, [(EMPTY, a), (EMPTY, b)])
    two.add_simplex(0)
    assert pi0(two)[0] == 2
    with pytest.raises(ValueError):
        edge_group_rank(two)

    # loop edges and degenerate faces: a circle from one loop, and RP^2 as
    # one loop a and one 2-simplex with faces (a, s0 v, a), whose relation
    # 2a kills a over the rationals
    circle = FiniteSimplicialSet("one loop")
    v = circle.add_simplex(0)
    circle.add_simplex(1, [(EMPTY, v), (EMPTY, v)])
    assert edge_group_rank(circle)["rank"] == 1
    rp2 = FiniteSimplicialSet("RP2")
    v = rp2.add_simplex(0)
    a = rp2.add_simplex(1, [(EMPTY, v), (EMPTY, v)])
    rp2.add_simplex(2, [(EMPTY, a), ((0,), v), (EMPTY, a)])
    rp2.validate()
    assert edge_group_rank(rp2) == {
        "vertices": 1, "edges": 1, "generators": 1, "relations": 1,
        "independent_relations": 1, "rank": 0}


def _one_vertex_torus():
    """The Δ-complex torus: one vertex, loops a, b, c and two triangles
    with faces (d_0, d_1, d_2) = (b, c, a) and (a, c, b)."""
    T = FiniteSimplicialSet("torus")
    v = T.add_simplex(0)
    a, b, c = (T.add_simplex(1, [(EMPTY, v), (EMPTY, v)]) for _ in range(3))
    for faces in ((b, c, a), (a, c, b)):
        T.add_simplex(2, [(EMPTY, e) for e in faces])
    T.validate()
    return T


@pytest.mark.parametrize("build, want", [
    # E - V + 1 generators; relations d_0 - d_1 + d_2 of rank E - V + 1
    # on a simplex or its boundary (H_1 = 0), one row twice on the torus
    (lambda: boundary_complex(3)[0], (3, 3, 0)),
    (lambda: standard_simplicial_set(3), (3, 3, 0)),
    (lambda: standard_simplicial_set(4), (6, 6, 0)),
    (_one_vertex_torus, (3, 1, 2)),
], ids=["boundary3", "delta3", "delta4", "torus"])
def test_edge_group_rank_by_hand(build, want):
    got = edge_group_rank(build())
    assert (got["generators"], got["independent_relations"], got["rank"]) == want


def attach_along_horn(X, p, k, rng):
    H, incl = horn_complex(p, k)
    maps = list(islice(enumerate_maps(H, X), 50))
    if not maps:
        return None
    g = maps[rng.randrange(len(maps))]
    P, _, _ = pushout(incl, g)
    return P


@pytest.mark.parametrize("seed", range(5))
def test_pi0_rank_invariant_under_horn_attachment(seed):
    rng = random.Random(seed)
    base = [boundary_complex(2)[0], standard_simplicial_set(2),
            standard_simplicial_set(1), horn_complex(2, 1)[0]]
    X = base[seed % len(base)]
    before = (pi0(X)[0], edge_group_rank(X)["rank"])
    p = rng.choice([1, 2, 3])
    k = rng.randrange(p + 1)
    P = attach_along_horn(X, p, k, rng)
    if P is None:
        pytest.skip("no attaching map")
    after = (pi0(P)[0], edge_group_rank(P)["rank"])
    assert before == after


# -- the square kernel -----------------------------------------------------------

def product_maps(B, X, pins):
    """Every map ``B -> X`` that agrees with ``pins``: the product of the
    images of the cells of ``B`` in ``B.nondegenerate()`` order (a pinned
    cell's pin, every simplex of its dimension for the others), kept when
    ``SimplicialMap.validate`` accepts it."""
    cells = B.nondegenerate()
    out = []
    for imgs in product(*([pins[r.id]] if r.id in pins else list(X.simplices(r.dim))
                          for r in cells)):
        m = SimplicialMap(B, X, {r.id: img for r, img in zip(cells, imgs)})
        try:
            m.validate()
        except ValueError:
            continue
        out.append(m.assignment)
    return out


def pins_of(gen, m):
    """A map out of the generator's source, keyed by the ids in Δ[p] of its
    cells (a subcomplex inclusion puts each on a nondegenerate cell)."""
    return {tgt.id: m[a] for a, (_, tgt) in gen.incl.assignment.items()}


def _kernel_targets():
    D1, D2 = standard_simplicial_set(1), standard_simplicial_set(2)
    squash = SimplicialMap(D2, D1, {   # vertices 0, 1, 2 to 0, 0, 1
        r.id: img for r, img in zip(D2.nondegenerate(), [
            (EMPTY, D1.ref(0)), (EMPTY, D1.ref(0)), (EMPTY, D1.ref(1)),
            ((0,), D1.ref(0)), (EMPTY, D1.ref(2)), (EMPTY, D1.ref(2)),
            ((0,), D1.ref(2))])})
    squash.validate()
    return {"Delta[1]->pt": collapse_map(D1),
            "Boundary[2]->pt": collapse_map(boundary_complex(2)[0]),
            "Horn[2,1]->Delta[2]": horn_complex(2, 1)[1],
            "Delta[2]->Delta[1]": squash}


@pytest.mark.parametrize("target", list(_kernel_targets()))
def test_square_kernel_matches_product_of_images(target):
    """Bottoms and every lift of every square from I<=2 and J<=3, against
    the product of images filtered by validity, the pins and the bottom."""
    f = _kernel_targets()[target]
    X, Y = f.source, f.target
    for gens in (GeneratingSet("I", 2), GeneratingSet("J", 3)):
        squares = list(iter_lifting_problems(f, gens))
        want = []
        for gen in gens.generators():
            B = gen.incl.target
            for top in enumerate_maps(gen.incl.source, X):
                pins = {c: f(img) for c, img in pins_of(gen, top.assignment).items()}
                want += [(gen.name, top.assignment, b) for b in product_maps(B, Y, pins)]
        assert [(s.generator.name, s.top.assignment, s.bottom.assignment)
                for s in squares] == want
        for s in squares:
            bottom = s.bottom.assignment
            lifts = [a for a in product_maps(s.generator.incl.target, X,
                                             pins_of(s.generator, s.top.assignment))
                     if all(f(img) == bottom[c] for c, img in a.items())]
            assert [m.assignment for m in s.lifts(None)] == lifts
            assert s.has_lift() == bool(lifts)


def test_square_kernel_checks_the_pinned_cells():
    # the free cells of these squares have images that agree with the
    # bottom, so only the checks on the pinned cells find them unsolvable
    D1, D2 = standard_simplicial_set(1), standard_simplicial_set(2)
    J10 = GeneratingSet("J", 1).generators()[0]
    assert J10.name == "J(1,0)"
    v0, v1, edge = D1.nondegenerate()
    # bottom sends the horn's vertex 0 to v1, f∘top sends it to v0
    square = LiftingProblem(
        J10, SimplicialMap(J10.incl.source, D1, {0: (EMPTY, v0)}),
        SimplicialMap(D1, D1, {v0.id: (EMPTY, v1), v1.id: (EMPTY, v1),
                               edge.id: (EMPTY, edge)}),
        SimplicialMap.identity(D1))
    assert square.lifts(None) == [] and not square.has_lift()

    # top sends vertex 1 of Λ[2,1] to vertex 0, not to a face of its edges
    J21 = [g for g in GeneratingSet("J", 2).generators() if g.name == "J(2,1)"][0]
    H = J21.incl.source
    top = {r.id: (EMPTY, D2.ref(J21.incl.assignment[r.id][1].id))
           for r in H.nondegenerate()}
    top[vertex_ref(H, (1,)).id] = (EMPTY, vertex_ref(D2, (0,)))
    bottom = pins_of(J21, top)
    for r in D2.nondegenerate():
        bottom.setdefault(r.id, (EMPTY, r))
    square = LiftingProblem(J21, SimplicialMap(H, D2, top),
                            SimplicialMap(D2, D2, bottom), SimplicialMap.identity(D2))
    assert square.lifts(None) == [] and not square.has_lift()


def test_hand_built_square_with_a_non_map_bottom_has_no_lift():
    # bad sends the edge to itself but both vertices to vertex 0, so it does
    # not commute with d_0.  As the bottom, the square commutes on the
    # source and the edge is the image of a filler of the top; as f, the
    # identity bottom's top cell is f of a filler of the top.
    D1 = standard_simplicial_set(1)
    J10 = GeneratingSet("J", 1).generators()[0]
    v0, v1, edge = D1.nondegenerate()
    bad = SimplicialMap(D1, D1, {v0.id: (EMPTY, v0), v1.id: (EMPTY, v0),
                                 edge.id: (EMPTY, edge)})
    with pytest.raises(ValueError):
        bad.validate()
    top = SimplicialMap(J10.incl.source, D1, {0: (EMPTY, v0)})
    ident = SimplicialMap.identity(D1)
    for bottom, f in ((bad, ident), (ident, bad)):
        square = LiftingProblem(J10, top, bottom, f)
        assert square.lifts(None) == [] and not square.has_lift()
    # with maps for both (every cell to its own cell) the same square lifts
    square = LiftingProblem(J10, top, ident, ident)
    assert len(square.lifts(None)) == 1 and square.has_lift()


def test_hand_built_square_that_does_not_fit_its_generator_has_no_lift():
    # f is the identity of Δ[1].  Every corner below is a map, and each
    # square would lift if its corners were not compared with J(1,0) and f:
    # a top out of Δ[1], not Λ[1,0], and a bottom into a second Δ[1], not
    # into f's target.
    D1, other = standard_simplicial_set(1), standard_simplicial_set(1)
    J10 = GeneratingSet("J", 1).generators()[0]
    ident = SimplicialMap.identity(D1)
    horn_top = SimplicialMap(J10.incl.source, D1, {0: (EMPTY, D1.ref(0))})
    into_other = SimplicialMap(D1, other, {r.id: (EMPTY, r)
                                           for r in other.nondegenerate()})
    for top, bottom in ((ident, ident), (horn_top, into_other)):
        square = LiftingProblem(J10, top, bottom, ident)
        assert square.lifts(None) == [] and not square.has_lift()


def test_replaced_square_checks_its_fit_again():
    # the engine's squares skip the fit check; a copy made by replace() does
    # not, so a bottom out of Δ[2] on J(1,0) does not fit
    squares = list(iter_lifting_problems(named_map("delta1_to_delta0"),
                                         GeneratingSet("J", 2)))
    s = squares[0]
    other = next(t for t in squares if t.generator.p == 2)
    assert s.generator.name == "J(1,0)" and s.has_lift()
    moved = replace(s, bottom=other.bottom)
    assert moved.over is None
    assert moved.lifts(None) == [] and not moved.has_lift()
    back = replace(moved, bottom=s.bottom)
    assert back.over == s.over == s.bottom.assignment[s.generator.top]
    assert [m.assignment for m in back.lifts(None)] == \
        [m.assignment for m in s.lifts(None)]
    assert back.has_lift()


def _lookup_targets():
    return {"Delta[3]": standard_simplicial_set(3),
            "Boundary[3]": boundary_complex(3)[0],
            "Cone(Boundary[2])": cone(boundary_complex(2)[0])[0],
            "Delta[0]": standard_simplicial_set(0)}


@pytest.mark.parametrize("target", list(_lookup_targets()))
def test_extensions_are_the_search_restricted_to_the_source(target):
    """A generator's fillers of every map out of its source, for I<=3 and
    J<=3, each built into a map out of Δ[p], are the maps that restrict to
    it, in search order; for J(p,k), horn_fillers lists the same fillers."""
    X = _lookup_targets()[target]
    for gen in GeneratingSet("I", 3).generators() + GeneratingSet("J", 3).generators():
        every = [m.assignment for m in enumerate_maps(gen.incl.target, X)]
        for m in enumerate_maps(gen.incl.source, X):
            pinned = pins_of(gen, m.assignment)
            want = [a for a in every if a.items() >= pinned.items()]
            assert [gen._extension(X, pinned, x) for x in gen._fillers(X, m.assignment)
                    ] == want, gen.name
            if gen.k is not None:
                assert horn_fillers(X, m, gen.p, gen.k) == [a[gen.top] for a in want]


@pytest.mark.parametrize("name", ["horn2_1_incl", "collapse_boundary2",
                                  "delta1_to_delta0", "collapse_horn3_2"])
def test_squares_match_brute_force(name):
    """Every square against I<=3 and J<=3: its lifts are the maps out of Δ[p]
    that restrict to the top and lie over the bottom, in search order.  The
    same square built by hand, which finds the cell a lift must cover
    itself, has the same lifts."""
    f = named_map(name)
    for gens in (GeneratingSet("I", 3), GeneratingSet("J", 3)):
        every = {gen.name: [m.assignment
                            for m in enumerate_maps(gen.incl.target, f.source)]
                 for gen in gens.generators()}
        for s in iter_lifting_problems(f, gens):
            pinned = pins_of(s.generator, s.top.assignment).items()
            bottom = s.bottom.assignment
            want = [a for a in every[s.generator.name] if a.items() >= pinned
                    and all(f(img) == bottom[c] for c, img in a.items())]
            assert [m.assignment for m in s.lifts(None)] == want
            assert s.has_lift() == bool(want)
            by_hand = LiftingProblem(s.generator, s.top, s.bottom, f)
            assert by_hand.over == s.over == bottom[s.generator.top]
            assert [m.assignment for m in by_hand.lifts(None)] == want
            assert by_hand.has_lift() == bool(want)


def test_iter_lifting_problems_looks_up_no_fillers(monkeypatch):
    """Listing the squares builds no lift set: ``Generator._fillers`` is
    called only once a square's lifts are asked for."""
    calls = []
    real = Generator._fillers
    monkeypatch.setattr(Generator, "_fillers",
                        lambda self, X, m: calls.append(1) or real(self, X, m))
    f, gens = named_map("collapse_boundary2"), GeneratingSet("J", 3)
    squares = list(iter_lifting_problems(f, gens))
    assert len(squares) == 92 and calls == []
    squares[0].has_lift()
    assert calls == [1]
    rlp_check(f, gens)
    assert len(calls) > 1


def test_generators_are_built_once_and_listed_fresh():
    gens = GeneratingSet("J", 2)
    first, second = gens.generators(), gens.generators()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    assert len(gens.generators()) == 5
    assert GeneratingSet("J", 3).generators()[:5] == second


def test_horns_are_shared_and_never_grown():
    horns = {(p, k): _shared(p, k)[0] for p in (1, 2, 3) for k in range(p + 1)}
    counts = {pk: A.counts() for pk, A in horns.items()}
    # one cache: the generators' sources are the shared horns
    gens = GeneratingSet("J", 3).generators()
    assert all(g.incl.source is horns[g.p, g.k] for g in gens)
    X = standard_simplicial_set(1)
    first, second = is_kan_up_to(X, 3), is_kan_up_to(X, 3)
    assert first == second
    assert any(e["witness"] for e in first)
    # the Kan check keyed its horn fillers on the shared horns
    assert all(("facets", *pk) in A._cache for pk, A in horns.items())
    f = named_map("delta1_to_delta0")
    assert not rlp_check(f, GeneratingSet("J", 3)).has_rlp
    assert len(igc_factor(f, GeneratingSet("J", 2), 2, max_problems=8)) == 3
    assert {pk: A.counts() for pk, A in horns.items()} == counts
    assert all(_shared(*pk)[0] is A for pk, A in horns.items())


def test_shared_complexes_cannot_grow():
    # the complexes of the generators, which the Kan checks share for the
    # horns, refuse a new cell and keep their cell tables
    horns = [_shared(p, k) for p in (1, 2, 3) for k in range(p + 1)]
    shared = [[X for g in GeneratingSet(kind, 3).generators()
               for X in (g.incl.source, g.incl.target)] for kind in "JI"]
    assert shared[0] == [X for A, incl in horns for X in (A, incl.target)]
    assert shared[1] == [X for p in range(4) for X in (_shared(p, None)[0],
                                                      _shared(p, None)[1].target)]
    tables = [X.to_json_dict() for Xs in shared for X in Xs]
    for X in shared[0] + shared[1]:
        with pytest.raises(ValueError, match="cannot grow"):
            X.add_simplex(0)
    assert [X.to_json_dict() for Xs in shared for X in Xs] == tables
    assert rlp_check(named_map("delta1_to_delta0"), GeneratingSet("J", 2)).checked == 18
    assert rlp_check(named_map("boundary1_to_delta0"), GeneratingSet("I", 1)).checked == 5


# -- one pushout per stage ---------------------------------------------------------

def chain_stage(prev):
    """The stage after ``prev``, glued the way the small-object argument is
    usually written out: one public ``pushout`` per residual problem, in
    order, with ``q`` moved to each pushout's new ids.  Also returns the
    number of new cells."""
    emb = SimplicialMap.identity(prev.complex)
    q, new = prev.q.assignment, 0
    for prob in prev.residual:
        _, in_cell, in_old = pushout(prob.generator.incl, emb.compose(prob.top))
        emb = in_old.compose(emb)
        moved = {i: tgt.id for i, (_, tgt) in in_old.assignment.items()}
        q = {moved[i]: img for i, img in q.items()}
        for r, (word, tgt) in in_cell.assignment.items():
            if word == EMPTY and tgt.id not in q:
                q[tgt.id] = prob.bottom.assignment[r]
                new += 1
    return emb.target, q, emb.compose(prev.j).assignment, new


STAGE_MAPS = ["delta1_to_delta0", "boundary1_to_delta0", "delta0_identity",
              "empty_to_delta0", "horn1_0_incl", "horn1_1_incl", "horn2_0_incl",
              "horn2_1_incl", "horn2_2_incl", "collapse_delta1", "collapse_delta2",
              "collapse_boundary2", "collapse_horn2_0", "collapse_horn2_1"]
#: the towers that take over 2 s (8 s to many minutes): J<=2, no cap
SLOW_TOWERS = {(name, "J", None) for name in STAGE_MAPS
               if name == "delta1_to_delta0" or name.startswith("collapse_")}


@pytest.mark.parametrize("name", STAGE_MAPS)
def test_one_pushout_per_stage_matches_the_chain(name):
    for kind, cap in product("IJ", (1, 8, None)):
        if (name, kind, cap) in SLOW_TOWERS:
            continue
        stages = igc_factor(named_map(name), GeneratingSet(kind, 2), 3, cap)
        for prev, st in zip(stages, stages[1:]):
            P, q, j, new = chain_stage(prev)
            assert (st.complex.to_json_dict(), sorted(st.complex.labels.items())) == \
                (P.to_json_dict(), sorted(P.labels.items()))
            assert st.q.assignment == q and st.j.assignment == j
            assert st.attached == new


# -- the engine against a brute-force reference ------------------------------------

#: the rlp and igc cases of the benchmark's glue plan, for every Λ[2,a]
#: (a = 0-2) and Λ[3,b] (b = 0-3) that it can pick
GLUE_RLP = sorted(
    {("collapse_boundary3", "J", 3), ("collapse_delta3", "I", 3),
     ("collapse_boundary2", "J", 3), ("collapse_delta2", "I", 3),
     ("delta1_to_delta0", "J", 3), ("boundary1_to_delta0", "J", 3),
     ("boundary1_to_delta0", "I", 3), ("delta0_identity", "J", 3)}
    | {case for b in range(4) for case in ((f"collapse_horn3_{b}", "J", 2),
                                           (f"horn3_{b}_incl", "J", 2))}
    | {case for a in range(3) for case in (
        (f"horn2_{a}_incl", "J", 3), (f"horn2_{a}_incl", "I", 3),
        (f"collapse_horn2_{a}", "J", 3), (f"collapse_horn2_{a}", "I", 3))})
GLUE_IGC = ([(f"horn2_{a}_incl", "J", 2, 3, 8) for a in range(3)]
            + [(f"horn2_{a}_incl", "I", 2, 3, 16) for a in range(3)]
            + [("delta1_to_delta0", "J", 2, 3, 8), ("collapse_boundary2", "I", 2, 3, 16),
               ("collapse_boundary2", "J", 2, 2, 8)])


def brute_squares(f, gens):
    """``(square, lifts)`` for every commutative square from the generating
    set to ``f``, in (generator, top, bottom) order: each map ``B → Y`` that
    agrees with ``f ∘ top`` on ``A`` is a bottom, and the square lifts when
    some map ``B → X`` restricts to ``top`` and lies over the bottom."""
    out = []
    for gen in gens.generators():
        A, B, incl = gen.incl.source, gen.incl.target, gen.incl.assignment
        bottoms = list(enumerate_maps(B, f.target))
        over = {}   # the maps B -> X by their restriction to A
        for d in enumerate_maps(B, f.source):
            over.setdefault(tuple(d(incl[r.id]) for r in A.nondegenerate()), []).append(d)
        for top in enumerate_maps(A, f.source):
            below = [f(top.assignment[r.id]) for r in A.nondegenerate()]
            diagonals = over.get(tuple(top.assignment[r.id] for r in A.nondegenerate()), [])
            for bottom in bottoms:
                if [bottom(incl[r.id]) for r in A.nondegenerate()] != below:
                    continue
                lifts = any(all(f(img) == bottom.assignment[c]
                                for c, img in d.assignment.items()) for d in diagonals)
                out.append(({"generator": gen.name, "top": top.to_json_dict(),
                             "bottom": bottom.to_json_dict()}, lifts))
    return out


@pytest.mark.parametrize("name, kind, dim", GLUE_RLP)
def test_rlp_check_matches_brute_force(name, kind, dim):
    f, gens = named_map(name), GeneratingSet(kind, dim)
    squares = brute_squares(f, gens)
    report = rlp_check(f, gens)
    assert report.checked == len(squares)
    failing = [sq for sq, lifts in squares if not lifts]
    assert len(report.failures) == len(failing)
    assert [p.to_json_dict() for p in report.failures] == failing
    # iter_lifting_problems still yields every square, lifts or not
    assert [(p.to_json_dict(), p.has_lift())
            for p in iter_lifting_problems(f, gens)] == squares


def test_rlp_check_keeps_the_order_of_the_bottoms_on_one_top():
    # ∂Δ[2] into two 2-cells glued along their boundary: the identity top
    # has two bottoms and neither lifts, so the failures keep their order
    A, incl = boundary_complex(2)
    other = SimplicialMap(A, standard_simplicial_set(2), incl.assignment)
    _, _, in_other = pushout(incl, other)
    f, gens = in_other.compose(other), GeneratingSet("I", 2)
    report = rlp_check(f, gens)
    assert [p.to_json_dict() for p in report.failures] == \
        [sq for sq, lifts in brute_squares(f, gens) if not lifts]
    assert [p.top.assignment for p in report.failures] == \
        [SimplicialMap.identity(A).assignment] * 2


@pytest.mark.parametrize("name, kind, dim, max_stages, cap", GLUE_IGC)
def test_igc_factor_matches_brute_force(name, kind, dim, max_stages, cap):
    """Each stage's residual is the first ``cap`` failing squares of its
    ``q``, and each stage glues what one public pushout per problem of the
    stage before glues."""
    f, gens = named_map(name), GeneratingSet(kind, dim)
    stages = igc_factor(f, gens, max_stages, cap)
    assert len(stages) == max_stages + 1 or not stages[-1].residual
    for n, st in enumerate(stages):
        if n:
            P, _, _, new = chain_stage(stages[n - 1])
        else:
            P, new = f.source, 0
        failing = [sq for sq, lifts in brute_squares(st.q, gens) if not lifts][:cap]
        assert (st.attached, sum(st.complex.counts()), len(st.residual)) == \
            (new, sum(P.counts()), len(failing))
        assert [p.to_json_dict() for p in st.residual] == failing


@pytest.mark.parametrize("cap", [0, -3])
def test_igc_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="max_problems"):
        igc_factor(named_map("horn2_1_incl"), GeneratingSet("J", 2), 1, cap)


@pytest.mark.parametrize("kind", "IJ")
def test_a_non_map_is_refused_where_it_enters_the_engine(kind):
    # both vertices of Δ[1] to vertex 0 and the edge to itself: not a map
    D1 = standard_simplicial_set(1)
    v0, _, edge = D1.nondegenerate()
    f = SimplicialMap(D1, D1, {0: (EMPTY, v0), 1: (EMPTY, v0), 2: (EMPTY, edge)})
    gens = GeneratingSet(kind, 2)
    with pytest.raises(ValueError, match="does not commute"):
        rlp_check(f, gens)
    with pytest.raises(ValueError, match="does not commute"):
        igc_factor(f, gens, max_stages=0)
    squares = iter_lifting_problems(f, gens)   # checked at its first square
    with pytest.raises(ValueError, match="does not commute"):
        next(squares)


@pytest.mark.parametrize("kind, max_dim", [("J", 0), ("J", -1), ("I", -1)])
def test_generating_set_rejects_a_bound_with_no_generators(kind, max_dim):
    # J has no generator below Δ[1]: an empty J would check nothing and
    # report the lifting property
    with pytest.raises(ValueError, match="max_dim"):
        GeneratingSet(kind, max_dim)
    assert GeneratingSet("I", 0).generators() and GeneratingSet("J", 1).generators()


@pytest.mark.parametrize("call, message", [
    (lambda: GeneratingSet("K", 1), "kind must be 'I' or 'J'"),
    (lambda: igc_factor(named_map("delta1_to_delta0"), GeneratingSet("J", 1), -1),
     "max_stages must be nonnegative"),
])
def test_engine_rejections(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
