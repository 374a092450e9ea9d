import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from toricstab import (
    Empty,
    HalfSpace,
    NotFullDimensional,
    OriginNotInterior,
    Poly,
    Polytope,
    Unbounded,
    integrate,
    is_reflexive_delzant,
    polar_dual,
    polytope,
)
from toricstab.errors import ValidationError
from toricstab.plfun import AffineFn, PLFn
from toricstab.polytope import (
    Simplex,
    facet_chart,
    intersect_halfspace,
    lattice_isomorphisms,
)

import oracles

B2_SYSTEM = [
    ((-1, 0, 0), 1),
    ((0, -1, 0), 1),
    ((0, 0, -1), 1),
    ((0, 0, 1), 1),
    ((1, 1, 1), 1),
]

B2_VERTICES = sorted(
    tuple(map(F, v))
    for v in [(-1, -1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, -1), (3, -1, -1), (-1, 3, -1)]
)


def test_cube_vertices(cube):
    assert len(cube.vertices) == 8
    assert all(abs(x) == 1 for v in cube.vertices for x in v)


def test_b2_vertex_enumeration():
    p = Polytope.from_halfspaces(B2_SYSTEM)
    assert sorted(p.vertices) == B2_VERTICES
    # every vertex is tight on at least three facets
    for v in p.vertices:
        assert sum(1 for h in p.halfspaces if h.tight(v)) >= 3


def test_b1_vertices_match_published_hull(corpus_entries):
    p = corpus_entries["B1"].polytope
    published = sorted(
        tuple(map(F, v))
        for v in [(0, -1, 1), (4, -1, -1), (-1, -1, -1), (-1, -1, 1), (-1, 4, -1), (-1, 0, 1)]
    )
    assert sorted(p.vertices) == published


def test_unbounded_detected():
    with pytest.raises(Unbounded):
        Polytope.from_halfspaces([((1, 0), 1), ((0, 1), 1), ((0, -1), 1)])


def test_empty_detected():
    with pytest.raises(Empty):
        Polytope.from_halfspaces([((1,), 0), ((-1,), -1)])


def test_hull_of_cube_vertices(cube):
    q = Polytope.from_vertices(cube.vertices)
    assert sorted((h.normal, h.rhs) for h in q.halfspaces) == sorted(
        (h.normal, h.rhs) for h in cube.halfspaces
    )


def test_hull_of_flat_points_rejected():
    with pytest.raises(NotFullDimensional):
        Polytope.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


@pytest.mark.parametrize(
    "points, dim",
    [
        ([(0, 0), (1, 0, 0), (0, 1)], 2),
        ([(0, 0, 0), (1, 0), (0, 1)], 2),
        ([(0, 0), (1, 0), (0, 1)], 3),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 2),
    ],
)
def test_halfspaces_from_vertices_mixed_lengths_rejected(points, dim):
    with pytest.raises(ValidationError, match="mixed ambient dimensions"):
        polytope.halfspaces_from_vertices(points, dim)


def _b2_point_tests():
    b2 = Polytope.from_halfspaces(B2_SYSTEM)
    h = b2.halfspaces[0]
    return [h.value, h.contains, h.tight, b2.contains]


@pytest.mark.parametrize(
    "evaluators",
    [
        [Poly.coordinate(3, 2)],
        [AffineFn.make([1, 0, 0], 0)],
        [PLFn.simple([1, 0, 0], 0)],
        _b2_point_tests(),
    ],
    ids=["Poly", "AffineFn", "PLFn", "HalfSpace"],
)
def test_points_of_the_wrong_length_rejected(evaluators):
    # a 3-variable function or half-space takes a point with 3 coordinates
    for evaluate in evaluators:
        assert evaluate((0, 0, 1)) is not None
        for point in ((1, 2), (0, 0, 0, 5)):
            with pytest.raises(ValidationError, match="a point of length"):
                evaluate(point)


def test_hull_2simplex(simplex2d):
    got = sorted((h.normal, h.rhs) for h in simplex2d.halfspaces)
    assert got == sorted([((-1, 0), F(0)), ((0, -1), F(0)), ((1, 1), F(1))])


def test_hull_of_published_excess_region_slab(corpus_entries):
    verts = [
        (4, -1, -1),
        (F(39, 10), -1, F(-19, 20)),
        (-1, -1, F(-19, 20)),
        (-1, F(39, 10), F(-19, 20)),
        (-1, -1, -1),
        (-1, 4, -1),
    ]
    slab = Polytope.from_vertices(verts)
    facets = {(h.normal, h.rhs) for h in slab.halfspaces}
    assert ((0, 0, 1), F(-19, 20)) in facets  # x3 <= -19/20
    assert ((0, 0, -1), F(1)) in facets  # x3 >= -1


def test_halfspace_canonicalized_to_primitive():
    h = HalfSpace.make((F(2, 3), 0, F(4, 3)), 2)
    assert h.normal == (1, 0, 2)
    assert h.rhs == F(3)


def test_roundtrip_on_corpus(corpus_entries):
    for entry in corpus_entries.values():
        p = entry.polytope
        again = Polytope.from_vertices(p.vertices)
        assert sorted((h.normal, h.rhs) for h in again.halfspaces) == sorted(
            (h.normal, h.rhs) for h in p.halfspaces
        )
        assert again.vertices == p.vertices


def test_roundtrip_on_random_simplices():
    rng = random.Random(23)
    for _ in range(10):
        dim = rng.randint(2, 3)
        s = oracles.random_simplex(rng, dim)
        p = Polytope.from_vertices(s.vertices)
        q = Polytope.from_halfspaces([(h.normal, h.rhs) for h in p.halfspaces])
        assert q.vertices == p.vertices


def test_polar_dual_cube_is_cross(cube, cross_polytope):
    assert polar_dual(cube) == cross_polytope
    assert polar_dual(cross_polytope) == cube


def test_polar_dual_orbifold_vertices(corpus_entries):
    raw = corpus_entries["ORB-530571"].raw
    fano = Polytope.from_vertices(raw["fano_vertices"])
    dual = polar_dual(fano)
    want = sorted(tuple(map(F, v)) for v in raw["dual_vertices"])
    assert sorted(dual.vertices) == want
    assert polar_dual(dual) == fano


def test_polar_dual_involution_on_corpus(corpus_entries):
    for name in ("CP3", "B1", "C2", "E4", "F1"):
        p = corpus_entries[name].polytope
        assert polar_dual(polar_dual(p)) == p


def test_polar_dual_needs_interior_origin():
    shifted = Polytope.from_vertices([(1, 0), (2, 0), (1, 1)])
    with pytest.raises(OriginNotInterior):
        polar_dual(shifted)


def test_intersect_halfcube(cube):
    half = intersect_halfspace(cube, (1, 0, 0), 0)
    assert half.volume() == 4


def test_intersect_empty_interior(cube):
    assert intersect_halfspace(cube, (1, 0, 0), -1) is None
    assert intersect_halfspace(cube, (1, 0, 0), -2) is None


def test_intersect_redundant_keeps_vertices(cube):
    q = intersect_halfspace(cube, (1, 1, 1), 100)
    assert q.vertices == cube.vertices


def test_intersect_non_simple_apex(cross_polytope):
    # cutting through the non-simple vertex structure: pyramid over a square
    half = intersect_halfspace(cross_polytope, (1, 0, 0), 0)
    want = sorted(
        tuple(map(F, v))
        for v in [(-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert sorted(half.vertices) == want
    assert half.volume() == F(2, 3)


def test_intersect_matches_full_reconstruction(corpus_entries, cross_polytope):
    # the incremental edge cut must agree with rebuilding from scratch
    rng = random.Random(97)
    bodies = [
        cross_polytope,
        corpus_entries["B1"].polytope,
        corpus_entries["E1"].polytope,
        corpus_entries["ORB-530571"].polytope,
    ]
    for p in bodies:
        for _ in range(8):
            normal = [rng.randint(-3, 3) for _ in range(p.dim)]
            if all(x == 0 for x in normal):
                normal[0] = 1
            rhs = F(rng.randint(-4, 4), rng.randint(1, 3))
            fast = intersect_halfspace(p, normal, rhs)
            try:
                slow = Polytope.from_halfspaces(
                    [(h.normal, h.rhs) for h in p.halfspaces]
                    + [(tuple(normal), rhs)]
                )
            except (Empty, NotFullDimensional, Unbounded):
                slow = None
            if slow is None:
                assert fast is None
            else:
                assert fast is not None
                assert fast.vertices == slow.vertices
                assert sorted((h.normal, h.rhs) for h in fast.halfspaces) == sorted(
                    (h.normal, h.rhs) for h in slow.halfspaces
                )


def test_triangulate_simplex_is_itself(simplex2d):
    cells = simplex2d.triangulation()
    assert len(cells) == 1
    assert cells[0].volume() == F(1, 2)


def test_triangulate_cube_volume(cube):
    assert cube.volume() == 8
    assert sum(s.volume() for s in cube.triangulation()) == 8


def test_triangulation_apex_choice_conserves_volume(corpus_entries, cube):
    for p in (cube, corpus_entries["B2"].polytope, corpus_entries["E4"].polytope):
        a = sum(s.volume() for s in p.triangulation())
        b = sum(s.volume() for s in oracles.chart_triangulation(p, apex_last=True))
        assert a == b == p.volume()


def test_one_determinant_per_simplex(monkeypatch):
    # The triangulation takes each cell's volume to drop flat cells; the
    # polytope's volume and every integral over the cells reuse it.
    calls = []
    det = polytope.determinant

    def counting(m):
        calls.append(len(m))
        return det(m)

    monkeypatch.setattr(polytope, "determinant", counting)
    p = Polytope.from_halfspaces(B2_SYSTEM)
    cells = p.triangulation()
    taken = len(calls)
    assert taken >= len(cells)
    assert p.volume() == F(28, 3)
    integrate(p, Poly.coordinate(3, 0))
    integrate(p, Poly.coordinate(3, 1) * Poly.coordinate(3, 2))
    assert len(calls) == taken


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_pulling_triangulation_matches_the_plain_recursion(dim):
    # Simplex faces taken as their own cells, and the facets of a face read
    # only among its sub-faces with enough vertices, give the cells, weights
    # and bases of the plain recursion, tuple for tuple and in the same
    # order: on random polytopes and on their cuts.  The recursion from the
    # last vertex, a different decomposition, gives the same total weights.
    rng = random.Random(20 + dim)
    simplices = 0
    for _ in range(3):
        p = oracles.random_polytope(rng, dim, points=dim + 3)
        normal = [rng.randint(-3, 3) or 1 for _ in range(dim)]
        rhs = sum(a * x for a, x in zip(normal, oracles.interior_point(p)))
        for q in (p, intersect_halfspace(p, normal, rhs)):
            (cells, weights, base), facets = oracles.recursive_weighted_cells(q)
            got = polytope._weighted_cells(q, None)
            assert (list(got[0]), list(got[1]), got[2]) == (cells, weights, base)
            want = [tuple(q.vertices[j] for j in cell) for cell in cells]
            assert [s.vertices for s in q.triangulation()] == want
            for i, (cells, weights, base) in enumerate(facets):
                got = polytope._weighted_cells(q, i)
                assert (tuple(got[0]), list(got[1]), got[2]) == (cells, weights, base)
                simplices += len(cells) == 1 and q.incidence[i].bit_count() == dim
            (_, weights, base), facets = oracles.recursive_weighted_cells(q, apex_last=True)
            assert (sum(weights), base) == (q.moments().mass, q.moments().base)
            for i, (_, weights, base) in enumerate(facets):
                assert (sum(weights), base) == (q.facet_moments(i).mass, q.facet_moments(i).base)
    assert simplices


def test_simplex_volume_is_its_record_measure():
    # A simplex weighs |det| of its integer edges in its moment record, and
    # its volume is that record's measure: |det| / n! of its rational edges,
    # a Fraction, flat simplices included.
    half = Simplex(((0, 0), (1, 0), (0, 1))).volume()
    assert type(half) is F and half == F(1, 2)
    assert Simplex(((0, 0), (1, 1), (F(5, 2), F(5, 2)))).volume() == 0
    rng = random.Random(2101)
    for dim in range(1, 7):
        for _ in range(6):
            verts = tuple(
                tuple(oracles.random_fraction(rng) for _ in range(dim)) for _ in range(dim + 1)
            )
            edges = [[v[k] - verts[0][k] for k in range(dim)] for v in verts[1:]]
            want = abs(oracles.fraction_determinant(edges)) / math.factorial(dim)
            volume = Simplex(verts).volume()
            assert type(volume) is F and volume == want, verts


def test_b2_volume(corpus_entries):
    assert corpus_entries["B2"].polytope.volume() == F(28, 3)


def test_facet_chart_cube(cube):
    idx = next(
        i for i, h in enumerate(cube.halfspaces) if h.normal == (1, 0, 0)
    )
    chart = facet_chart(cube, idx)
    assert chart.scale == 1
    assert chart.polytope.volume() == 4
    lifted = oracles.lift_from_chart(chart, (F(0), F(0)))
    assert lifted == (F(1), F(0), F(0))


def test_facet_chart_cp2_hypotenuse(cp2):
    idx = next(i for i, h in enumerate(cp2.halfspaces) if h.normal == (1, 1))
    chart = facet_chart(cp2, idx)
    assert chart.scale == 1
    assert chart.polytope.volume() == 3  # lattice length of the sloped edge


def test_boundary_measure_b2(corpus_entries):
    p = corpus_entries["B2"].polytope
    assert p.boundary_volume() == 28
    assert p.boundary_volume() == 3 * p.volume()


def test_reflexive_delzant_cube(cube):
    assert is_reflexive_delzant(cube) == (True, True)


def test_reflexive_delzant_b1(corpus_entries):
    assert is_reflexive_delzant(corpus_entries["B1"].polytope) == (True, True)


def test_cross_polytope_not_delzant(cross_polytope):
    assert is_reflexive_delzant(cross_polytope) == (True, False)


def test_orbifold_model_not_reflexive(corpus_entries):
    reflexive, _ = is_reflexive_delzant(corpus_entries["ORB-530571"].polytope)
    assert not reflexive


def test_dimension_guard():
    with pytest.raises(ValidationError):
        Polytope.from_halfspaces([((1,) + (0,) * 6, 1), ((-1,) + (0,) * 6, 1)])


def test_empty_and_mixed_input_rejected():
    for build, raw, message in (
        (Polytope.from_vertices, [], "no points"),
        (Polytope.from_halfspaces, [], "no half-spaces"),
        (Polytope.from_vertices, [(0, 0), (1, 0, 0), (0, 1)], "mixed ambient dimensions"),
        (Polytope.from_halfspaces, [((1, 0), 1), ((-1, 0, 0), 1)], "mixed ambient dimensions"),
    ):
        with pytest.raises(ValidationError, match=message):
            build(raw)


# Orders of the groups of linear lattice automorphisms.
GROUP_ORDERS = {
    "cube": 48, "CP3": 24, "C3": 48, "B1": 6, "E2": 2, "CP1xB1": 12, "cp2": 6, "simplex2": 2,
}


def test_lattice_automorphisms_match_the_brute_scan(cube, cp2, simplex2d, corpus_entries):
    # The pruned enumeration against a scan of every injective tuple of
    # vertex images; each matrix is integral, unimodular and permutes the
    # vertices.  The isomorphisms of P onto a seeded unimodular image M P
    # are as many as the automorphisms, and M is one of them.
    rng = random.Random(39)
    polytopes = [cube, cp2, simplex2d, oracles.cp1_times(corpus_entries["B1"].polytope)]
    polytopes += [corpus_entries[name].polytope for name in ("CP3", "C3", "B1", "E2")]
    for p in polytopes:
        group = lattice_isomorphisms(p, p)
        assert len(group) == GROUP_ORDERS[p.name], p.name
        assert group == oracles.brute_lattice_isomorphisms(p, p), p.name
        assert tuple(tuple(int(i == j) for j in range(p.dim)) for i in range(p.dim)) in group
        vertices = set(p.vertices)
        for m in group:
            assert all(type(x) is int for row in m for x in row)
            assert abs(oracles.fraction_determinant(m)) == 1
            images = {tuple(sum(a * x for a, x in zip(row, v)) for row in m) for v in p.vertices}
            assert images == vertices
        m = oracles.random_unimodular(rng, p.dim)
        image = oracles.linear_image(m, p)
        maps = lattice_isomorphisms(p, image)
        assert maps == oracles.brute_lattice_isomorphisms(p, image), p.name
        assert len(maps) == len(group) and tuple(map(tuple, m)) in maps, p.name


def test_lattice_isomorphisms_reject_what_the_prune_lets_through():
    # In each case a full choice of vertex images passes the signature prune
    # and one final check must reject it.  The square [-1, 1]^2 is the image
    # of the diamond |x| + |y| <= 1 under (x, y) -> (x + y, x - y), of
    # determinant -2.
    diamond = Polytope.from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1)])
    square = Polytope.from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert lattice_isomorphisms(diamond, square) == []
    assert oracles.brute_lattice_isomorphisms(diamond, square) == []
    # A rational map onto the image of this parallelogram, rounded down,
    # would be an isomorphism found a second time.
    p = Polytope.from_vertices([(-3, 3), (-1, -3), (1, 3), (3, -3)])
    q = oracles.linear_image(((-3, -1), (4, 1)), p)
    assert lattice_isomorphisms(p, q) == [((-3, -1), (4, 1)), ((3, 1), (-4, -1))]
    assert lattice_isomorphisms(p, q) == oracles.brute_lattice_isomorphisms(p, q)
    # (x, y) -> (x, -x - y) keeps this hexagon's normals and swaps its vertex
    # basis (-2, 0), (-2, 2), but maps the vertex (-1, -1) to (-1, 2).
    hexagon = Polytope.from_halfspaces(
        [((1, 0), 1), ((-1, 0), 2), ((0, 1), 2), ((0, -1), 1), ((1, 1), 2), ((-1, -1), 2)]
    )
    group = lattice_isomorphisms(hexagon, hexagon)
    assert group == [((0, -1), (-1, 0)), ((1, 0), (0, 1))]
    assert group == oracles.brute_lattice_isomorphisms(hexagon, hexagon)


@pytest.fixture(scope="module")
def reflexive_polygons():
    return oracles.reflexive_polygons()


# The three reflexive polygons on which the radial certificate fails and the
# destabilizer search finds no witness up to grid 4.
HARD_POLYGONS = (
    [(-1, 1), (0, -1), (3, -1)],
    [(-1, 1), (0, -1), (0, 1), (2, -3)],
    [(-1, 1), (0, -1), (1, -2), (1, 0)],
)


def test_there_are_sixteen_reflexive_polygons(reflexive_polygons):
    # Poonen and Rodriguez-Villegas, "Lattice polygons and the number 12"
    # (Amer. Math. Monthly 107, 2000): 16 classes up to GL(2, Z).  With 0
    # the one interior point, Pick's formula gives b = 2 vol boundary points.
    assert len(reflexive_polygons) == 16
    boundary = Counter(2 * p.volume() for p in reflexive_polygons)
    assert boundary == {3: 1, 4: 3, 5: 2, 6: 4, 7: 2, 8: 3, 9: 1}
    for vertices in HARD_POLYGONS:
        hard = Polytope.from_vertices(vertices)
        assert sum(bool(lattice_isomorphisms(hard, q)) for q in reflexive_polygons) == 1, vertices


def test_reflexive_polygons_are_closed_under_polar_duality(reflexive_polygons):
    # The dual of a reflexive polygon with b boundary points is a reflexive
    # polygon with 12 - b.
    for p in reflexive_polygons:
        dual = polar_dual(p)
        matches = [q for q in reflexive_polygons if lattice_isomorphisms(dual, q)]
        assert len(matches) == 1 and 2 * matches[0].volume() == 12 - 2 * p.volume()
