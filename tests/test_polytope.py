import random
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
    intersect_halfspace,
    is_reflexive_delzant,
    polar_dual,
    polytope,
)
from toricstab.errors import ValidationError
from toricstab.polytope import facet_chart

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
        b = sum(s.volume() for s in p.triangulation(apex_last=True))
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
