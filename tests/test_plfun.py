import random
from fractions import Fraction as F

import pytest

from toricstab import (
    DegenerateSpan,
    Poly,
    integrate,
    integrate_pl,
    upper_hull,
)
from toricstab import corpus
from toricstab.errors import ValidationError
from toricstab.lattice import lattice_points
from toricstab.plfun import (
    AffineFn,
    PLFn,
    boundary_integrate_pl,
    linearity_regions,
    pl_is_rational_lattice_cone,
)
from toricstab.stability import excess_region, extremal_affine

import oracles


def test_regions_half_cubes(cube):
    u = PLFn.simple((1, 0, 0), 0)
    regions = linearity_regions(cube, u)
    assert len(regions) == 2
    assert sorted(r.volume() for r, _ in regions) == [4, 4]


def test_regions_single_affine(cube):
    u = PLFn.convex([AffineFn.make((1, 2, 3), 4)])
    regions = linearity_regions(cube, u)
    assert len(regions) == 1
    assert regions[0][0] is cube


def test_regions_theta_witness_split(corpus_entries):
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    u = PLFn.convex([AffineFn.zero(3), AffineFn(ed.theta.a, ed.theta.c - 1)])
    regions = linearity_regions(b1, u)
    assert len(regions) == 2
    minus = excess_region(b1, ed)
    by_piece = {piece.c: region for region, piece in regions}
    assert sorted(by_piece[ed.theta.c - 1].vertices) == sorted(minus.vertices)
    assert sum(r.volume() for r, _ in regions) == b1.volume()


def test_region_volumes_partition_random():
    rng = random.Random(31)
    for _ in range(8):
        p = oracles.random_polytope(rng, rng.randint(2, 3))
        u = oracles.random_convex_pl(rng, p.dim)
        regions = linearity_regions(p, u)
        assert sum(r.volume() for r, _ in regions) == p.volume()


def test_integrate_pl_half_cube(cube):
    one = Poly.constant(3, 1)
    assert integrate_pl(cube, one, PLFn.simple((1, 0, 0), 0)) == 2


def test_integrate_pl_absolute_value(cube):
    one = Poly.constant(3, 1)
    u = PLFn.convex([AffineFn.make((1, 0, 0), 0), AffineFn.make((-1, 0, 0), 0)])
    assert integrate_pl(cube, one, u) == 4


def test_integrate_pl_matches_slice_route(corpus_entries):
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    u = PLFn.convex([AffineFn.zero(3), AffineFn(ed.theta.a, ed.theta.c - 1)])
    minus = excess_region(b1, ed)
    theta_minus_1 = Poly.affine(ed.theta.a, ed.theta.c - 1)
    assert integrate_pl(b1, Poly.constant(3, 1), u) == integrate(minus, theta_minus_1)


def test_integrate_pl_reorder_and_redundant_invariance(cube):
    one = Poly.constant(3, 1)
    f = AffineFn.make((1, 0, 0), 0)
    zero = AffineFn.zero(3)
    base = integrate_pl(cube, one, PLFn.convex([zero, f]))
    assert integrate_pl(cube, one, PLFn.convex([f, zero])) == base
    redundant = AffineFn.make((F(1, 2), 0, 0), -10)  # never active
    assert integrate_pl(cube, one, PLFn.convex([zero, f, redundant])) == base


def test_add_affine_shifts_integral(cube):
    rng = random.Random(41)
    one = Poly.constant(3, 1)
    for _ in range(5):
        u = oracles.random_convex_pl(rng, 3)
        ell = oracles.random_affine(rng, 3)
        lhs = integrate_pl(cube, one, u.add_affine(ell))
        rhs = integrate_pl(cube, one, u) + integrate(cube, ell.as_poly())
        assert lhs == rhs


def test_boundary_integrate_pl_cube(cube):
    one = Poly.constant(3, 1)
    # max{0, x1}: facet x1=1 gives 4, x1=-1 gives 0, each side facet gives 1
    assert boundary_integrate_pl(cube, one, PLFn.simple((1, 0, 0), 0)) == 8


def test_upper_hull_affine_nodes():
    fn = AffineFn.make((2, -1), F(1, 2))
    nodes = [((x, y), fn((x, y))) for x in range(-1, 2) for y in range(-1, 2)]
    hull = upper_hull(nodes)
    assert len(hull.pieces) == 1
    assert hull.pieces[0] == fn


def test_upper_hull_tent_1d():
    hull = upper_hull([((F(0),), F(0)), ((F(1),), F(2)), ((F(2),), F(0))])
    assert sorted((p.a, p.c) for p in hull.pieces) == [
        ((F(-2),), F(4)),
        ((F(2),), F(0)),
    ]


def test_upper_hull_center_spike(cube):
    nodes = [
        (tuple(map(F, z)), F(1) if z == (0, 0, 0) else F(0))
        for z in lattice_points(cube, 1)
    ]
    hull = upper_hull(nodes)
    assert len(hull.pieces) == 6
    assert hull((0, 0, 0)) == 1
    assert hull((1, 1, 1)) == 0


def test_upper_hull_dominates_nodes_and_concave():
    rng = random.Random(53)
    grid = [(x, y) for x in range(3) for y in range(3)]
    for _ in range(6):
        nodes = [(tuple(map(F, g)), oracles.random_fraction(rng)) for g in grid]
        hull = upper_hull(nodes)
        for a, v in nodes:
            assert hull(a) >= v
        # each piece supports the hull at >= dim+1 nodes
        for piece in hull.pieces:
            tight = sum(1 for a, v in nodes if piece(a) == hull(a) == v)
            assert tight >= 1
        # concavity along random chords
        for _ in range(10):
            a = tuple(oracles.random_fraction(rng, 2, 2) + 1 for _ in range(2))
            b = tuple(oracles.random_fraction(rng, 2, 2) + 1 for _ in range(2))
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            assert 2 * hull(mid) >= hull(a) + hull(b)


def test_upper_hull_needs_span():
    with pytest.raises(DegenerateSpan):
        upper_hull([((0, 0), F(1)), ((1, 1), F(2)), ((2, 2), F(0))])


def test_upper_hull_mixed_lengths_rejected():
    with pytest.raises(ValidationError, match="mixed ambient dimensions"):
        upper_hull([((0, 0), F(1)), ((1, 0, 0), F(2)), ((0, 1), F(0)), ((1, 1), F(0))])
    with pytest.raises(ValidationError, match="mixed ambient dimensions"):
        upper_hull([((0, 0, 0), F(1)), ((1, 0), F(2)), ((0, 1), F(0)), ((1, 1), F(0))])


def test_pl_pieces_of_mixed_dimensions_rejected():
    # every piece lives in one ambient space; the pairings would otherwise
    # truncate to the shorter gradient and give a number
    with pytest.raises(ValidationError, match="mixed ambient dimensions"):
        PLFn.concave([AffineFn.make((1, 2), 0), AffineFn.zero(3)])


def test_lattice_cone_predicate(cube):
    u = PLFn.simple((1, 0, 0), 0)
    assert pl_is_rational_lattice_cone(cube, u, 1, 2)
    half = PLFn.simple((F(1, 2), 0, 0), 0)
    assert not pl_is_rational_lattice_cone(cube, half, 1, 2)
    assert pl_is_rational_lattice_cone(cube, half, 2, 2)


def test_plfn_json_roundtrip():
    u = PLFn.convex([AffineFn.make((1, F(-2, 3)), F(1, 2)), AffineFn.zero(2)])
    data = u.to_json()
    assert data["mode"] == "convex"
    again = PLFn(tuple(AffineFn.make(q["a"], q["c"]) for q in data["pieces"]), data["mode"])
    assert again == u


def test_boundary_integrate_pl_matches_chart_split(corpus_entries):
    # Each facet chart split into the linearity regions of the restriction
    # is the second route to the region-facet one.
    rng = random.Random(41)
    for p in (corpus_entries["B1"].polytope, corpus_entries["C4"].polytope):
        for pieces in (1, 2, 3):
            u = oracles.random_convex_pl(rng, 3, pieces)
            poly = oracles.random_poly(rng, 3, max_degree=1)
            want = oracles.chart_route_boundary_pl(p, poly, u)
            assert boundary_integrate_pl(p, poly, u) == want


def _holds_plfn(key):
    if isinstance(key, PLFn):
        return True
    return isinstance(key, tuple) and any(_holds_plfn(k) for k in key)


def test_integrate_pl_keeps_no_function_in_the_cache():
    # a cache keyed by u would keep every integrated function alive with P
    b1 = corpus.load_entry("B1").polytope
    one = Poly.constant(3, 1)
    for b, d in [((1, 0, 0), -1), ((1, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, -1), 0), ((1, 1, 1), F(1, 2))]:
        integrate_pl(b1, one, PLFn.simple(b, d))
    assert not any(_holds_plfn(key) for key in b1.cache)
