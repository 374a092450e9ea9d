"""Seeded property tests for the polytope kernel: hull round trips, the
vertex-facet incidence, facet charts and cuts against rebuilds from scratch."""

import random
from fractions import Fraction as F

import pytest

from toricstab import (
    Empty,
    NotFullDimensional,
    Polytope,
    facet_chart,
    intersect_halfspace,
    vertices_from_halfspaces,
)

import oracles

# (dimension, random points per base polytope, clouds, extra points of each
# kind per cloud).  Vertex enumeration grows with the facet count, so the
# higher dimensions take fewer points.
CLOUDS = [(2, 6, 6, 3), (3, 7, 4, 2), (4, 6, 3, 1), (5, 7, 2, 1)]


def halfspace_pairs(p):
    return [(h.normal, h.rhs) for h in p.halfspaces]


def assert_incidence(p):
    """The stored incidence is the tight sets recomputed from scratch."""
    want = tuple(
        sum(1 << j for j, v in enumerate(p.vertices) if h.tight(v))
        for h in p.halfspaces
    )
    assert p.incidence == want


@pytest.mark.parametrize("dim, points, clouds, extras", CLOUDS)
def test_hull_round_trip_on_clouds_with_non_vertices(dim, points, clouds, extras):
    rng = random.Random(1000 + dim)
    for _ in range(clouds):
        base = oracles.random_polytope(rng, dim, points)
        cloud = oracles.cloud_with_extras(rng, base, extras)
        p = Polytope.from_vertices(cloud)
        assert p.vertices == base.vertices
        assert halfspace_pairs(p) == halfspace_pairs(base)
        assert list(p.vertices) == vertices_from_halfspaces(p.halfspaces, dim)
        assert_incidence(p)
        q = Polytope.from_halfspaces(halfspace_pairs(p))
        assert q.vertices == p.vertices
        assert halfspace_pairs(q) == halfspace_pairs(p)
        assert_incidence(q)


def random_cut(rng, p):
    """A cut normal and an offset at, between or beyond the vertex values."""
    normal = [rng.randint(-2, 2) for _ in range(p.dim)]
    if not any(normal):
        normal[rng.randrange(p.dim)] = 1
    values = sorted(sum(a * x for a, x in zip(normal, v)) for v in p.vertices)
    lo, hi = values[0], values[-1]
    rhs = rng.choice(
        [rng.choice(values), (lo + hi) / 2, lo - 1, hi + 1, lo, lo + (hi - lo) / 7]
    )
    return tuple(normal), F(rhs)


@pytest.mark.parametrize("dim, points", [(2, 6), (3, 6), (4, 6)])
def test_cut_matches_rebuild(dim, points):
    rng = random.Random(2000 + dim)
    seen_none = seen_cut = 0
    for _ in range(4):
        p = oracles.random_polytope(rng, dim, points)
        for _ in range(6):
            normal, rhs = random_cut(rng, p)
            fast = intersect_halfspace(p, normal, rhs)
            try:
                slow = Polytope.from_halfspaces(halfspace_pairs(p) + [(normal, rhs)])
            except (Empty, NotFullDimensional):
                slow = None
            if slow is None:
                assert fast is None
                seen_none += 1
                continue
            assert fast is not None
            assert fast.vertices == slow.vertices
            assert halfspace_pairs(fast) == halfspace_pairs(slow)
            assert_incidence(fast)
            seen_cut += fast is not p
    assert seen_none and seen_cut


def test_cut_skips_diagonals_of_faces_on_many_facets():
    # Octahedron x square: each {octahedron vertex} x square is a 2-face on
    # four facets, as many as an edge needs in 5D.  A cut across the
    # square's diagonal must not take that diagonal for an edge.
    octahedron = [((a, b, c, 0, 0), 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    square = [((0, 0, 0, a, b), 1) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    p = Polytope.from_halfspaces(octahedron + square)
    cut = ((0, 0, 0, 1, 1), 0)
    fast = intersect_halfspace(p, *cut)
    slow = Polytope.from_halfspaces(halfspace_pairs(p) + [cut])
    assert fast.vertices == slow.vertices
    assert halfspace_pairs(fast) == halfspace_pairs(slow)
    assert_incidence(fast)


def assert_charts_match_hulls(p, depth):
    """Every facet chart of P, and of its charts down to ``depth`` levels, is
    the hull of the projected facet vertices."""
    for i in range(len(p.halfspaces)):
        chart = facet_chart(p, i)
        axis = chart.axis
        want = Polytope.from_vertices([v[:axis] + v[axis + 1:] for v in p.facet_vertices(i)])
        got = chart.polytope
        assert got.vertices == want.vertices
        assert got.halfspaces == want.halfspaces
        assert got.incidence == want.incidence
        if depth > 1 and got.dim > 1:
            assert_charts_match_hulls(got, depth - 1)


@pytest.mark.parametrize("dim, points, clouds", [(2, 7, 4), (3, 7, 4), (4, 7, 3), (5, 8, 2)])
def test_charts_match_hulls_on_clouds(dim, points, clouds):
    rng = random.Random(3000 + dim)
    for _ in range(clouds):
        assert_charts_match_hulls(oracles.random_polytope(rng, dim, points), 2)


def test_charts_match_hulls_on_cube_cross_polytope_and_corpus(cube, cross_polytope, corpus_entries):
    # The cross-polytope is not simple: four facets meet at each vertex.
    assert_charts_match_hulls(cube, 3)
    assert_charts_match_hulls(cross_polytope, 3)
    for entry in corpus_entries.values():
        assert_charts_match_hulls(entry.polytope, 1)
