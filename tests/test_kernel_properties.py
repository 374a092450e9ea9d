"""Seeded property tests for the polytope kernel: hull round trips, facets
and vertex enumeration against the subset scans, the vertex-facet
incidence, and cuts against rebuilds from scratch."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from operator import mul

import pytest

from toricstab import (
    Empty,
    HalfSpace,
    NotFullDimensional,
    Polytope,
    Unbounded,
    linalg,
    polytope,
)
from toricstab.linalg import rank
from toricstab.polytope import (
    halfspaces_from_vertices,
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


def assert_hull_matches_subset_scan(points, dim):
    """Both point-to-facet routes give the facets of the subset scan, and the
    vertices are the points at which the tight facet normals span."""
    facets = oracles.brute_hull(points, dim)
    pts = sorted(set(points))
    want = [
        v for j, v in enumerate(pts)
        if rank([h.normal for h, mask in facets if mask >> j & 1]) == dim
    ]
    assert halfspaces_from_vertices(points, dim) == [h for h, _ in facets]
    p = Polytope.from_vertices(points)
    assert list(p.halfspaces) == [h for h, _ in facets]
    assert list(p.vertices) == want
    assert_incidence(p)


@pytest.mark.parametrize("dim, points, clouds, extras", CLOUDS)
def test_hull_matches_subset_scan_on_clouds(dim, points, clouds, extras):
    rng = random.Random(1000 + dim)
    for _ in range(clouds):
        base = oracles.random_polytope(rng, dim, points)
        assert_hull_matches_subset_scan(oracles.cloud_with_extras(rng, base, extras), dim)


def test_hull_matches_subset_scan_on_lifted_spike():
    # The 27 nodes of [-1, 1]^3 lifted to 1 at the centre and 0 elsewhere:
    # 2,322 of its 17,550 4-subsets span no hyperplane, and 18 of the points
    # are not vertices.
    spike = [(*map(F, z), F(z == (0, 0, 0))) for z in product((-1, 0, 1), repeat=3)]
    assert_hull_matches_subset_scan(spike, 4)


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
            assert (fast.den, fast.rows) == (slow.den, slow.rows)
            assert fast.den == math.lcm(*(x.denominator for v in fast.vertices for x in v))
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


def outcome(enumerate_vertices, hs, dim):
    """The sorted vertices of a system, or the type of the error raised."""
    try:
        return enumerate_vertices(hs, dim)
    except (Unbounded, Empty, NotFullDimensional) as exc:
        return type(exc)


def assert_vertices_match_oracle(pairs, dim):
    """Double description and the subset scan agree on the vertices, or on
    the error; returns what they agree on."""
    hs = [HalfSpace.make(normal, rhs) for normal, rhs in pairs]
    want = outcome(oracles.brute_vertices, hs, dim)
    assert outcome(vertices_from_halfspaces, hs, dim) == want
    return want


# (dimension, base polytopes, random points per base polytope).  The subset
# scan grows with C(facets, dim), so the higher dimensions take fewer points.
SYSTEMS = [(1, 10, 3), (2, 10, 5), (3, 8, 6), (4, 5, 6), (5, 2, 7)]


@pytest.mark.parametrize("dim, systems, points", SYSTEMS)
def test_vertices_match_subset_scan_on_random_systems(dim, systems, points):
    # Each base system gains random cuts with rational offsets, and is then
    # checked as it is; with one half-space dropped (bounded or not); with
    # every half-space dropped whose normal has a positive product with a
    # direction d, which leaves d a recession direction; and with a cut
    # beyond every vertex (empty).
    rng = random.Random(4000 + dim)
    seen = Counter()
    for _ in range(systems):
        p = oracles.random_polytope(rng, dim, points)
        pairs = halfspace_pairs(p)
        for _ in range(rng.randint(1, 3)):
            normal, rhs = random_cut(rng, p)
            pairs.append((normal, rhs + oracles.random_fraction(rng, num=1, den=3)))
        dropped = list(pairs)
        dropped.pop(rng.randrange(len(dropped)))
        d, _ = random_cut(rng, p)
        opened = [(normal, rhs) for normal, rhs in pairs if sum(map(mul, normal, d)) <= 0]
        normal, _ = random_cut(rng, p)
        lowest = min(sum(map(mul, normal, v)) for v in p.vertices)
        emptied = pairs + [(normal, lowest - F(1, 2))]
        for system in (pairs, dropped, opened, emptied):
            got = assert_vertices_match_oracle(system, dim)
            seen[got if isinstance(got, type) else list] += 1
    assert seen[list] and seen[Unbounded] and seen[Empty]


def cross_polytope(dim):
    return [(signs, 1) for signs in product((-1, 1), repeat=dim)]


# name: (system, dimension, vertex count or the error expected)
SPECIAL_SYSTEMS = {
    "flat-segment": ([((1,), 0), ((-1,), 0)], 1, NotFullDimensional),
    "flat-square": ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)], 2, NotFullDimensional),
    # Lower-dimensional sets whose vertices' tight sets all meet: a flat
    # triangle on a pair of opposite half-spaces, the corner of a cone closed
    # at its apex, and y >= |x| under y <= 0, where no two are opposite.
    "flat-triangle": (
        [((0, 0, 1), 0), ((0, 0, -1), 0), ((-1, 0, 0), 0), ((0, -1, 0), 0), ((1, 1, 0), 1)],
        3,
        NotFullDimensional,
    ),
    "single-point": (
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 0)], 3, NotFullDimensional
    ),
    "three-half-spaces-none-opposite": (
        [((0, 1), 0), ((1, -1), 0), ((-1, -1), 0)], 2, NotFullDimensional
    ),
    "cross-polytope-3": (cross_polytope(3), 3, 6),
    "cross-polytope-4": (cross_polytope(4), 4, 8),
    "octahedron-x-square": (
        [((*signs, 0, 0), 1) for signs in product((-1, 1), repeat=3)]
        + [((0, 0, 0, a, b), 1) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))],
        5,
        24,
    ),
    # x <= 0 and x >= 1 cannot both hold, yet (0, -1) is a recession ray.
    "empty-with-recession-ray": ([((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)], 2, Unbounded),
    "empty-and-bounded": ([((1, 0), -2)] + cross_polytope(2), 2, Empty),
    "cube-without-a-facet": (
        [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1), ((0, 0, 1), 1)],
        3,
        Unbounded,
    ),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_SYSTEMS))
def test_vertices_match_subset_scan_on_special_systems(name):
    pairs, dim, expected = SPECIAL_SYSTEMS[name]
    got = assert_vertices_match_oracle(pairs, dim)
    assert (got if isinstance(got, type) else len(got)) == expected


def cyclic_polytope(m, d):
    """C(m, d): the hull of m points on the moment curve (t, t^2, ..., t^d)."""
    return Polytope.from_vertices([tuple(t**k for k in range(1, d + 1)) for t in range(m)])


def test_from_halfspaces_solves_no_linear_system(monkeypatch):
    p = cyclic_polytope(18, 3)
    assert len(p.halfspaces) == 2 * 18 - 4
    calls = []
    solve = linalg.solve_linear

    def counting(m, b):
        calls.append(len(m))
        return solve(m, b)

    monkeypatch.setattr(linalg, "solve_linear", counting)
    monkeypatch.setattr(polytope, "solve_linear", counting, raising=False)
    q = Polytope.from_halfspaces(halfspace_pairs(p))
    assert calls == []
    assert q.vertices == p.vertices
    assert halfspace_pairs(q) == halfspace_pairs(p)
    assert q.incidence == p.incidence


def test_a_hull_eliminates_twice(corpus_entries, monkeypatch):
    # Either direction of the hull eliminates once to choose the basis of
    # its start cone and once to solve against it, for all n start rays.
    q = corpus_entries["B1"].polytope
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows: calls.append(1) or eliminate(rows))
    assert Polytope.from_halfspaces(halfspace_pairs(q)) == q
    assert len(calls) == 2
    assert Polytope.from_vertices(q.vertices) == q
    assert len(calls) == 4


def test_start_rays_are_kernel_lines_of_the_basis_less_one_row():
    # On dim independent rows the cone is simplicial: ray k is the kernel
    # line of the other rows, oriented negative on row k, and its zero set is
    # every row but k.  Seeded integer bases in every dimension up to 6,
    # against the kernel line in rationals; a singular basis spans no
    # pointed cone.
    rng = random.Random(3700)
    bases = singular = 0
    for dim in range(1, 7):
        for _ in range(12):
            basis = [[rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(dim)] for _ in range(dim)]
            if dim > 1 and rng.random() < 0.25:
                basis[-1] = [a - b for a, b in zip(basis[0], basis[1])]
            cone = polytope._extreme_rays(basis, dim)
            if oracles.fraction_determinant(basis) == 0:
                assert cone is None, basis
                singular += 1
                continue
            bases += 1
            rays, zero_sets = cone
            for k, (ray, zero_set) in enumerate(zip(rays, zero_sets, strict=True)):
                line = oracles.fraction_nullvector(basis[:k] + basis[k + 1:], dim)
                if sum(map(mul, basis[k], line)) > 0:
                    line = tuple(-x for x in line)
                assert ray == line, basis
                assert zero_set == (1 << dim) - 1 ^ 1 << k
    assert bases > 40 and singular > 5


def test_builds_and_cuts_carry_the_incidence():
    # The incidence of a polytope built from half-spaces, and of every cut,
    # comes from the zero sets and matches the tight sets.
    rng = random.Random(5000)
    cuts = 0
    for dim in (2, 3, 4):
        base = oracles.random_polytope(rng, dim, dim + 3)
        p = Polytope.from_halfspaces(halfspace_pairs(base))
        assert p.incidence == base.incidence
        assert_incidence(p)
        for _ in range(4):
            cut = intersect_halfspace(p, *random_cut(rng, p))
            if cut is not None and cut is not p:
                assert_incidence(cut)
                cuts += 1
    assert cuts
