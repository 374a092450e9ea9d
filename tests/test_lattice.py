import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import permutations

import pytest

from toricstab import (
    HalfSpace,
    NotLatticePolytope,
    Polytope,
    ValidationError,
    ehrhart,
)
from toricstab import cli, lattice, stability
from toricstab.lattice import lattice_points, refined_points
from toricstab.plfun import AffineFn, PLFn

import oracles

# (dimension, polytopes, random coordinate numerator and denominator bound,
# highest dilation).  The box scan is the oracle, and its cost is the box
# size, so the higher dimensions take smaller coordinates and fewer levels.
CLOUDS = [(1, 6, 6, 4, 4), (2, 6, 6, 4, 4), (3, 4, 3, 3, 4), (4, 3, 2, 2, 2), (5, 2, 1, 2, 2)]


def assert_matches_box_scan(p, levels):
    # the points, and N, sum z, sum z z^T and sum max{0, z_1} (the P sample,
    # summed by the fibre route) against the points summed one by one
    u = PLFn.simple([1] + [0] * (p.dim - 1), 0)
    for i in levels:
        box = oracles.box_lattice_points(p, i)
        assert tuple(lattice._level_sums(p, i)) == oracles.point_sums(box, p.dim), i
        assert lattice._pl_sums(p, u, i)[0] == sum(max(0, z[0]) for z in box), i
        assert lattice_points(p, i) == box, i


def test_cube_counts(cube):
    assert len(lattice_points(cube, 1)) == 27
    assert len(lattice_points(cube, 2)) == 125


def test_orbifold_count_matches_published_polynomial(corpus_entries):
    p = corpus_entries["ORB-530571"].polytope
    # published counting polynomial evaluated at 1: 12 + 9 + 3 + 1
    assert len(lattice_points(p, 1)) == 25


def test_cp2_count(cp2):
    assert len(lattice_points(cp2, 1)) == 10


def test_refined_points_cube(cube):
    pts = refined_points(cube, 2)
    assert len(pts) == 125
    assert all(x.denominator in (1, 2) for v in pts for x in v)


def test_refined_level1_is_lattice(corpus_entries):
    p = corpus_entries["B1"].polytope
    assert refined_points(p, 1) == [
        tuple(map(F, z)) for z in lattice_points(p, 1)
    ]


def test_ehrhart_cube(cube):
    assert ehrhart(cube).coeffs == (8, 12, 6, 1)


def test_ehrhart_orbifold(corpus_entries):
    p = corpus_entries["ORB-530571"].polytope
    assert ehrhart(p).coeffs == (12, 9, 3, 1)


def test_ehrhart_counterexample(corpus_entries):
    p = corpus_entries["E4"].polytope
    assert ehrhart(p).coeffs == (F(20, 3), 10, F(16, 3), 1)


def test_ehrhart_refuses_rational_polytope(corpus_entries):
    raw = corpus_entries["ORB-530571"].raw
    halved = Polytope.from_vertices(
        [tuple(F(x) / 2 for x in map(F, v)) for v in raw["polytope"]["vertices"]]
    )
    with pytest.raises(NotLatticePolytope):
        ehrhart(halved)


def test_coefficient_identities_on_lattice_corpus(corpus_entries):
    for entry in corpus_entries.values():
        p = entry.polytope
        poly = ehrhart(p)
        assert poly.coeffs[0] == p.volume()
        assert 2 * poly.coeffs[1] == p.boundary_volume()
        assert poly.coeffs[-1] == 1


def test_reciprocity_on_reflexive_entries(corpus_entries):
    for name in ("CP3", "B2", "C3", "E4", "F2"):
        p = corpus_entries[name].polytope
        poly = ehrhart(p)
        assert poly(-1) == -oracles.interior_lattice_point_count(p)
        assert oracles.interior_lattice_point_count(p) == 1


def test_refined_count_matches_polynomial(corpus_entries, cube):
    for p in (cube, corpus_entries["B2"].polytope):
        poly = ehrhart(p)
        for i in range(1, 5):
            assert len(refined_points(p, i)) == poly(i)


@pytest.mark.parametrize("level", [0, -1, True, 2.5])
def test_bad_levels_rejected(simplex2d, level):
    with pytest.raises(ValidationError):
        lattice_points(simplex2d, level)


@pytest.mark.parametrize("dim, count, num, den, top", CLOUDS)
def test_matches_box_scan_on_random_clouds(dim, count, num, den, top):
    rng = random.Random(400 + dim)
    for _ in range(count):
        p = oracles.random_polytope(rng, dim, num=num, den=den)
        assert_matches_box_scan(p, range(1, top + 1))


@pytest.mark.parametrize("scale", [F(1, 2), F(1, 3)])
def test_matches_box_scan_on_rational_vertices(scale):
    rng = random.Random(int(1 / scale))
    for dim, top in ((2, 4), (3, 4), (4, 2)):
        base = oracles.random_polytope(rng, dim, num=3, den=1)
        p = Polytope.from_vertices([tuple(x * scale for x in v) for v in base.vertices])
        assert not p.is_lattice()
        assert_matches_box_scan(p, range(1, top + 1))
    # A square with no lattice point in its first dilation.
    square = Polytope.from_vertices([(a * scale / 2, b * scale / 2) for a in (1, 3) for b in (1, 3)])
    assert lattice_points(square, 1) == []
    assert_matches_box_scan(square, range(1, 7))


def test_matches_box_scan_on_sheared_cube():
    # (x, y, z) -> (x, 20x + y, 400x + 20y + z) is unimodular, so the image of
    # the unit cube has (i+1)^3 points in its i-th dilation, in a box over
    # 1000x larger.
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    p = Polytope.from_vertices([(x, 20 * x + y, 400 * x + 20 * y + z) for x, y, z in cube])
    for i in (1, 2):
        points = lattice_points(p, i)
        assert len(points) == (i + 1) ** 3
        assert oracles.box_cells(p, i) > 1000 * len(points)
    assert_matches_box_scan(p, (1, 2))


def test_projections_built_once_per_polytope(corpus_entries, monkeypatch):
    e3 = corpus_entries["E3"].polytope
    p = Polytope.from_halfspaces([(h.normal, h.rhs) for h in e3.halfspaces])
    q = oracles.cp1_times(p)
    built = []
    hull = Polytope.from_vertices

    def counted(points, name=None):
        built.append(len(points[0]))
        return hull(points, name)

    monkeypatch.setattr(Polytope, "from_vertices", staticmethod(counted))
    for i in (1, 2, 3, 1, 2):
        lattice_points(p, i)
    # proj_1 is an interval read off the vertices, proj_{n-1} is read off
    # the facets of P and proj_n is P, so the 3D entry hulls nothing and
    # the 4D CP^1 x E3 hulls proj_2 only
    assert p.dim == 3
    assert built == []
    for i in (1, 2, 1):
        lattice_points(q, i)
    assert built == [2]
    assert lattice._projections(p) is p.cache["lattice_projections"]
    assert_matches_box_scan(p, (1, 2))


def test_shadow_matches_the_hull_of_the_projection(corpus_entries):
    # proj_{n-1}(P) along the walk's fibre axis, from the facets and ridges
    # of P, against the hull of the vertices projected along that axis, in
    # the walk coordinates; and along x_n, the identity order
    rng = random.Random(1997)
    polytopes = [entry.polytope for entry in corpus_entries.values()]
    polytopes += [oracles.random_polytope(rng, dim) for dim in (3, 4, 5) for _ in range(8)]
    for p in polytopes:
        for order in (lattice._order(p), tuple(range(p.dim))):
            walk = [HalfSpace(tuple(h.normal[k] for k in order), h.rhs) for h in p.halfspaces]
            hull = Polytope.from_vertices([[v[k] for k in order[:-1]] for v in p.vertices])
            assert sorted(lattice._shadow(walk, p.incidence)) == sorted(hull.halfspaces), order


def permuted(p, perm):
    """The image of P under x -> (x_perm[0], ..., x_perm[n-1]), built from its
    permuted normals."""
    return Polytope.from_halfspaces([([h.normal[k] for k in perm], h.rhs) for h in p.halfspaces])


def permuted_pl(f, perm):
    return PLFn(tuple(AffineFn.make([g.a[k] for k in perm], g.c) for g in f.pieces), f.mode)


def assert_walk_is_equivariant(p, levels, rng):
    # Each permutation's image walks in its own order; its level sums, PL
    # sums (of g and of a random convex function) and points are P's own,
    # mapped by the permutation.
    f = oracles.random_convex_pl(rng, p.dim)
    g = stability.facet_distance_pl(p)
    want = {}
    for i in levels:
        count, first, second = lattice._level_sums(p, i)
        want[i] = (
            count, first, second, lattice._pl_sums(p, g, i), lattice._pl_sums(p, f, i),
            lattice_points(p, i),
        )
    for perm in permutations(range(p.dim)):
        q = permuted(p, perm)
        for i in levels:
            count, first, second, sums_g, sums_f, points = want[i]
            assert tuple(lattice._level_sums(q, i)) == (
                count,
                tuple(first[k] for k in perm),
                tuple(tuple(second[j][k] for k in perm) for j in perm),
            ), (p.name, perm, i)
            for fq, (total, moment, den) in (
                (stability.facet_distance_pl(q), sums_g), (permuted_pl(f, perm), sums_f)
            ):
                assert lattice._pl_sums(q, fq, i) == (total, [moment[k] for k in perm], den), (
                    p.name, perm, i, fq
                )
            assert lattice_points(q, i) == sorted(tuple(z[k] for k in perm) for z in points)


def test_walk_is_equivariant_under_coordinate_permutations(corpus_entries):
    rng = random.Random(35)
    for entry in corpus_entries.values():
        assert_walk_is_equivariant(entry.polytope, (1, 2, 3), rng)
    # off the corpus: a rational polygon, and a 4D polytope whose middle
    # projection proj_2 is hulled; no two of their axes tie, so their images
    # walk in every order
    rng = random.Random(35)
    square = oracles.random_polytope(rng, 2, num=5, den=3)
    solid = oracles.random_polytope(rng, 4, num=2, den=1)
    assert not square.is_lattice()
    for p in (square, solid):
        orders = set(permutations(range(p.dim)))
        assert {lattice._order(permuted(p, perm)) for perm in orders} == orders
        assert_walk_is_equivariant(p, (1, 2, 3), rng)


def test_tables_walks_each_level_along_the_least_shadow(corpus_entries, monkeypatch):
    # A level costs one fibre per lattice point of iP's shadow along the
    # fibre axis, whose measure is i^(n-1) A_k / 2 for the fibres along x_k
    # (Cauchy).  On C1 the A_k are 40, 24 and 66, so its fibres run along x_2.
    c1 = corpus_entries["C1"].polytope
    shadows = [
        sum(abs(h.normal[k]) * c1.facet_moments(f).measure for f, h in enumerate(c1.halfspaces))
        for k in range(3)
    ]
    assert shadows == [40, 24, 66]
    assert lattice._order(c1) == (2, 0, 1)
    walked = []
    ranges = lattice._ranges

    def counted(p, i):
        fresh = p.cache.get("lattice_ranges", (None,))[0] != i
        out = ranges(p, i)
        if fresh:
            walked.append(len(out[1]))
        return out

    monkeypatch.setattr(lattice, "_ranges", counted)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["tables", "--i-max", "3", "--grid", "0"]) == 0
    # 53 levels; along x_n they would take 4,474
    assert (len(walked), sum(walked)) == (53, 2853)


def test_corpus_lattice_points_unchanged(corpus_entries):
    # The points of every corpus entry at levels 1-3, as enumerated when
    # proj_1 was still hulled with from_vertices (sha256 of their reprs in
    # corpus order); the box scan of these levels visits 718,607 cells, too
    # many for tier-1, so the random clouds above stand in as its oracle.
    digest = hashlib.sha256()
    for name, entry in corpus_entries.items():
        p = Polytope.from_halfspaces([(h.normal, h.rhs) for h in entry.polytope.halfspaces])
        for i in (1, 2, 3):
            digest.update(repr((name, i, lattice_points(p, i))).encode())
    assert digest.hexdigest() == (
        "3a139cb51ef81f0a5e89d356650dd8d54c19526338a01f71349d33191ab613de"
    )


def test_level_sums_match_fibre_scan_on_corpus(corpus_entries):
    # N, sum z, sum z z^T and sum max{0, z_1} (the P sample, summed by the
    # fibre route) of every entry at levels 1-8, against the points of a
    # scan that solves the widest coordinate per cell of the other
    # coordinates' box, summed one by one; level 1 also against the whole box.
    u = PLFn.simple([1, 0, 0], 0)
    for name, entry in corpus_entries.items():
        p = Polytope.from_halfspaces([(h.normal, h.rhs) for h in entry.polytope.halfspaces])
        for i in range(1, 9):
            points = oracles.fibre_scan_points(p, i)
            if i == 1:
                assert points == oracles.box_lattice_points(p, i), name
            assert tuple(lattice._level_sums(p, i)) == oracles.point_sums(points, 3), (name, i)
            assert lattice._pl_sums(p, u, i)[0] == sum(max(0, z[0]) for z in points), (name, i)
        # the sums built no point list
        assert not any(key[0] == "lattice_points" for key in p.cache if isinstance(key, tuple))


def test_pl_sums_match_point_oracle(corpus_entries):
    # sum F, sum z F and D i off the fibre ranges, against the values of F
    # one point at a time over a scan of iP: the Q sample g, an affine
    # function, and convex and concave functions with pieces over mixed
    # denominators, on every entry and on rational polytopes in 1-4D, at
    # levels 1-3
    rng = random.Random(31)
    polytopes = [entry.polytope for entry in corpus_entries.values()]
    polytopes += [oracles.random_polytope(rng, d, num=4, den=3) for d in (1, 2, 3, 4) for _ in "abc"]
    for p in polytopes:
        fns = [
            stability.facet_distance_pl(p),
            oracles.random_affine(rng, p.dim),
            oracles.random_convex_pl(rng, p.dim),
            oracles.mixed_denominator_pl(rng, p.dim, "convex", pieces=3),
            oracles.mixed_denominator_pl(rng, p.dim, "concave", pieces=4),
        ]
        for i in (1, 2, 3):
            points = oracles.fibre_scan_points(p, i)
            for f in fns:
                want = oracles.pl_node_sums(f, points, p.dim, i)
                assert lattice._pl_sums(p, f, i) == want, (p.name, i, f)


def test_every_level_walk_is_budgeted():
    # Levels 1..200 of B1 may hold 4,343,642,500 nodes: every public
    # per-level function is a validation error before any range is walked,
    # and no level is cached.
    from toricstab import corpus, stability
    from toricstab.plfun import PLFn

    p = corpus.load_entry("B1").polytope
    ed = stability.extremal_affine(p)
    u = PLFn.simple([1, 0, 0], 0)
    g = stability.facet_distance_pl(p)
    assert lattice.node_bound(p, 200) == 4_343_642_500
    calls = [
        lambda: lattice_points(p, 200),
        lambda: refined_points(p, 200),
        lambda: stability.theta_nodes(p, ed, 200),
        lambda: stability.chow_necessary(p, ed, 200),
        lambda: stability.s_closed_form(p, ed, 200),
        lambda: stability.q_weight(p, ed, 200, g),
        lambda: stability.p_weight(p, 200, u, 2),
        lambda: stability.project_perp(p, ed, 200, u),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="levels 1..200 may hold 4343642500 nodes on B1"):
            call()
        assert not any(isinstance(key, tuple) and 200 in key for key in p.cache)
