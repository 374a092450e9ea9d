import random
from fractions import Fraction as F

import pytest

from toricstab import (
    Poly,
    Polytope,
    ValidationError,
    boundary_integral,
    integrate,
    integrate_pl,
    moment_vector,
)
from toricstab.integrate import facet_integral, integrate_simplex
from toricstab.plfun import PLFn, _nonzero_regions
from toricstab.polytope import Simplex
from toricstab.stability import excess_region, extremal_affine

import oracles

STD2 = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))


def test_dirichlet_standard_simplex():
    assert integrate_simplex(STD2, Poly(2, {(1, 1): 1})) == F(1, 24)
    assert integrate_simplex(STD2, Poly(2, {(2, 0): 1})) == F(1, 12)
    assert integrate_simplex(STD2, Poly.constant(2, 1)) == F(1, 2)


def test_dirichlet_higher_degree():
    # moment formula on the standard simplex: x^a y^b integrates to
    # a! b! / (a + b + 2)!; above degree 2 only the test oracle integrates
    def dirichlet(expo):
        return oracles.dirichlet_simplex_integral(STD2, Poly(2, {expo: 1}), STD2.volume())

    assert dirichlet((2, 2)) == F(1, 180)
    assert dirichlet((3, 1)) == F(6, 720)
    assert dirichlet((4, 0)) == F(24, 720)


def test_higher_degree_on_cube(cube):
    # product structure gives independent one-dimensional factors; the
    # Dirichlet oracle over the bitmask cells and over the chart recursion
    cases = [
        (Poly(3, {(2, 2, 0): 1}), F(2, 3) * F(2, 3) * 2),  # x1^2 x2^2
        (Poly(3, {(4, 0, 0): 1}), F(2, 5) * 4),
    ]
    routes = [cube.triangulation()] + [
        oracles.chart_triangulation(cube, apex_last) for apex_last in (False, True)
    ]
    for poly, want in cases:
        for cells in routes:
            assert oracles.dirichlet_over_cells(cells, poly) == want


def test_integrals_stop_at_degree_2(cube):
    # every entry point contracts a moment record, so a cubic term is an
    # error, not a number; above degree 2 only the test oracles integrate
    cubic = Poly(3, {(1, 1, 1): 1, (0, 0, 0): 1})
    square = Poly(3, {(2, 0, 0): 1})
    calls = [
        lambda: integrate_simplex(cube.triangulation()[0], cubic),
        lambda: integrate(cube, cubic),
        lambda: facet_integral(cube, 0, cubic),
        lambda: boundary_integral(cube, cubic),
        lambda: integrate_pl(cube, square, PLFn.simple((1, 0, 0), 0)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="degree 3"):
            call()
    assert integrate_pl(cube, Poly.coordinate(3, 0), PLFn.simple((1, 0, 0), 0)) == F(4, 3)
    # nor is 1/x1 a polynomial: it would read as the constant 1
    with pytest.raises(ValidationError, match="negative exponent"):
        Poly(3, {(-1, 2, 0): 1})


def test_polynomials_of_the_wrong_dimension_rejected(cube):
    # a polynomial must have as many variables as the record has coordinates
    quartic_var = Poly(4, {(0, 0, 0, 1): 1})
    calls = [
        lambda: integrate_simplex(cube.triangulation()[0], quartic_var),
        lambda: integrate(cube, quartic_var),
        lambda: facet_integral(cube, 0, quartic_var),
        lambda: boundary_integral(cube, quartic_var),
        lambda: integrate(cube, Poly.constant(2, 1)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="variables"):
            call()
    for build in (
        lambda: Poly(3, {(0, 0, 0, 1): 1}),
        lambda: Poly.coordinate(2, 0) * Poly.coordinate(3, 2),
        lambda: Poly.coordinate(3, 0) * Poly.coordinate(2, 1),
        lambda: Poly.coordinate(2, 0) + Poly.coordinate(3, 2),
        lambda: Poly.coordinate(3, 0) - Poly.coordinate(2, 1),
    ):
        with pytest.raises(ValidationError, match="mixed ambient dimensions"):
            build()


def test_moment_b2_b1(corpus_entries):
    b2 = corpus_entries["B2"].polytope
    b1 = corpus_entries["B1"].polytope
    assert integrate(b2, Poly.coordinate(3, 2)) == -2
    assert integrate(b1, Poly.coordinate(3, 2)) == -4


def test_excess_region_volume_both_routes(corpus_entries):
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    minus = excess_region(b1, ed)
    assert minus.volume() == F(7351, 12000)
    # independent subdivision route: slice by a plane through the interior
    got = oracles.slice_and_sum(minus, Poly.constant(3, 1), (1, 1, 1), F(-5, 2))
    assert got == F(7351, 12000)


def test_excess_region_intermediates_recomputed(corpus_entries):
    # exact values of the low moments over the region; the magnitudes make
    # the dimensional consistency plain (|integral of x3| <= volume)
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    minus = excess_region(b1, ed)
    x3 = Poly.coordinate(3, 2)
    m1 = integrate(minus, x3)
    m2 = integrate(minus, x3 * x3)
    vol = minus.volume()
    assert abs(m1) <= vol  # region sits inside |x3| <= 1
    assert m2 <= vol
    one_minus_theta = Poly.affine([-x for x in ed.theta.a], 1 - ed.theta.c)
    sq = integrate(minus, one_minus_theta * one_minus_theta)
    assert sq == F(23785711, 14616120000)


def test_moment_vector_cube(cube):
    assert moment_vector(cube) == (0, 0, 0)


def test_moment_vector_orbifold(corpus_entries):
    p = corpus_entries["ORB-530571"].polytope
    assert moment_vector(p) == (0, 0, 0)


def test_moment_vector_counterexample(corpus_entries):
    p = corpus_entries["E4"].polytope
    assert moment_vector(p) == (F(-7, 8), F(5, 12), F(5, 24))


def test_boundary_cube(cube):
    assert boundary_integral(cube, Poly.constant(3, 1)) == 24


def test_boundary_moment_orbifold(corpus_entries):
    p = corpus_entries["ORB-530571"].polytope
    for k in range(3):
        assert boundary_integral(p, Poly.coordinate(3, k)) == 0


def test_reflexive_boundary_identity(corpus_entries):
    # boundary measure equals n * volume on every reflexive entry
    for name, entry in corpus_entries.items():
        p = entry.polytope
        if all(h.rhs == 1 for h in p.halfspaces):
            assert boundary_integral(p, Poly.constant(3, 1)) == 3 * p.volume()


def test_triangulation_independence_random():
    rng = random.Random(5)
    for _ in range(8):
        p = oracles.random_polytope(rng, rng.randint(2, 3))
        poly = oracles.random_poly(rng, p.dim)
        a = sum(integrate_simplex(s, poly) for s in p.triangulation())
        b = sum(integrate_simplex(s, poly) for s in oracles.chart_triangulation(p, apex_last=True))
        assert a == b


def test_subdivision_oracle_random():
    rng = random.Random(9)
    for _ in range(12):
        p = oracles.random_polytope(rng, rng.randint(2, 3))
        poly = oracles.random_poly(rng, p.dim)
        point = oracles.interior_point(p)
        normal = [rng.randint(-3, 3) for _ in range(p.dim)]
        if all(x == 0 for x in normal):
            normal[0] = 1
        rhs = sum(F(a) * b for a, b in zip(normal, point))
        assert oracles.slice_and_sum(p, poly, normal, rhs) == integrate(p, poly)


def test_linearity(cube):
    p1 = oracles.random_poly(random.Random(1), 3)
    p2 = oracles.random_poly(random.Random(2), 3)
    combo = p1.scale(F(3, 2)) + p2.scale(F(-2, 5))
    assert integrate(cube, combo) == F(3, 2) * integrate(cube, p1) + F(-2, 5) * integrate(cube, p2)


def test_degree2_closed_form_oracle():
    rng = random.Random(17)
    for _ in range(100):
        dim = rng.randint(2, 3)
        s = oracles.random_simplex(rng, dim)
        l1 = oracles.random_affine(rng, dim)
        l2 = oracles.random_affine(rng, dim)
        via_kernel = integrate_simplex(s, l1.as_poly() * l2.as_poly())
        assert via_kernel == oracles.degree2_simplex_integral(s, l1, l2)


def test_moment_kernel_matches_dirichlet():
    # Up to degree 2 integrate_simplex contracts the simplex's cached moment
    # record; the barycentric expansion is the independent route.
    rng = random.Random(23)
    for dim in range(1, 7):
        monomials = [()] + [(k,) for k in range(dim)] + [
            (j, k) for j in range(dim) for k in range(j, dim)
        ]
        for _ in range(2):
            s = oracles.random_simplex(rng, dim)
            for axes in monomials:
                expo = [0] * dim
                for k in axes:
                    expo[k] += 1
                poly = Poly(dim, {tuple(expo): 1})
                assert integrate_simplex(s, poly) == oracles.dirichlet_over_cells([s], poly)
            for _ in range(3):
                poly = oracles.random_poly(rng, dim, max_degree=2)
                assert integrate_simplex(s, poly) == oracles.dirichlet_over_cells([s], poly)


def _up_to_degree_2(dim):
    """1, every x_j and every x_j x_k with j <= k."""
    xs = [Poly.coordinate(dim, j) for j in range(dim)]
    return [Poly.constant(dim, 1)] + xs + [xs[j] * xs[k] for j in range(dim) for k in range(j, dim)]


def assert_matches_chart_oracle(p, rng):
    """The bitmask cells and the moment records of P against the recursion
    through facet charts, from the same apex and from the lex-largest
    vertex: the volume and every monomial of degree <= 2 by the kernel, and
    a random quartic by the Dirichlet oracle over both sets of cells; then
    every facet's record, and a random cubic by the Dirichlet oracle over
    each facet record's cells, and a random quadratic over the boundary,
    against the facet charts."""
    n = p.dim
    polys = _up_to_degree_2(n)
    quartic = oracles.random_poly(rng, n, max_degree=4)
    cells = p.triangulation()
    # every face cones from its lowest vertex, so each cell lists its
    # vertices in sorted order
    assert all(list(c.vertices) == sorted(c.vertices) for c in cells)
    assert {c.vertices[0] for c in cells} == {o.vertices[0] for o in oracles.chart_triangulation(p)}
    for apex_last in (False, True):
        oracle = oracles.chart_triangulation(p, apex_last)
        assert sum(c.volume() for c in cells) == sum(c.volume() for c in oracle) == p.volume()
        for poly in polys:
            want = oracles.dirichlet_over_cells(oracle, poly)
            assert sum((integrate_simplex(c, poly) for c in cells), F(0)) == want
            assert integrate(p, poly) == want
        want = oracles.dirichlet_over_cells(oracle, quartic)
        assert oracles.dirichlet_over_cells(cells, quartic) == want
    cubic = oracles.random_poly(rng, n, max_degree=3)
    quadratic = oracles.random_poly(rng, n)
    boundary = F(0)
    for i in range(len(p.halfspaces)):
        *want, want_cubic, want_quadratic = oracles.chart_facet_integrals(
            p, i, polys + [cubic, quadratic]
        )
        m = p.facet_moments(i)
        got = [m.measure, *m.first, *(m.second[j][k] for j in range(n) for k in range(j, n))]
        assert got == want
        assert oracles.dirichlet_facet_integral(p, i, cubic) == want_cubic
        boundary += want_quadratic
    assert boundary_integral(p, quadratic) == boundary


def test_bitmask_route_matches_chart_oracle_on_corpus(corpus_entries, cube, cross_polytope):
    rng = random.Random(9100)
    for p in [cube, cross_polytope] + [e.polytope for e in corpus_entries.values()]:
        assert_matches_chart_oracle(p, rng)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_bitmask_route_matches_chart_oracle_on_clouds(dim):
    # a rational cloud, and a lattice cloud halved and thirded
    rng = random.Random(9200 + dim)
    lattice = oracles.random_polytope(rng, dim, dim + 3, num=3, den=1)
    bodies = [oracles.random_polytope(rng, dim, dim + 3)] + [
        Polytope.from_vertices([tuple(x / k for x in v) for v in lattice.vertices]) for k in (2, 3)
    ]
    for p in bodies:
        assert_matches_chart_oracle(p, rng)


def assert_lasserre(p):
    """Lasserre's identity (Proc. AMS 1998) on the moment records: for f
    homogeneous of degree q, (n + q) times the integral of f over P is the
    sum over the facets <l_i, x> <= rhs_i of rhs_i times the integral of f
    over F_i in the lattice-normalized measure (primitive l_i).  It cones
    from the origin over every facet, where the record of P cones from one
    vertex over the facets that miss it."""
    n = p.dim
    m = p.moments()
    facets = [(h.rhs, p.facet_moments(i)) for i, h in enumerate(p.halfspaces)]

    def facet_sum(read):
        return sum((rhs * read(f) for rhs, f in facets), F(0))

    assert n * m.measure == facet_sum(lambda f: f.measure)
    for j in range(n):
        assert (n + 1) * m.first[j] == facet_sum(lambda f: f.first[j])
        for k in range(n):
            assert (n + 2) * m.second[j][k] == facet_sum(lambda f: f.second[j][k])


def test_lasserre_identity_on_corpus_and_cut_regions(corpus_entries):
    # Every corpus polytope, and the regions of seeded search candidates:
    # the cuts that L integrates over, second moments of the facets included.
    rng = random.Random(1998)
    regions = 0
    for entry in corpus_entries.values():
        p = entry.polytope
        assert_lasserre(p)
        candidates = list(oracles.search_candidates(p, extremal_affine(p), grid=1))
        for u in rng.sample(candidates, min(3, len(candidates))):
            for region, _ in _nonzero_regions(p, u):
                assert_lasserre(region)
                regions += 1
    assert regions >= 3 * len(corpus_entries)
