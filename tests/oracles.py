"""Independent computation routes used to validate the main code paths.

These deliberately avoid the library's own kernels wherever a second route
exists: the degree-2 simplex formula, slice-and-sum subdivision, and plain
random data generators.
"""

import random
from fractions import Fraction as F

from toricstab import NotFullDimensional, Poly, Polytope, Simplex, integrate, intersect_halfspace
from toricstab.plfun import AffineFn, PLFn


def degree2_simplex_integral(simplex: Simplex, l1: AffineFn, l2: AffineFn) -> F:
    """Closed form for the integral of a product of two affine functions:
    Vol/((n+1)(n+2)) * [sum l1(v)l2(v) + (sum l1(v))(sum l2(v))]."""
    n = simplex.dim
    vol = simplex.volume()
    vals1 = [l1(v) for v in simplex.vertices]
    vals2 = [l2(v) for v in simplex.vertices]
    paired = sum((a * b for a, b in zip(vals1, vals2)), F(0))
    return vol * (paired + sum(vals1) * sum(vals2)) / ((n + 1) * (n + 2))


def slice_and_sum(p: Polytope, poly: Poly, normal, rhs) -> F:
    """Integral of poly over P computed as the sum over the two pieces cut by
    a hyperplane; the pieces are integrated independently."""
    lower = intersect_halfspace(p, normal, rhs)
    upper = intersect_halfspace(p, [-x for x in normal], -F(rhs))
    total = F(0)
    if lower is not None:
        total += integrate(lower, poly)
    if upper is not None:
        total += integrate(upper, poly)
    return total


def interior_point(p: Polytope) -> tuple:
    """Average of the vertices: strictly interior for any polytope."""
    n = p.dim
    m = len(p.vertices)
    return tuple(sum(v[k] for v in p.vertices) / m for k in range(n))


def random_fraction(rng: random.Random, num=6, den=4) -> F:
    return F(rng.randint(-num, num), rng.randint(1, den))


def random_simplex(rng: random.Random, dim: int) -> Simplex:
    while True:
        verts = [
            tuple(random_fraction(rng) for _ in range(dim)) for _ in range(dim + 1)
        ]
        s = Simplex(tuple(verts))
        if s.volume() != 0:
            return s


def random_polytope(rng: random.Random, dim: int, points=None) -> Polytope:
    """Small random full-dimensional polytope: hull of a random point cloud
    of ``points`` points (default ``dim + 3``)."""
    while True:
        pts = [
            tuple(random_fraction(rng) for _ in range(dim))
            for _ in range(points or dim + 3)
        ]
        try:
            return Polytope.from_vertices(pts)
        except NotFullDimensional:
            continue


def cloud_with_extras(rng: random.Random, p: Polytope, extras: int) -> list:
    """The vertices of P plus ``extras`` points of each kind that are not
    vertices: repeats, midpoints of two vertices on a common facet, facet
    centroids, and interior points; shuffled."""
    pts = list(p.vertices)
    facets = [[v for v in p.vertices if h.tight(v)] for h in p.halfspaces]

    def mean(vs):
        return tuple(sum(v[k] for v in vs) / len(vs) for k in range(p.dim))

    for _ in range(extras):
        pts.append(rng.choice(p.vertices))
        pts.append(mean(rng.sample(rng.choice(facets), 2)))
        pts.append(mean(rng.choice(facets)))
        pts.append(mean(rng.sample(p.vertices, p.dim + 1)))
    rng.shuffle(pts)
    return pts


def random_affine(rng: random.Random, dim: int) -> AffineFn:
    return AffineFn.make(
        [random_fraction(rng, num=3, den=3) for _ in range(dim)],
        random_fraction(rng, num=3, den=3),
    )


def random_convex_pl(rng: random.Random, dim: int, pieces=None) -> PLFn:
    k = pieces or rng.randint(2, 3)
    return PLFn.convex([random_affine(rng, dim) for _ in range(k)])


def random_poly(rng: random.Random, dim: int, max_degree=2) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expo = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(dim)] += 1
        coeff = random_fraction(rng, num=4, den=3)
        terms[tuple(expo)] = terms.get(tuple(expo), F(0)) + coeff
    poly = Poly(dim, terms)
    if not poly.terms:
        poly = Poly.constant(dim, 1)
    return poly
