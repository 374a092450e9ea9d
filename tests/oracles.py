"""Independent computation routes used to validate the main code paths.

These deliberately avoid the library's own kernels wherever a second route
exists: the degree-2 simplex formula, the barycentric (Dirichlet) simplex
kernel at every degree, the lift of a facet chart's points back onto the
facet and the triangulation recursing through facet charts,
facet integrals with the integrand restricted to each chart (the chart
restrictions live only here), slice-and-sum subdivision, L over every facet
chart and every linearity region, its integration-by-parts form, a scan of
the bounding box for lattice points and the interior count for reciprocity,
vertices from every n-subset of facets, facets from every n-subset of
points, the node statistics summed in rationals point by point, and plain
random data generators.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations
from operator import mul

from toricstab import (
    Empty,
    HalfSpace,
    NotFullDimensional,
    Poly,
    Polytope,
    Simplex,
    SingularMatrix,
    Unbounded,
    integrate,
    integrate_pl,
    intersect_halfspace,
    lattice_points,
    linearity_regions,
    moment_vector,
    refined_points,
)
from toricstab.linalg import (
    AnyS,
    dot,
    nullvector,
    rank,
    rat,
    solve_linear,
    solve_overdetermined_1d,
)
from toricstab.plfun import AffineFn, PLFn
from toricstab.polytope import FacetChart, facet_chart


def degree2_simplex_integral(simplex: Simplex, l1: AffineFn, l2: AffineFn) -> F:
    """Closed form for the integral of a product of two affine functions:
    Vol/((n+1)(n+2)) * [sum l1(v)l2(v) + (sum l1(v))(sum l2(v))]."""
    n = simplex.dim
    vol = simplex.volume()
    vals1 = [l1(v) for v in simplex.vertices]
    vals2 = [l2(v) for v in simplex.vertices]
    paired = sum((a * b for a, b in zip(vals1, vals2)), F(0))
    return vol * (paired + sum(vals1) * sum(vals2)) / ((n + 1) * (n + 2))


def dirichlet_simplex_integral(simplex: Simplex, poly: Poly) -> F:
    """The integral of ``poly`` over the simplex at any degree: expand it in
    barycentric coordinates and apply the Dirichlet moment formula
    n! Vol * (prod alpha_j!) / (n + |alpha|)! to each monomial."""
    n = simplex.dim
    vol = simplex.volume()
    v0 = simplex.vertices[0]
    maps = [
        Poly.affine([simplex.vertices[j + 1][i] - v0[i] for j in range(n)], v0[i])
        for i in range(n)
    ]
    total = F(0)
    for expo, coeff in poly.compose_affine(maps).terms.items():
        num = math.prod(math.factorial(e) for e in expo)
        total += coeff * math.factorial(n) * vol * F(num, math.factorial(n + sum(expo)))
    return total


def lift_from_chart(chart: FacetChart, point) -> tuple:
    """Map a point of the chart's projection back onto its facet hyperplane."""
    axis = chart.axis
    full = list(point[:axis]) + [F(0)] + list(point[axis:])
    others = sum(
        (F(chart.normal[j]) * full[j] for j in range(len(full)) if j != axis),
        F(0),
    )
    full[axis] = (chart.rhs - others) / chart.normal[axis]
    return tuple(full)


def chart_triangulation(p: Polytope, apex_last: bool = False) -> list:
    """The cone from the lex-smallest vertex (lex-largest with ``apex_last``)
    over the triangulations of the facets that miss it, each triangulated in
    its facet chart by the same recursion and lifted back; flat cells are
    dropped."""
    if p.dim == 1:
        return [Simplex((p.vertices[0], p.vertices[-1]))]
    apex = len(p.vertices) - 1 if apex_last else 0
    cells = []
    for i, mask in enumerate(p.incidence):
        if mask >> apex & 1:
            continue
        chart = facet_chart(p, i)
        for sub in chart_triangulation(chart.polytope, apex_last):
            lifted = tuple(lift_from_chart(chart, v) for v in sub.vertices)
            cell = Simplex((p.vertices[apex],) + lifted)
            if cell.volume() > 0:
                cells.append(cell)
    return cells


def eliminate_axis(poly: Poly, axis: int, normal, rhs) -> Poly:
    """Restrict ``poly`` to the hyperplane <normal, x> = rhs, dropping
    coordinate ``axis``: a polynomial on the facet chart."""
    n = poly.nvars
    keep = [j for j in range(n) if j != axis]
    maps = []
    for j in range(n):
        if j == axis:
            grad = [-F(normal[k]) / normal[axis] for k in keep]
            maps.append(Poly.affine(grad, rat(rhs) / normal[axis]))
        else:
            maps.append(Poly.coordinate(n - 1, keep.index(j)))
    return poly.compose_affine(maps)


def restrict_to_facet(f: AffineFn, axis: int, normal, rhs) -> AffineFn:
    """The affine function induced by ``f`` on a facet chart (coordinate
    ``axis`` dropped)."""
    coeff = f.a[axis] / normal[axis]
    grad = [f.a[j] - coeff * normal[j] for j in range(len(f.a)) if j != axis]
    return AffineFn(tuple(grad), f.c + coeff * rat(rhs))


def chart_facet_integrals(p: Polytope, i: int, polys) -> list:
    """The integrals of ``polys`` over facet i in the lattice measure: each
    is restricted to the facet chart and the Dirichlet kernel is summed over
    the chart cells of :func:`chart_triangulation`, times the chart's scale."""
    chart = facet_chart(p, i)
    cells = chart_triangulation(chart.polytope)
    out = []
    for poly in polys:
        restricted = eliminate_axis(poly, chart.axis, chart.normal, chart.rhs)
        total = sum((dirichlet_simplex_integral(c, restricted) for c in cells), F(0))
        out.append(chart.scale * total)
    return out


def _pl_integral(p: Polytope, poly: Poly, u: PLFn) -> F:
    """The integral of ``poly * u`` over P summed over every linearity region
    of u, the zero piece's included."""
    return sum(
        (integrate(region, poly * piece.as_poly()) for region, piece in linearity_regions(p, u)),
        F(0),
    )


def chart_route_boundary_pl(p: Polytope, poly: Poly, u: PLFn) -> F:
    """The integral of ``poly * u`` over the boundary of P facet by facet: u
    is restricted to each facet chart, the chart is split into every
    linearity region of the restriction, and each region is integrated."""
    total = F(0)
    for i in range(len(p.halfspaces)):
        chart = facet_chart(p, i)
        u_f = PLFn(
            tuple(restrict_to_facet(f, chart.axis, chart.normal, chart.rhs) for f in u.pieces),
            u.mode,
        )
        poly_f = eliminate_axis(poly, chart.axis, chart.normal, chart.rhs)
        total += chart.scale * _pl_integral(chart.polytope, poly_f, u_f)
    return total


def chart_route_l(p: Polytope, ed, u: PLFn) -> F:
    """L(u) with the boundary term by :func:`chart_route_boundary_pl` and the
    volume term over every linearity region of u in P."""
    weight = Poly.affine(ed.theta.a, ed.theta.c + ed.sbar)
    one = Poly.constant(p.dim, 1)
    return chart_route_boundary_pl(p, one, u) - _pl_integral(p, weight, u)


def l_functional_parts_form(p: Polytope, ed, u: PLFn) -> F:
    """The integration-by-parts form of L, valid when every facet sits at
    rhs 1: the sum over every linearity region R of u, with active piece
    f = a.x + c, of -c Vol(R) + integral over R of (1 - theta) f, since
    sum x_i du_i - u = -c on R."""
    total = F(0)
    one_minus_theta = Poly.affine([-x for x in ed.theta.a], 1 - ed.theta.c)
    for region, piece in linearity_regions(p, u):
        total += -piece.c * region.volume()
        total += integrate(region, one_minus_theta * piece.as_poly())
    return total


def fraction_node_stats(p: Polytope, theta: AffineFn, i: int, g: PLFn, u: PLFn, bound) -> dict:
    """The node statistics of level i summed in rationals, point by point.

    theta, g and u are evaluated at every node of the refined sample
    P meet (Z/i)^n; from those values come theta_bar, the deviations, the
    sums of the balance system and its outcome, the closed-form s, the gate's
    weighted node sum, Q(i, g) with s from the system (None when the system
    fails), P(i, u) against the bound R, and the projection of u
    perpendicular to theta (None when theta is constant on the nodes).
    """
    n = p.dim
    nodes = refined_points(p, i)
    count = len(nodes)
    values = [theta(a) for a in nodes]
    bar = sum(values, F(0)) / count
    deviations = [v - bar for v in values]
    ttilde = [d / i for d in deviations]
    squares = sum((d * d for d in deviations), F(0))
    vol = p.volume()
    moments = moment_vector(p)
    node_sum = tuple(sum((a[k] for a in nodes), F(0)) for k in range(n))
    coeffs = tuple(
        sum((ttilde[j] * nodes[j][k] for j in range(count)), F(0)) for k in range(n)
    )
    targets = tuple(F(count) * moments[k] / vol - node_sum[k] for k in range(n))
    sol = solve_overdetermined_1d(coeffs, targets)
    s_closed = None if squares == 0 else -F(i) * bar * count / squares
    one = Poly.constant(n, 1)
    q = None
    if sol is not None:
        s = (s_closed or F(0)) if isinstance(sol, AnyS) else sol
        total = sum(((1 + s * ttilde[j]) * g(a) for j, a in enumerate(nodes)), F(0))
        q = count * integrate_pl(p, one, g) - vol * total
    int_u = integrate_pl(p, one, u)
    sum_u = sum((u(a) for a in nodes), F(0))
    kappa = node_values = None
    if squares != 0:
        kappa = sum((u(a) * deviations[j] for j, a in enumerate(nodes)), F(0)) / squares
        shift = AffineFn(tuple(-kappa * x for x in theta.a), -kappa * (theta.c - bar))
        projected = u.add_affine(shift)
        node_values = tuple(projected(a) for a in nodes)
    return {
        "count": count,
        "nodes": tuple(nodes),
        "theta_bar": bar,
        "deviations": tuple(deviations),
        "ttilde": tuple(ttilde),
        "deviation_square_sum": squares,
        "weighted_node_sum": tuple(
            sum((deviations[j] * nodes[j][k] for j in range(count)), F(0)) for k in range(n)
        ),
        "node_sum": node_sum,
        "coeffs": coeffs,
        "targets": targets,
        "balance": sol,
        "s_closed": s_closed,
        "q": q,
        "p": count * int_u - vol * sum_u,
        "kappa": kappa,
        "node_values": node_values,
    }


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


def box_lattice_points(p: Polytope, i: int) -> list:
    """The integer points of ``i * P`` by scanning every cell of its bounding
    box and testing each against every facet, sorted lexicographically."""
    n = p.dim
    lo = [math.ceil(min(v[k] for v in p.vertices) * i) for k in range(n)]
    hi = [math.floor(max(v[k] for v in p.vertices) * i) for k in range(n)]
    # <l, z> <= i * rhs  with rhs = a/b  becomes  b*<l, z> <= i*a.
    constraints = [
        (h.normal, h.rhs.denominator, i * h.rhs.numerator) for h in p.halfspaces
    ]
    points = []
    ranges = [range(lo[k], hi[k] + 1) for k in range(n)]

    def scan(prefix: list, depth: int):
        if depth == n:
            z = tuple(prefix)
            for normal, den, bound in constraints:
                if den * sum(a * b for a, b in zip(normal, z)) > bound:
                    return
            points.append(z)
            return
        for val in ranges[depth]:
            prefix.append(val)
            scan(prefix, depth + 1)
            prefix.pop()

    scan([], 0)
    points.sort()
    return points


def brute_vertices(halfspaces, dim: int) -> list:
    """The sorted vertices of a half-space system by solving every
    ``dim``-subset of facets and keeping the feasible points.

    Raises what ``vertices_from_halfspaces`` raises, in the same order: a
    recession ray (tight on ``dim - 1`` independent normals, so found by
    scanning every ``(dim - 1)``-subset) makes the system unbounded even when
    it is also empty.
    """
    hs = list(halfspaces)
    normals = [h.normal for h in hs]
    if rank(normals) < dim:
        raise Unbounded("facet normals do not span the space")
    for subset in combinations(range(len(hs)), dim - 1):
        d = nullvector([normals[i] for i in subset], dim)
        if d is None:
            continue
        for ray in (d, tuple(-x for x in d)):
            if all(dot(h.normal, ray) <= 0 for h in hs):
                raise Unbounded(f"recession ray {ray}")
    found = set()
    for subset in combinations(range(len(hs)), dim):
        try:
            point = solve_linear([normals[i] for i in subset], [hs[i].rhs for i in subset])
        except SingularMatrix:
            continue
        if all(h.contains(point) for h in hs):
            found.add(point)
    if not found:
        raise Empty("no feasible vertex")
    verts = sorted(found)
    base = verts[0]
    if rank([[v[k] - base[k] for k in range(dim)] for v in verts[1:]]) < dim:
        raise NotFullDimensional("feasible set has empty interior")
    return verts


def _det(m) -> int:
    """Determinant of a small square integer matrix by Laplace expansion."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def brute_hull(points, dim: int) -> list:
    """The sorted facets of the hull of a point set, each as a pair
    (HalfSpace, bitmask of the distinct sorted points on it), by trying the
    hyperplane through every ``dim``-subset of points.

    A facet is a hyperplane with every point on one side whose tight points
    affinely span ``dim - 1`` dimensions.  The points are scaled to integers
    by their common denominator, and each hyperplane's normal is the vector
    of signed maximal minors (the generalized cross product) of its
    ``dim - 1`` edge vectors.  Raises ``NotFullDimensional`` when the points
    do not affinely span the space.
    """
    pts = sorted({tuple(F(x) for x in p) for p in points})
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    ints = [tuple(int(x * scale) for x in p) for p in pts]

    def affine_rank(vs):
        return rank([[v[k] - vs[0][k] for k in range(dim)] for v in vs[1:]]) if vs else -1

    if affine_rank(ints) < dim:
        raise NotFullDimensional("points do not affinely span the space")
    facets = {}
    for subset in combinations(ints, dim):
        base = subset[0]
        edges = [[p[k] - base[k] for k in range(dim)] for p in subset[1:]]
        normal = [
            (-1) ** k * _det([row[:k] + row[k + 1:] for row in edges]) for k in range(dim)
        ]
        if not any(normal):
            continue
        rhs = sum(map(mul, normal, base))
        values = [sum(map(mul, normal, p)) for p in ints]
        if max(values) > rhs and min(values) < rhs:
            continue
        sign = -1 if max(values) > rhs else 1
        h = HalfSpace.make([sign * x for x in normal], F(sign * rhs, scale))
        if h in facets:
            continue
        tight = [j for j, v in enumerate(values) if v == rhs]
        if affine_rank([ints[j] for j in tight]) == dim - 1:
            facets[h] = sum(1 << j for j in tight)
    return sorted(facets.items(), key=lambda f: (f[0].normal, f[0].rhs))


def interior_lattice_point_count(p: Polytope) -> int:
    """The number of integer points strictly inside P, for the reciprocity
    checks of the counting polynomial."""
    return sum(
        all(h.value(z) < h.rhs for h in p.halfspaces) for z in lattice_points(p, 1)
    )


def box_cells(p: Polytope, i: int) -> int:
    """The number of cells of the bounding box of ``i * P``."""
    cells = 1
    for k in range(p.dim):
        lo = math.ceil(min(v[k] for v in p.vertices) * i)
        hi = math.floor(max(v[k] for v in p.vertices) * i)
        cells *= max(0, hi - lo + 1)
    return cells


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


def random_polytope(rng: random.Random, dim: int, points=None, num=6, den=4) -> Polytope:
    """Small random full-dimensional polytope: hull of a random point cloud
    of ``points`` points (default ``dim + 3``), coordinates drawn by
    ``random_fraction(rng, num, den)``."""
    while True:
        pts = [
            tuple(random_fraction(rng, num, den) for _ in range(dim))
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


def mixed_denominator_pl(rng: random.Random, dim: int, mode: str, pieces=2) -> PLFn:
    """A PL function whose pieces have coefficients over different
    denominators (2, 3, 5, 7, ... in turn), so no two share one."""
    dens = (2, 3, 5, 7, 11)
    fns = [
        AffineFn.make(
            [F(rng.randint(-9, 9), dens[k]) for _ in range(dim)], F(rng.randint(-9, 9), dens[k])
        )
        for k in range(pieces)
    ]
    return PLFn(tuple(fns), mode)


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
