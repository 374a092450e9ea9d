"""Independent computation routes used to validate the main code paths.

These deliberately avoid the library's own kernels wherever a second route
exists: the degree-2 simplex formula, the barycentric (Dirichlet) simplex
kernel at every degree, the lift of a facet chart's points back onto the
facet and the triangulation recursing through facet charts, the pulling
triangulation recursing down to single vertices,
facet integrals with the integrand restricted to each chart (the chart
restrictions live only here), slice-and-sum subdivision, L over every facet
chart and every linearity region, its integration-by-parts form, a scan of
the bounding box for lattice points (whole, or with the widest coordinate
solved per cell from the facets) and the interior count for reciprocity,
vertices from every n-subset of facets, facets from every n-subset of
points, the node statistics summed in rationals point by point with the
balance system solved row by row in rationals, the node sums of a PL
function one value per point, Gaussian elimination in
rationals, the greedy basis grown by one rank call per row, the lattice
isomorphisms by a scan of every tuple of vertex images, the product of two
polynomials in one variable, the reflexive polygons enumerated from facet
normals in a box, and plain random data generators.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from operator import mul

from toricstab import (
    Empty,
    HalfSpace,
    NotFullDimensional,
    Poly,
    Polytope,
    SingularMatrix,
    ToricStabError,
    Unbounded,
    integrate,
    integrate_pl,
    moment_vector,
)
from toricstab.lattice import lattice_points, refined_points
from toricstab.linalg import dot, rank, rat, solve_linear
from toricstab.plfun import AffineFn, PLFn, linearity_regions
from toricstab.polytope import (
    FacetChart,
    Simplex,
    facet_chart,
    intersect_halfspace,
    lattice_isomorphisms,
)
from toricstab.stability import _candidates


def fraction_echelon(rows) -> tuple:
    """Forward Gaussian elimination in rationals: the nonzero rows of a row
    echelon form, the pivot column of each, and the sign of the row swaps.

    Each column pivots on its first nonzero entry, as the library's
    fraction-free elimination does, so both find the same pivot columns.
    """
    a = [[rat(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        inv = prow[col]
        for row in a[r + 1:]:
            if row[col] != 0:
                f = row[col] / inv
                for c in range(col, ncols):
                    row[c] -= f * prow[c]
        pivots.append(col)
    return a[: len(pivots)], pivots, sign


def fraction_determinant(m) -> F:
    """The signed product of the pivots of :func:`fraction_echelon`."""
    echelon, pivots, sign = fraction_echelon(m)
    if len(pivots) < len(m):
        return F(0)
    return math.prod((row[col] for row, col in zip(echelon, pivots)), start=F(sign))


def _back_substitute(echelon, pivots, x) -> list:
    """Fill the pivot coordinates of ``x`` (its other entries preset) so that
    every echelon row, with its last entry as right-hand side when it is one
    longer than ``x``, holds."""
    dim = len(x)
    for row, col in zip(reversed(echelon), reversed(pivots)):
        rhs = row[dim] if len(row) > dim else 0
        x[col] = (rhs - sum((row[j] * x[j] for j in range(col + 1, dim)), F(0))) / row[col]
    return x


def fraction_solve(m, b):
    """The solution of the square system ``m x = b``, or None when the
    elimination finds no pivot in some column of ``m``."""
    n = len(m)
    echelon, pivots, _ = fraction_echelon([list(row) + [y] for row, y in zip(m, b)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(_back_substitute(echelon[:n], pivots[:n], [F(0)] * n))


def fraction_nullvector(rows, dim):
    """The primitive integer kernel vector with its free coordinate positive
    when the kernel is a line, else None."""
    echelon, pivots, _ = fraction_echelon(rows)
    if len(pivots) != dim - 1:
        return None
    x = [F(0)] * dim
    x[next(c for c in range(dim) if c not in pivots)] = F(1)
    x = _back_substitute(echelon, pivots, x)
    lcm = math.lcm(*(v.denominator for v in x))
    ints = [int(v * lcm) for v in x]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def greedy_independent_rows(rows) -> list:
    """The indices of the rows that raise the rank of the rows chosen before
    them: the greedy left-to-right basis, one rank call per row."""
    basis = []
    for r, row in enumerate(rows):
        if rank([rows[b] for b in basis] + [row]) > len(basis):
            basis.append(r)
    return basis


def brute_lattice_isomorphisms(p: Polytope, q: Polytope) -> list:
    """The lattice isomorphisms of P onto Q by a scan of every injective
    n-tuple of vertices w_k of Q as the images of the first linearly
    independent n-subset b_k of the vertices of P: each gives the M with
    M b_k = w_k, kept when it is integral, has |det M| = 1 and maps the
    vertices of P onto those of Q."""
    n = p.dim
    basis = next(c for c in combinations(p.vertices, n) if fraction_determinant(c) != 0)
    # Column k of basis^-1 solves basis x = e_k, and M[i][c] is the sum over
    # k of w_k[i] basis^-1[c][k]; in integers, over den and scale.
    columns = [fraction_solve(basis, [F(int(j == k)) for j in range(n)]) for k in range(n)]
    scale = math.lcm(*(x.denominator for col in columns for x in col))
    inverse = [[int(col[c] * scale) for col in columns] for c in range(n)]
    den = math.lcm(*(x.denominator for v in q.vertices for x in v))
    rows = {v: [int(x * den) for x in v] for v in q.vertices}
    vertices = set(q.vertices)
    found = set()
    for images in permutations(q.vertices, n):
        matrix = []
        for i in range(n):
            sums = [sum(rows[w][i] * x for w, x in zip(images, inv)) for inv in inverse]
            if any(y % (den * scale) for y in sums):
                break
            matrix.append(tuple(y // (den * scale) for y in sums))
        else:
            if abs(fraction_determinant(matrix)) != 1:
                continue
            if {tuple(dot(row, v) for row in matrix) for v in p.vertices} == vertices:
                found.add(tuple(matrix))
    return sorted(found)


def reflexive_polygons() -> list:
    """One polygon of each lattice isomorphism class of reflexive polygons:
    the polygons {x : <l, x> <= 1} over 3 to 6 primitive normals l in
    [-2, 2]^2 that have one facet per normal and lattice vertices, grouped
    by ``lattice_isomorphisms`` within buckets of equal vertex count and
    volume."""
    normals = [l for l in product(range(-2, 3), repeat=2) if math.gcd(*l) == 1]
    buckets: dict = {}
    for k in range(3, 7):
        for chosen in combinations(normals, k):
            try:
                p = Polytope.from_halfspaces([(l, 1) for l in chosen])
            except ToricStabError:
                continue
            if len(p.halfspaces) != k or not p.is_lattice():
                continue
            bucket = buckets.setdefault((len(p.rows), p.volume()), [])
            if not any(lattice_isomorphisms(p, q) for q in bucket):
                bucket.append(p)
    return [p for bucket in buckets.values() for p in bucket]


def cp1_times(p: Polytope) -> Polytope:
    """CP^1 x P: the half-spaces of P with a zero last coordinate, and
    x_{n+1} <= 1 and -x_{n+1} <= 1."""
    pad = [((*h.normal, 0), h.rhs) for h in p.halfspaces]
    ends = [((0,) * p.dim + (s,), 1) for s in (1, -1)]
    return Polytope.from_halfspaces(pad + ends, f"CP1x{p.name}")


def degree2_simplex_integral(simplex: Simplex, l1: AffineFn, l2: AffineFn) -> F:
    """Closed form for the integral of a product of two affine functions:
    Vol/((n+1)(n+2)) * [sum l1(v)l2(v) + (sum l1(v))(sum l2(v))]."""
    n = simplex.dim
    vol = simplex.volume()
    vals1 = [l1(v) for v in simplex.vertices]
    vals2 = [l2(v) for v in simplex.vertices]
    paired = sum((a * b for a, b in zip(vals1, vals2)), F(0))
    return vol * (paired + sum(vals1) * sum(vals2)) / ((n + 1) * (n + 2))


def compose_affine(poly: Poly, maps) -> Poly:
    """Substitute x_i = maps[i], polynomials in a new variable set."""
    nvars = maps[0].nvars
    out = Poly.constant(nvars, 0)
    for expo, coeff in poly.terms.items():
        term = Poly.constant(nvars, coeff)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = term * maps[i]
        out = out + term
    return out


def dirichlet_simplex_integral(simplex: Simplex, poly: Poly, measure) -> F:
    """The integral of ``poly`` at any degree over the simplex of the given
    measure, which may have fewer dimensions than its ambient space: expand
    it in barycentric coordinates and apply the Dirichlet moment formula
    d! measure * (prod alpha_j!) / (d + |alpha|)! to each monomial."""
    d = simplex.dim
    v0 = simplex.vertices[0]
    maps = [
        Poly.affine([simplex.vertices[j + 1][i] - v0[i] for j in range(d)], v0[i])
        for i in range(len(v0))
    ]
    total = F(0)
    for expo, coeff in compose_affine(poly, maps).terms.items():
        num = math.prod(math.factorial(e) for e in expo)
        total += coeff * math.factorial(d) * measure * F(num, math.factorial(d + sum(expo)))
    return total


def dirichlet_over_cells(cells, poly: Poly) -> F:
    """:func:`dirichlet_simplex_integral` summed over full-dimensional cells."""
    return sum((dirichlet_simplex_integral(c, poly, c.volume()) for c in cells), F(0))


def dirichlet_facet_integral(p: Polytope, i: int, poly: Poly) -> F:
    """The integral of ``poly`` at any degree over facet i in the lattice
    measure: the Dirichlet kernel over the cells of the facet's moment record,
    each at its measure w / base."""
    m = p.facet_moments(i)
    return sum(
        (
            dirichlet_simplex_integral(
                Simplex(tuple(p.vertices[j] for j in cell)), poly, F(w, m.base)
            )
            for cell, w in zip(m.cells, m.weights)
        ),
        F(0),
    )


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


def recursive_face_cells(p: Polytope, face: int, apex_last: bool, memo: dict) -> tuple:
    """The cells of the face with vertex bitmask ``face`` by the plain
    pulling recursion, with no shortcut for simplex faces: the cone from its
    lowest vertex (highest with ``apex_last``) over the cells of the facets
    of the face that miss it, down to single vertices.  The facets of a face
    are the maximal proper non-empty sets face & incidence[j]."""
    if face not in memo:
        apex = face.bit_length() - 1 if apex_last else (face & -face).bit_length() - 1
        if face == 1 << apex:
            memo[face] = ((apex,),)
        else:
            subs = [g for g in dict.fromkeys(face & m for m in p.incidence) if g and g != face]
            maximal = [
                k for k, m in enumerate(subs) if not any(o != m and o & m == m for o in subs)
            ]
            memo[face] = tuple(
                (apex,) + cell
                for g in (subs[k] for k in maximal)
                if not g >> apex & 1
                for cell in recursive_face_cells(p, g, apex_last, memo)
            )
    return memo[face]


def recursive_weighted_cells(p: Polytope, apex_last: bool = False) -> tuple:
    """(cells, weights, base) of P and the list of the same triple for each
    facet, over the cells of :func:`recursive_face_cells`, each weighed by
    the absolute rational determinant of its edges on the integer rows (a
    facet's without the coordinate of the first non-zero entry of its
    normal); P's cells cone from its first vertex (last with ``apex_last``)
    over the cells of the facets that miss it, in facet order."""
    n, den, rows = p.dim, p.den, p.rows

    def weight(cell, keep):
        edges = [[rows[j][k] - rows[cell[0]][k] for k in keep] for j in cell[1:]]
        return int(abs(fraction_determinant(edges)))

    memo: dict = {}
    facets = []
    for h, mask in zip(p.halfspaces, p.incidence):
        axis = next(k for k, c in enumerate(h.normal) if c)
        keep = [k for k in range(n) if k != axis]
        cells = recursive_face_cells(p, mask, apex_last, memo)
        base = math.factorial(n - 1) * den ** (n - 1) * abs(h.normal[axis])
        facets.append((cells, [weight(cell, keep) for cell in cells], base))
    apex = len(rows) - 1 if apex_last else 0
    cells = [
        (apex,) + cell
        for (sub, _, _), mask in zip(facets, p.incidence)
        if not mask >> apex & 1
        for cell in sub
    ]
    whole = (cells, [weight(cell, range(n)) for cell in cells], math.factorial(n) * den**n)
    return whole, facets


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
    return compose_affine(poly, maps)


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
        out.append(chart.scale * dirichlet_over_cells(cells, restricted))
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


def cut_boundary_facets(p: Polytope, region: Polytope, b) -> list:
    """The facets of ``region``, P cut by -b.x <= r, that lie on facets of
    P by the cut-normal rule: all of them but the cut, whose normal is -b
    made primitive (no facet of P with that normal survives a cut that does
    not miss P), or all of P's when the cut misses P."""
    if region is p:
        return list(range(len(p.halfspaces)))
    g = math.gcd(*b)
    cut = tuple(-x // g for x in b)
    return [i for i, h in enumerate(region.halfspaces) if h.normal != cut]


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


class AnyS:
    """Distinguished result of a 0 = 0 one-unknown system: every scalar works.

    Kept as its own type (not a sentinel number) so callers can tell
    "any s is admissible" apart from "s = 0 is the solution".
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AnyS"


ANY_S = AnyS()


def solve_overdetermined_1d(coeffs, rhs):
    """Solve ``coeffs[k] * s = rhs[k]`` for a single unknown ``s`` in
    rationals, row by row: the exact solution when one satisfies every row,
    :data:`ANY_S` when every row reads 0 = 0, and ``None`` when the rows are
    inconsistent.  The reference for the integer minors of the library's
    balance system (``stability._balance``).
    """
    if len(coeffs) != len(rhs):
        raise ValueError("dimension mismatch")
    s = None
    for c, r in zip(coeffs, rhs):
        c, r = rat(c), rat(r)
        if c == 0:
            if r != 0:
                return None
            continue
        cand = r / c
        if s is None:
            s = cand
        elif s != cand:
            return None
    return ANY_S if s is None else s


def fraction_node_stats(
    p: Polytope, theta: AffineFn, i: int, g: PLFn, u: PLFn, bound, points=None
) -> dict:
    """The node statistics of level i summed in rationals, point by point.

    theta, g and u are evaluated at every node of the refined sample
    P meet (Z/i)^n; from those values come theta_bar, the deviations, the
    sums of the balance system and its outcome, the closed-form s, the gate's
    weighted node sum, Q(i, g) with s from the system (None when the system
    fails), P(i, u) against the bound R, and the projection of u
    perpendicular to theta (None when theta is constant on the nodes).
    The nodes are ``points`` / i, for the integer points of iP found by a
    scan, or by the library's enumeration when ``points`` is None.
    """
    n = p.dim
    if points is None:
        nodes = refined_points(p, i)
    else:
        nodes = [tuple(F(x, i) for x in z) for z in points]
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


def theta_pairing(p: Polytope, theta: AffineFn, i: int, f) -> F:
    """The node pairing of f with theta - theta_bar at level i, summed in
    rationals over the library's nodes: zero when f is perpendicular to
    theta there."""
    nodes = refined_points(p, i)
    values = [theta(a) for a in nodes]
    bar = sum(values, F(0)) / len(nodes)
    return sum(((v - bar) * f(a) for v, a in zip(values, nodes)), F(0))


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


def fibre_scan_points(p: Polytope, i: int) -> list:
    """The integer points of ``i * P`` by scanning every cell of the bounding
    box of all coordinates but the widest and solving, per cell, the range
    of that one from every facet of P, sorted lexicographically.

    A cheaper scan than :func:`box_lattice_points` for polytopes whose box
    is large, with no coordinate projection: a facet <l, z> <= rhs = a/b
    bounds t = z_m, m the widest axis, by b c t <= i a - b <l', z'>, for
    c = l_m and z' the other coordinates; c = 0 tests z' alone.
    """
    n = p.dim
    box = [
        range(math.ceil(min(v[k] for v in p.vertices) * i),
              math.floor(max(v[k] for v in p.vertices) * i) + 1)
        for k in range(n)
    ]
    m = max(range(n), key=lambda k: len(box[k]))
    rest_axes = [k for k in range(n) if k != m]
    rows = [
        ([h.rhs.denominator * h.normal[k] for k in rest_axes], h.rhs.denominator * h.normal[m],
         i * h.rhs.numerator)
        for h in p.halfspaces
    ]
    points = []
    for prefix in product(*(box[k] for k in rest_axes)):
        lo, hi = -math.inf, math.inf
        for normal, c, bound in rows:
            rest = bound - sum(a * b for a, b in zip(normal, prefix))
            if c > 0:
                hi = min(hi, rest // c)
            elif c < 0:
                lo = max(lo, -(-rest // c))  # ceil(rest / c)
            elif rest < 0:
                break
        else:
            for t in range(lo, hi + 1):
                points.append(prefix[:m] + (t,) + prefix[m:])
    return sorted(points)


def point_sums(points, dim: int) -> tuple:
    """(N, sum z, sum z z^T) over integer points, one by one."""
    return (
        len(points),
        tuple(sum(z[k] for z in points) for k in range(dim)),
        tuple(tuple(sum(z[j] * z[k] for z in points) for k in range(dim)) for j in range(dim)),
    )


def pl_node_sums(f, points, dim: int, i: int) -> tuple:
    """(sum F, sum z F, D i) for an AffineFn or PLFn f = F / (D i) at the
    nodes z / i of the integer ``points``, one value per point: with D the
    least common denominator of every piece's coefficients, a piece a.x + c
    is the integer D (a.z + c i) over D i at z / i, and F is the max
    (convex) or min (concave) of the pieces' integers."""
    pieces = f.pieces if isinstance(f, PLFn) else (f,)
    den = math.lcm(*(x.denominator for g in pieces for x in (*g.a, g.c)))
    rows = [([int(den * x) for x in g.a], int(den * g.c) * i) for g in pieces]
    pick = min if isinstance(f, PLFn) and f.mode == "concave" else max
    values = [pick(sum(map(mul, a, z)) + c for a, c in rows) for z in points]
    moment = [sum(z[k] * v for z, v in zip(points, values)) for k in range(dim)]
    return sum(values), moment, den * i


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
        d = fraction_nullvector([normals[i] for i in subset], dim)
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


def random_unimodular(rng: random.Random, n=3, steps=6) -> list:
    """A product of random elementary integer matrices, as rows."""
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        r, c = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[r] = [x + k * y for x, y in zip(m[r], m[c])]
    return m


def linear_image(m, p: Polytope) -> Polytope:
    """M P, the hull of the images of P's vertices under the matrix M (rows)."""
    return Polytope.from_vertices([[dot(row, v) for row in m] for v in p.vertices])


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


def multiply(p, q) -> list:
    """The product of two polynomials in one variable, low degree first,
    with no trailing zero (``[]`` for zero)."""
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for j, a in enumerate(p):
        for k, b in enumerate(q):
            out[j + k] += a * b
    while out and not out[-1]:
        out.pop()
    return out


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


def search_candidates(p, ed, grid):
    """The destabilizer search's candidates max{0, b.x + d / q}, in scan order."""
    for b, d, q in _candidates(p, ed, grid):
        yield PLFn.simple(b, F(d, q))
