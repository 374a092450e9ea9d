"""Exact convex polytope kernel.

A polytope carries an irredundant list of facet half-spaces ``<l, x> <= rhs``
with primitive integer normals, its vertices as sorted integer rows over
their least common denominator (vertex j is ``rows[j] / den``), and their
incidence: one int bitmask per facet, bit j set when vertex j lies on it.
The kernel computes on the rows; the rational vertices are built when read.

Both directions of the hull run one double-description core,
:func:`_extreme_rays`: a pointed cone is built one constraint at a time on
exact primitive integer rays, one :func:`_dd_step` each, and two rays are
adjacent when the bitmasks of the constraints tight on them (their zero
sets) meet in a set that no third zero set contains.  Half-spaces give the
vertices as the rays of their homogenized cone; points give the facets as
the rays of the cone of half-spaces that hold them all.  Either way the
final zero sets are the incidence.  A cut by one more half-space is the same
step on the cone over the vertices, the rays (r, den) of the rows, so the
incidence is carried through every cut rather than recomputed and the cut
is compared with the vertices in integers.  A facet is a half-space whose
tight set lies in no other's, and a vertex is a point whose set of facets
lies in no other point's.

Faces are vertex bitmasks too.  The facets of a k-face F are the maximal proper
sets F & incidence[j] with at least k vertices, and the triangulation of F
cones from its lowest vertex index over the triangulations of the facets of F
that miss it, memoized per face mask; a face with k + 1 vertices is a simplex
and its own one cell.  The cells are tuples of P's own vertices: no face is
projected, lifted or hulled.  Over those cells each polytope keeps one integer
moment record (volume and the integrals of x_k and x_j x_k), and each facet one
in the lattice measure.  On the rows, a facet cell costs one integer
determinant (by cofactors up to dimension 4), a cell of P (the apex over a
facet cell) follows from it and the apex's lattice height.  A record keeps its
cells and the integer sums over them; each moment is one division, made when a
caller first reads it, and a contraction s^T M_2 t with integer s and t is read
off the cells without the n x n matrix.  L, theta, the mean criterion, the
integral of a PL function over P (the Chow weight samples) and the gate's
boundary moment read records in integers; only theta's Gram matrix builds
M_2, in one pass.

The linear lattice automorphisms of P (the integer matrices with |det| = 1
that map P onto itself) are found by backtracking over the images of n
independent vertices, pruned by the facet values at each vertex, which every
automorphism permutes.  The destabilizer search evaluates L once per orbit
of its candidates under them.

A facet chart (a facet projected along one axis) is the hull of the facet's
vertices with that coordinate dropped.  No integral in the package reads a
chart; charts are the independent route the tests compare the facet records
with, and every other chart routine lives in the test oracles.  The traced
benchmark run (``perfbench``) still reports ``facet_chart`` by name, so the
chart stays here until that probe is dropped.  Everything stays rational at
the dimensions this library targets (n <= 6, a few dozen facets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .errors import (
    Empty,
    NotFullDimensional,
    OriginNotInterior,
    Unbounded,
    ValidationError,
)
from .linalg import (
    _independent_rows,
    _over_common_denominator,
    _primitive_ints,
    determinant,
    nullvector,
    rank,
    rat,
    solve_linear,
    vec,
)

MAX_DIM = 6


def primitive_normal(normal: Sequence, rhs) -> tuple[tuple[int, ...], Fraction]:
    """Clear denominators and common factors: primitive integer normal, rescaled rhs."""
    # Int entries stay ints, so an integer normal is cleared without Fractions.
    normal = [x if type(x) is int else rat(x) for x in normal]
    rhs = rat(rhs)
    if all(x == 0 for x in normal):
        raise ValidationError("half-space normal must be nonzero")
    ints, scale = _primitive_ints(normal)
    return ints, rhs * scale


@dataclass(frozen=True, order=True)
class HalfSpace:
    """Constraint ``<normal, x> <= rhs`` with a primitive integer normal."""

    normal: tuple[int, ...]
    rhs: Fraction

    @staticmethod
    def make(normal: Sequence, rhs) -> "HalfSpace":
        n, r = primitive_normal(normal, rhs)
        return HalfSpace(n, r)

    def value(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.normal):
            raise ValidationError(f"a point of length {len(point)} in dimension {len(self.normal)}")
        return sum((Fraction(a) * x for a, x in zip(self.normal, point)), Fraction(0))

    def contains(self, point) -> bool:
        return self.value(point) <= self.rhs

    def tight(self, point) -> bool:
        return self.value(point) == self.rhs


@dataclass(frozen=True)
class Simplex:
    """Affinely independent vertex tuple; the integration cell."""

    vertices: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def volume(self) -> Fraction:
        """The volume, the measure of the cell's moment record."""
        return self.moments().measure

    def moments(self) -> Moments:
        """The integrals of 1, x_k and x_j x_k over the cell, computed once
        and shared by every integrand of degree at most 2 over it."""
        return self._moments

    @cached_property
    def _moments(self) -> Moments:
        # One cell over all the vertices: it weighs n! den^n vol, the
        # absolute determinant of its integer edges.
        n = self.dim
        den, rows = _over_common_denominator(self.vertices)
        edges = [[r[k] - rows[0][k] for k in range(n)] for r in rows[1:]]
        weight = abs(determinant(edges).numerator)
        return Moments(rows, den, (tuple(range(n + 1)),), (weight,), math.factorial(n) * den**n)


def _affine_rank(points) -> int:
    """Dimension of the affine span of a point list."""
    if not points:
        return -1
    base = points[0]
    return rank([[p[i] - base[i] for i in range(len(base))] for p in points[1:]])


def _transpose(masks, count: int) -> list[int]:
    """Bitmasks of items over ``count`` others, turned into bitmasks of the
    others over the items: bit k of result j is bit j of ``masks[k]``."""
    return [sum(1 << k for k, m in enumerate(masks) if m >> j & 1) for j in range(count)]


def _maximal(masks) -> list[int]:
    """The indices of the masks that lie in no other mask."""
    return [k for k, m in enumerate(masks) if not any(o != m and o & m == m for o in masks)]


def vertices_from_halfspaces(
    halfspaces: Sequence[HalfSpace], dim: int
) -> list[tuple[Fraction, ...]]:
    """The sorted exact vertices of a bounded full-dimensional system.

    Uses the double-description method (see :func:`_extreme_rays`).
    Raises :class:`Unbounded` when the system has a recession ray, even if it
    is also empty; else :class:`Empty` when nothing is feasible and
    :class:`NotFullDimensional` when the feasible set has empty interior.
    """
    den, rows, _ = _vertices(list(halfspaces), dim)
    return [tuple(Fraction(c, den) for c in r) for r in rows]


def _vertices(hs, dim):
    """The vertices of the system ``hs`` (see :func:`_vertex_rows`), each
    with the bitmask of the half-spaces of ``hs`` tight on it.

    They are the extreme rays with t > 0 of the homogenized cone
    {(x, t) : <l, x> - rhs*t <= 0, t >= 0}, scaled by t; a ray with t = 0 is a
    recession ray.  The row t >= 0 comes first, as bit 0, so the simplicial
    start holds it and the cone never leaves t >= 0.
    """
    rows = [(0,) * dim + (-1,)] + [
        tuple(h.rhs.denominator * a for a in h.normal) + (-h.rhs.numerator,) for h in hs
    ]
    cone = _extreme_rays(rows, dim + 1)
    if cone is None:
        raise Unbounded("facet normals do not span the space")
    rays, zero_sets = cone
    for y in rays:
        if y[dim] == 0:
            raise Unbounded(f"recession ray {y[:dim]}")
    if not rays:
        raise Empty("no feasible vertex")
    # The affine rank of the points is the rank of their rays (y, t) less 1.
    if rank(rays) < dim + 1:
        raise NotFullDimensional("feasible set has empty interior")
    return _vertex_rows(rays, [z >> 1 for z in zero_sets], dim)


def _vertex_rows(rays, zero_sets, n: int):
    """(den, rows, zero_sets) for the points y / t of the rays (y, t), sorted:
    point j is rows[j] / den.  Made primitive, a ray's t is its point's own
    denominator, so den, their lcm, is the least common one."""
    den = math.lcm(*(y[n] // math.gcd(*y) for y in rays))
    rows = [tuple(c * den // y[n] for c in y[:n]) for y in rays]
    rows, zero_sets = zip(*sorted(zip(rows, zero_sets)))
    return den, rows, zero_sets


def halfspaces_from_vertices(points: Sequence[Sequence], dim: int) -> list[HalfSpace]:
    """The sorted irredundant facet list of the hull of a point set, by the
    double-description method (see :func:`_extreme_rays`); repeated points
    count once."""
    return [h for h, _ in _facets(sorted({vec(p) for p in points}), dim)]


def _facets(pts, dim) -> list[tuple[HalfSpace, int]]:
    """The sorted facets of the hull of the distinct points ``pts``, each with
    the bitmask of the points on it.

    The facets (l, r) are the extreme rays of the cone
    {(l, r) : <l, p> - r <= 0 for every p}, which is pointed exactly when the
    points affinely span the space; the zero set of a ray is the points on
    its facet.
    """
    if any(len(p) != dim for p in pts):
        raise ValidationError("mixed ambient dimensions")
    cone = _extreme_rays([_primitive_ints((*p, Fraction(-1)))[0] for p in pts], dim + 1)
    if cone is None:
        raise NotFullDimensional("points do not affinely span the space")
    return sorted((HalfSpace.make(y[:dim], y[dim]), z) for y, z in zip(*cone))


def _extreme_rays(rows, dim) -> Optional[tuple[list[tuple[int, ...]], list[int]]]:
    """The extreme rays of the cone {y : <a, y> <= 0 for every row a} in
    dimension ``dim``, as primitive integer vectors, and per ray its zero set:
    the bitmask of the rows tight on it, bit r for ``rows[r]``.  ``None`` when
    the rows do not span, so the cone is not pointed.

    The double-description method (Fukuda & Prodon, "Double description
    method revisited", 1996) on integer rows: the cone starts simplicial on
    the first ``dim`` independent rows, and each further row is one
    :func:`_dd_step`.
    """
    basis = _independent_rows(rows)
    if len(basis) < dim:
        return None
    rays, zero_sets = [], []
    for k in basis:
        others = [rows[b] for b in basis if b != k]
        ray = nullvector(others, dim)
        if sum(map(mul, rows[k], ray)) > 0:
            ray = tuple(-c for c in ray)
        rays.append(ray)
        zero_sets.append(sum(1 << b for b in basis if b != k))
    chosen = set(basis)
    for r, row in enumerate(rows):
        if r in chosen:
            continue
        vals = [sum(map(mul, row, y)) for y in rays]
        keep, new_rays, zero_sets = _dd_step(rays, zero_sets, vals, 1 << r, dim)
        rays = [rays[k] for k in keep] + new_rays
    return rays, zero_sets


def _dd_step(rays, zero_sets, vals, bit: int, dim: int):
    """One double-description step: the extreme rays of a pointed cone in
    dimension ``dim``, integer vectors with zero sets ``zero_sets``, cut by a
    constraint whose value on ray k is ``vals[k]`` and whose bit is ``bit``.

    The rays on the non-positive side stay, with ``bit`` added to the zero
    sets of those on the hyperplane, and each adjacent pair across it adds
    the primitive combination that lies on it.  Two rays are adjacent when
    the face through both holds no third: their common zero set has at least
    dim - 2 bits and lies in no other zero set.  A polytope is the cone over
    its vertices (v, 1), with the facets through each as its zero set.

    Returns the indices of the rays kept, the new rays, and the zero sets of
    both, those kept first.
    """
    keep = [k for k, s in enumerate(vals) if s <= 0]
    new_zero_sets = [zero_sets[k] | bit if vals[k] == 0 else zero_sets[k] for k in keep]
    new_rays = []
    above = [j for j, s in enumerate(vals) if s > 0]
    for i, si in enumerate(vals):
        if si >= 0:
            continue
        zi = zero_sets[i]
        for j in above:
            common = zi & zero_sets[j]
            if common.bit_count() >= dim - 2 and not any(
                z & common == common for k, z in enumerate(zero_sets) if k != i and k != j
            ):
                y = [vals[j] * a - si * b for a, b in zip(rays[i], rays[j])]
                g = math.gcd(*y)
                new_rays.append(tuple(c // g for c in y))
                new_zero_sets.append(common | bit)
    return keep, new_rays, new_zero_sets


class Polytope:
    """Full-dimensional bounded rational polytope with both representations.

    Vertex j is ``rows[j] / den``: the rows are sorted integer tuples and den
    their least common denominator.  ``vertices``, the same points as sorted
    ``Fraction`` tuples, is built when first read.  Instances are immutable
    apart from lazily filled caches; they can be shared freely.
    """

    def __init__(
        self,
        halfspaces: Sequence[HalfSpace],
        den: int,
        rows: Sequence[tuple[int, ...]],
        incidence: Sequence[int],
        name: Optional[str] = None,
    ):
        self.dim = len(halfspaces[0].normal)
        self.halfspaces = tuple(halfspaces)
        self.den = den
        self.rows = tuple(rows)
        # Per facet, the bitmask of the vertices on it (bit j for vertex j).
        self.incidence = tuple(incidence)
        self.name = name
        self.cache: dict = {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_halfspaces(raw: Sequence, name: Optional[str] = None) -> "Polytope":
        """Build from ``(normal, rhs)`` pairs or HalfSpace objects."""
        hs = []
        for item in raw:
            if isinstance(item, HalfSpace):
                item = (item.normal, item.rhs)
            normal, rhs = item
            hs.append(HalfSpace.make(normal, rhs))
        dim = _common_dim([h.normal for h in hs], "no half-spaces")
        hs = _tightest(hs)
        return _prune_redundant(hs, *_vertices(hs, dim), name)

    @staticmethod
    def from_vertices(points: Sequence[Sequence], name: Optional[str] = None) -> "Polytope":
        """Hull of a point set; repeated and non-extreme points are dropped."""
        pts = sorted({vec(p) for p in points})
        facets = _facets(pts, _common_dim(pts, "no points"))
        # A point is a vertex when no other point lies on every facet through it.
        on = _transpose([mask for _, mask in facets], len(pts))
        keep = _maximal(on)
        masks = _transpose([on[j] for j in keep], len(facets))
        den, rows = _over_common_denominator([pts[j] for j in keep])
        return Polytope([h for h, _ in facets], den, map(tuple, rows), masks, name)

    # -- basic queries -----------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices as sorted ``Fraction`` tuples."""
        return tuple(tuple(Fraction(c, self.den) for c in r) for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, Polytope) and (self.den, self.rows) == (other.den, other.rows)

    def __repr__(self):
        label = self.name or "polytope"
        return f"<{label}: dim {self.dim}, {len(self.halfspaces)} facets, {len(self.rows)} vertices>"

    def contains(self, point) -> bool:
        point = vec(point)
        return all(h.contains(point) for h in self.halfspaces)

    def facet_vertices(self, i: int) -> list[tuple[Fraction, ...]]:
        return [v for j, v in enumerate(self.vertices) if self.incidence[i] >> j & 1]

    def is_lattice(self) -> bool:
        return self.den == 1

    # -- measures ----------------------------------------------------------

    def volume(self) -> Fraction:
        return self.moments().measure

    def boundary_volume(self) -> Fraction:
        """Total lattice-normalized measure of the boundary."""
        return sum(
            (self.facet_moments(i).measure for i in range(len(self.halfspaces))), Fraction(0)
        )

    def moments(self) -> Moments:
        """The integrals of 1, x_k and x_j x_k over P."""
        return _moments(self, None)

    def facet_moments(self, i: int) -> Moments:
        """The integrals of 1, x_k and x_j x_k over facet ``i`` in the
        lattice-normalized measure, in the coordinates of P."""
        return _moments(self, i)

    # -- triangulation -----------------------------------------------------

    def triangulation(self) -> list[Simplex]:
        """Pulling triangulation from the lex-smallest vertex (see the module
        docstring): the cells of P's moment record as simplices."""
        cells = _weighted_cells(self, None)[0]
        return [Simplex(tuple(self.vertices[j] for j in cell)) for cell in cells]


class Moments:
    """The integrals of 1, x_k and x_j x_k over a polytope, or over one of
    its facets in the lattice-normalized measure: every integral of degree
    at most 2 is a contraction with them.

    The record keeps the integer sums they are read from.  Its cells are
    tuples of indices into ``rows``, the vertices over their common
    denominator den, and a cell weighs w, its measure times ``base``.  On a
    d-cell with vertex sum S and Q = sum r r^T over its rows, x_k integrates
    to w S_k / (base den (d+1)) and x_j x_k to
    w (Q_jk + S_j S_k) / (base den^2 (d+1)(d+2)).  So the measure is ``mass``
    (the sum of the weights) over ``base``, the first moments are ``sums``
    over ``first_den`` (a.x + c integrates to :meth:`linear` over it), and
    s^T M_2 t is :meth:`quadratic` over ``second_den``.  ``measure``,
    ``first`` and ``second`` are those quotients, divided out when first
    read.  Each vertex enters the sums of w S and w Q with its ``load``, the
    total weight of its cells, so M_2 is one pass: load r r^T over the
    vertices plus w S S^T over the cells.
    """

    def __init__(self, rows, den: int, cells, weights, base: int):
        self.rows = rows
        self.cells = cells
        self.weights = weights
        load = [0] * len(rows)
        for cell, w in zip(cells, weights):
            for j in cell:
                load[j] += w
        self.load = load
        self.mass = sum(weights)
        self.base = base
        loaded = [(r, w) for r, w in zip(rows, load) if w]
        self.sums = tuple(sum(w * r[k] for r, w in loaded) for k in range(len(rows[0])))
        d = len(cells[0]) - 1
        self.first_den = base * den * (d + 1)
        self.second_den = self.first_den * den * (d + 2)

    @cached_property
    def measure(self) -> Fraction:
        return Fraction(self.mass, self.base)

    @cached_property
    def first(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self.first_den) for s in self.sums)

    @cached_property
    def second(self) -> tuple[tuple[Fraction, ...], ...]:
        terms = [(w, r) for w, r in zip(self.load, self.rows) if w] + [
            (w, [sum(c) for c in zip(*(self.rows[j] for j in cell))])
            for cell, w in zip(self.cells, self.weights)
        ]
        n = len(self.sums)
        upper = {(j, k): Fraction(sum(w * r[j] * r[k] for w, r in terms), self.second_den)
                 for j in range(n) for k in range(j, n)}
        return tuple(tuple(upper[min(j, k), max(j, k)] for k in range(n)) for j in range(n))

    def linear(self, a: Sequence[int], c: int) -> int:
        """The integral of a.x + c times ``first_den``, for integer a and c:
        c mass (first_den // base) + a.sums."""
        return c * self.mass * (self.first_den // self.base) + sum(map(mul, a, self.sums))

    def quadratic(self, s: Sequence[int], t: Sequence[int]) -> int:
        """s^T M_2 t times ``second_den``, for integer vectors s and t: the
        sum over the cells of w (s.S)(t.S), plus the sum over the vertices
        of their load times (s.r)(t.r)."""
        sr = [sum(map(mul, s, r)) for r in self.rows]
        tr = [sum(map(mul, t, r)) for r in self.rows]
        total = sum(w * a * b for w, a, b in zip(self.load, sr, tr) if w)
        for cell, w in zip(self.cells, self.weights):
            total += w * sum(sr[j] for j in cell) * sum(tr[j] for j in cell)
        return total


def _face_cells(p: Polytope, face: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """The cells of the triangulation of the face of dimension ``dim`` with
    vertex bitmask ``face``, as tuples of vertex indices: the cone from its
    lowest vertex over the cells of its facets that miss it.  A face with
    dim + 1 vertices is a simplex, its own one cell, with its vertices in
    the order that cone gives: ascending.

    Every face of P is the meet of the facets of P through it, so the faces
    of F are the sets F & incidence[j]; its facets are the maximal proper
    ones, each with at least dim vertices.  A facet missing the apex does
    not hold it in its affine span, so no cell is flat.
    """
    memo = p.cache.setdefault("faces", {})
    if face not in memo:
        if face.bit_count() == dim + 1:
            memo[face] = (tuple(j for j in range(face.bit_length()) if face >> j & 1),)
        else:
            apex = (face & -face).bit_length() - 1
            subs = [
                g for g in dict.fromkeys(face & m for m in p.incidence)
                if g != face and g.bit_count() >= dim
            ]
            memo[face] = tuple(
                (apex,) + cell
                for g in (subs[k] for k in _maximal(subs))
                if not g >> apex & 1
                for cell in _face_cells(p, g, dim - 1)
            )
    return memo[face]


def _weighted_cells(p: Polytope, facet: Optional[int]):
    """(cells, weights, base) for facet ``facet`` of P, or for P when it is
    None: the cells of the pulling triangulation (P's cone from vertex 0 over
    the facets that miss it) as tuples of vertex indices and per cell an
    integer weight, its measure times ``base``.

    With the vertices over their common denominator den, a facet cell weighs
    the absolute determinant of its edges without coordinate ``axis``, the
    first non-zero entry of the normal l; scaled by 1/|l_axis| that is the
    lattice measure, so base = (n-1)! den^(n-1) |l_axis|.  A cell of P is the
    apex over a facet cell, and n! times its volume is the apex's lattice
    distance to the facet times (n-1)! times the cell's lattice measure: it
    weighs den times that distance times the facet cell's weight over
    |l_axis|, with base n! den^n.
    """
    key = ("cells", facet)
    if key not in p.cache:
        den, rows = p.den, p.rows
        n = p.dim
        cells, weights = [], []
        if facet is None:
            for i, (h, mask) in enumerate(zip(p.halfspaces, p.incidence)):
                if mask & 1:
                    continue
                sub_cells, sub_weights, _ = _weighted_cells(p, i)
                on = rows[sub_cells[0][0]]
                height = abs(sum(map(mul, h.normal, on)) - sum(map(mul, h.normal, rows[0])))
                scale = abs(next(c for c in h.normal if c))
                cells += [(0,) + cell for cell in sub_cells]
                weights += [height * w // scale for w in sub_weights]
            base = math.factorial(n) * den**n
        else:
            normal = p.halfspaces[facet].normal
            axis = next(k for k, c in enumerate(normal) if c)
            keep = [k for k in range(n) if k != axis]
            cells = _face_cells(p, p.incidence[facet], n - 1)
            for cell in cells:
                r0 = rows[cell[0]]
                edges = [[rows[j][k] - r0[k] for k in keep] for j in cell[1:]]
                weights.append(abs(determinant(edges).numerator))
            base = math.factorial(n - 1) * den ** (n - 1) * abs(normal[axis])
        p.cache[key] = (cells, weights, base)
    return p.cache[key]


def _moments(p: Polytope, facet: Optional[int]) -> Moments:
    """The moment record of P or of one facet, over the cells of its
    triangulation and P's vertices over their common denominator."""
    key = ("moments", facet)
    if key not in p.cache:
        p.cache[key] = Moments(p.rows, p.den, *_weighted_cells(p, facet))
    return p.cache[key]


def _common_dim(rows, empty: str) -> int:
    """The one length of ``rows``, checked against the kernel's dimension guard."""
    if not rows:
        raise ValidationError(empty)
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise ValidationError("mixed ambient dimensions")
    if dim < 1:
        raise ValidationError("ambient dimension must be positive")
    if dim > MAX_DIM:
        raise ValidationError(f"dimension {dim} exceeds the exact-kernel guard ({MAX_DIM})")
    return dim


def _tightest(hs) -> list[HalfSpace]:
    """Same normal twice: keep only the tighter constraint, which is all that can matter."""
    tightest = {}
    for h in hs:
        if h.normal not in tightest or h.rhs < tightest[h.normal].rhs:
            tightest[h.normal] = h
    return list(tightest.values())


def _prune_redundant(hs, den, rows, zero_sets, name) -> Polytope:
    """The full-dimensional polytope with the sorted vertex rows ``rows`` over
    ``den`` whose facets are the half-spaces of ``hs`` with maximal tight
    sets; ``zero_sets[j]`` is the bitmask of the half-spaces tight on vertex j.

    No two half-spaces share a hyperplane, so a facet's tight set, which spans
    its hyperplane, lies in no other tight set, while every other face lies in
    some facet.
    """
    masks = _transpose(zero_sets, len(hs))
    facets, incidence = zip(*sorted((hs[k], masks[k]) for k in _maximal(masks)))
    return Polytope(facets, den, rows, incidence, name)


@dataclass(frozen=True)
class FacetChart:
    """A facet flattened along a coordinate axis.

    ``polytope`` is the (n-1)-dimensional projection obtained by dropping
    ``axis``; ``scale`` is the exact Jacobian 1/|l_axis| that converts
    integrals over the projection into lattice-normalized facet integrals.
    For a primitive normal this equals the Euclidean facet measure divided by
    |l|, so both conventions agree.
    """

    facet_index: int
    axis: int
    scale: Fraction
    polytope: "Polytope"
    normal: tuple[int, ...]
    rhs: Fraction


def facet_chart(p: Polytope, facet_index: int) -> FacetChart:
    """Project facet ``facet_index`` along its first usable coordinate axis:
    the chart is the hull of the facet's vertices with that coordinate
    dropped."""
    key = ("chart", facet_index)
    if key in p.cache:
        return p.cache[key]
    if p.dim == 1:
        # A facet of a segment is the single endpoint; represent it trivially.
        raise ValidationError("facet charts need ambient dimension >= 2")
    h = p.halfspaces[facet_index]
    axis = next(k for k, c in enumerate(h.normal) if c)
    chart = FacetChart(
        facet_index=facet_index,
        axis=axis,
        scale=Fraction(1, abs(h.normal[axis])),
        polytope=Polytope.from_vertices(
            [v[:axis] + v[axis + 1:] for v in p.facet_vertices(facet_index)]
        ),
        normal=h.normal,
        rhs=h.rhs,
    )
    p.cache[key] = chart
    return chart


def polar_dual(p: Polytope) -> Polytope:
    """The dual body {a : <a, b> >= -1 for every b in P}.

    Requires 0 strictly inside P; applying it twice returns the original
    polytope.
    """
    if any(h.rhs <= 0 for h in p.halfspaces):
        raise OriginNotInterior("polar dual needs 0 in the interior")
    hs = [HalfSpace.make([-x for x in r], p.den) for r in p.rows]
    name = f"{p.name}*" if p.name else None
    return Polytope.from_halfspaces(hs, name)


def intersect_halfspace(p: Polytope, normal: Sequence, rhs) -> Optional[Polytope]:
    """Closed intersection of P with ``<normal, x> <= rhs``.

    Returns ``None`` when the slice has empty interior (empty or lower
    dimensional); measure-zero slices never matter to the integrals built on
    top of this.  That is exactly when no vertex lies strictly inside the
    half-space: points of P near such a vertex lie strictly inside too.

    Works incrementally on the vertex set, as one :func:`_dd_step` on the
    cone over the vertices: surviving vertices stay vertices with the facets
    they were on, and the new ones are the crossings of the cut plane with
    the edges of P, each on the facets of its edge and on the cut.  A facet
    left with no vertex (the old one parallel to the cut) is dropped.
    """
    h = HalfSpace.make(normal, rhs)
    # On the rows, <l, v> <= rhs reads vals[j] <= 0 in integers, both sides
    # scaled by den and the denominator of rhs.
    den, rows = p.den, p.rows
    level = h.rhs.numerator * den
    vals = [h.rhs.denominator * sum(map(mul, h.normal, r)) - level for r in rows]
    if all(val <= 0 for val in vals):
        return p
    if all(val >= 0 for val in vals):
        return None
    # The step on the cone over the vertices (r, den), each with the bitmask
    # of the facets through it; the cut is the bit after the last facet.
    n = p.dim
    cone = [(*r, den) for r in rows]
    keep, new_rays, zero_sets = _dd_step(
        cone, _transpose(p.incidence, len(rows)), vals, 1 << len(p.halfspaces), n + 1
    )
    rays = [cone[k] for k in keep] + new_rays
    return _prune_redundant([*p.halfspaces, h], *_vertex_rows(rays, zero_sets, n), p.name)


def is_reflexive_delzant(p: Polytope) -> tuple[bool, bool]:
    """(reflexive, delzant) flags.

    Reflexive: lattice vertices and every facet at rhs 1 (primitive normals
    are guaranteed by construction), with 0 interior.  Delzant: the polytope
    is simple and at every vertex the tight facet normals form a Z-basis.
    """
    reflexive = _is_reflexive(p)
    delzant = True
    for j in range(len(p.rows)):
        tight = [h.normal for h, mask in zip(p.halfspaces, p.incidence) if mask >> j & 1]
        if len(tight) != p.dim or abs(determinant(tight)) != 1:
            delzant = False
            break
    return reflexive, delzant


def _is_reflexive(p: Polytope) -> bool:
    """Every facet at level 1 and every vertex a lattice point.  A positive
    rhs on every facet already puts 0 in the interior."""
    return all(h.rhs == 1 for h in p.halfspaces) and p.is_lattice()


def lattice_automorphisms(p: Polytope) -> list[tuple[tuple[int, ...], ...]]:
    """The linear lattice automorphisms of P: the integer matrices M (as
    rows) with |det M| = 1 and M P = P, sorted; the identity is one of them.

    M maps facets to facets, the facet <l, x> <= r to <l M^-1, y> <= r, so
    it keeps the signature of every vertex v, the multiset of the values
    <l, v> over the facets, and of every pair of vertices v, w, the multiset
    of the pairs (<l, v>, <l, w>).  M is fixed by the images of n linearly
    independent vertices.  Those are chosen one at a time among the
    vertices with the signature of their preimage, and with the pair
    signature of the preimages with every image chosen before; no
    automorphism is pruned.  A full choice gives M = images * basis^-1, kept
    when it is integral, unimodular and maps the vertex set onto itself.
    """
    n = p.dim
    rows = p.rows
    values = [tuple(sum(map(mul, h.normal, r)) for h in p.halfspaces) for r in rows]
    signature = [tuple(sorted(v)) for v in values]

    def pairs(j: int, k: int) -> tuple:
        return tuple(sorted(zip(values[j], values[k])))

    basis = _independent_rows(rows)
    # Row i of M solves <b_k, x> = w_k[i] for the basis rows b_k and their
    # images w_k, so M[i][c] is row c of basis^-1 dotted with those w_k[i];
    # ``inverse`` is basis^-1 times ``scale``, in integers.
    columns = [
        solve_linear([rows[b] for b in basis], [int(j == k) for j in range(n)])
        for k in range(n)
    ]
    scale, inverse = _over_common_denominator(list(zip(*columns)))
    vertex_set = set(rows)
    found = []
    images: list[int] = []

    def extend():
        k = len(images)
        if k == n:
            matrix = []
            for i in range(n):
                row = []
                for inv in inverse:
                    q, rem = divmod(sum(c * rows[w][i] for c, w in zip(inv, images)), scale)
                    if rem:
                        return
                    row.append(q)
                matrix.append(tuple(row))
            if abs(determinant(matrix)) != 1:
                return
            if all(tuple(sum(map(mul, m, r)) for m in matrix) in vertex_set for r in rows):
                found.append(tuple(matrix))
            return
        b = basis[k]
        for w in range(len(rows)):
            if w in images or signature[w] != signature[b]:
                continue
            if any(pairs(basis[i], b) != pairs(images[i], w) for i in range(k)):
                continue
            images.append(w)
            extend()
            images.pop()

    extend()
    return sorted(found)
