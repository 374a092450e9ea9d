"""Exact convex polytope kernel.

A polytope carries an irredundant list of facet half-spaces ``<l, x> <= rhs``
with primitive integer normals, its exact rational vertices, and their
incidence: one int bitmask per facet, bit j set when vertex j lies on it.

Both directions of the hull run one double-description core,
:func:`_extreme_rays`: a pointed cone is built one constraint at a time on
exact primitive integer rays, and two rays are adjacent when the bitmasks of
the constraints tight on them (their zero sets) meet in a set that no third
zero set contains.  Half-spaces give the vertices as the rays of their
homogenized cone; points give the facets as the rays of the cone of
half-spaces that hold them all.  Either way the final zero sets are the
incidence.  A cut by one more half-space is the same step on the vertices,
so the incidence is carried through every cut rather than recomputed.  A
facet is a half-space whose tight set lies in no other's, and a vertex is a
point whose set of facets lies in no other point's.

Faces are vertex bitmasks too.  The facets of a face F are the maximal
proper non-empty sets F & incidence[j], and the triangulation of F cones from
its lowest vertex index (its highest with ``apex_last``) over the
triangulations of the facets of F that miss it, memoized per face mask.  Its
cells are tuples of P's own vertices: no face is projected, lifted or hulled.
Over those cells each polytope keeps one integer moment record (volume and
the integrals of x_k and x_j x_k), and each facet one in the lattice measure.
The vertices share one denominator: a facet cell costs one integer
determinant, a cell of P (the apex over a facet cell) follows from it and the
apex's lattice height, and the sums stay integers until one division per
entry.

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
    _primitive_ints,
    determinant,
    nullvector,
    rank,
    rat,
    vec,
)

MAX_DIM = 6


def primitive_normal(normal: Sequence, rhs) -> tuple[tuple[int, ...], Fraction]:
    """Clear denominators and common factors: primitive integer normal, rescaled rhs."""
    normal = [rat(x) for x in normal]
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
        """The volume, computed once per simplex and shared by every
        integrand over the cell."""
        return self._volume

    @cached_property
    def _volume(self) -> Fraction:
        n = self.dim
        v0 = self.vertices[0]
        edges = [[v[i] - v0[i] for i in range(n)] for v in self.vertices[1:]]
        d = determinant(edges)
        return abs(d) / math.factorial(n)

    def moments(self) -> Moments:
        """The integrals of 1, x_k and x_j x_k over the cell, computed once
        and shared by every integrand of degree at most 2 over it."""
        return self._moments

    @cached_property
    def _moments(self) -> Moments:
        # With S the sum of the vertices and Q the sum of v v^T: vol,
        # vol S / (n+1) and vol (Q + S S^T) / ((n+1)(n+2)).
        n = self.dim
        vol = self._volume
        den, rows = _over_common_denominator(self.vertices)
        s = [sum(col) for col in zip(*rows)]
        scale = vol / (den * den * (n + 1) * (n + 2))
        second = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                q = sum(r[j] * r[k] for r in rows)
                second[j][k] = second[k][j] = scale * (q + s[j] * s[k])
        first = tuple(vol * Fraction(x, den * (n + 1)) for x in s)
        return Moments(vol, first, tuple(map(tuple, second)))


def _over_common_denominator(points) -> tuple[int, list[list[int]]]:
    """(d, rows) with rows[i][k] = d * points[i][k] integers, d the least
    common denominator: sums of products then need no fraction arithmetic."""
    den = math.lcm(*(x.denominator for p in points for x in p))
    return den, [[x.numerator * (den // x.denominator) for x in p] for p in points]


def _affine_rank(points) -> int:
    """Dimension of the affine span of a point list."""
    if not points:
        return -1
    base = points[0]
    return rank([[p[i] - base[i] for i in range(len(base))] for p in points[1:]])


def _on(mask: int, items) -> list:
    """The items whose bit is set in ``mask``."""
    return [x for j, x in enumerate(items) if mask >> j & 1]


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
    return _vertices(list(halfspaces), dim)[0]


def _vertices(hs, dim) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """The sorted vertices of the system ``hs`` and, per vertex, the bitmask of
    the half-spaces of ``hs`` tight on it.

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
    vertices = {}
    for y, z in zip(*cone):
        if y[dim] == 0:
            raise Unbounded(f"recession ray {y[:dim]}")
        vertices[tuple(Fraction(c, y[dim]) for c in y[:dim])] = z >> 1
    if not vertices:
        raise Empty("no feasible vertex")
    verts = sorted(vertices)
    if _affine_rank(verts) < dim:
        raise NotFullDimensional("feasible set has empty interior")
    return verts, [vertices[v] for v in verts]


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
    the first ``dim`` independent rows; each further row keeps the rays on
    its non-positive side and adds, for each adjacent pair across its
    hyperplane, the combination on it.
    """
    basis: list[int] = []
    for r in range(len(rows)):
        if rank([rows[k] for k in basis] + [rows[r]]) > len(basis):
            basis.append(r)
            if len(basis) == dim:
                break
    else:
        return None
    rays, zero_sets = [], []
    for k in basis:
        others = [rows[b] for b in basis if b != k]
        ray = nullvector(others, dim)
        if sum(map(mul, rows[k], ray)) > 0:
            ray = tuple(-c for c in ray)
        rays.append(ray)
        zero_sets.append(sum(1 << b for b in basis if b != k))
    for r in range(len(rows)):
        if r in basis:
            continue
        vals = [sum(map(mul, rows[r], y)) for y in rays]
        bit = 1 << r
        new_rays = [y for y, s in zip(rays, vals) if s <= 0]
        new_zero_sets = [z | bit if s == 0 else z for z, s in zip(zero_sets, vals) if s <= 0]
        below = [i for i, s in enumerate(vals) if s < 0]
        above = [j for j, s in enumerate(vals) if s > 0]
        for i, j, common in _adjacent_pairs(zero_sets, below, above, dim - 2):
            y = [vals[j] * a - vals[i] * b for a, b in zip(rays[i], rays[j])]
            g = math.gcd(*y)
            new_rays.append(tuple(c // g for c in y))
            new_zero_sets.append(common | bit)
        rays, zero_sets = new_rays, new_zero_sets
    return rays, zero_sets


def _adjacent_pairs(zero_sets, below, above, need):
    """The adjacent pairs across a hyperplane, as (i, j, common zero set), for
    i in ``below`` and j in ``above``.

    ``zero_sets[k]`` is the bitmask of the constraints tight on extreme ray k
    of a pointed cone, or on vertex k of a polytope.  Two are adjacent when
    the face through both holds no third: their common zero set has at least
    ``need`` bits (the codimension of a 2-face of the cone, or of an edge of
    the polytope) and lies in no other zero set.
    """
    for i in below:
        zi = zero_sets[i]
        for j in above:
            common = zi & zero_sets[j]
            if common.bit_count() >= need and not any(
                z & common == common for k, z in enumerate(zero_sets) if k != i and k != j
            ):
                yield i, j, common


class Polytope:
    """Full-dimensional bounded rational polytope with both representations.

    Instances are immutable apart from lazily filled caches; they can be
    shared freely.
    """

    def __init__(
        self,
        halfspaces: Sequence[HalfSpace],
        vertices: Sequence[tuple[Fraction, ...]],
        incidence: Sequence[int],
        name: Optional[str] = None,
    ):
        self.dim = len(halfspaces[0].normal)
        self.halfspaces = tuple(halfspaces)
        self.vertices = tuple(vertices)
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
        verts, zero_sets = _vertices(hs, dim)
        return _prune_redundant(hs, verts, zero_sets, name)

    @staticmethod
    def from_vertices(points: Sequence[Sequence], name: Optional[str] = None) -> "Polytope":
        """Hull of a point set; repeated and non-extreme points are dropped."""
        pts = sorted({vec(p) for p in points})
        facets = _facets(pts, _common_dim(pts, "no points"))
        # A point is a vertex when no other point lies on every facet through it.
        on = _transpose([mask for _, mask in facets], len(pts))
        keep = _maximal(on)
        masks = _transpose([on[j] for j in keep], len(facets))
        return Polytope([h for h, _ in facets], [pts[j] for j in keep], masks, name)

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __repr__(self):
        label = self.name or "polytope"
        return f"<{label}: dim {self.dim}, {len(self.halfspaces)} facets, {len(self.vertices)} vertices>"

    def contains(self, point) -> bool:
        point = vec(point)
        return all(h.contains(point) for h in self.halfspaces)

    def facet_vertices(self, i: int) -> list[tuple[Fraction, ...]]:
        return _on(self.incidence[i], self.vertices)

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

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

    def triangulation(self, apex_last: bool = False) -> list[Simplex]:
        """Pulling triangulation from the lex-smallest vertex (see the module
        docstring).

        ``apex_last`` cones from the lex-largest vertex instead, which gives a
        genuinely different decomposition; the two are used to cross-check
        integral invariance.
        """
        cells = _weighted_cells(self, None, apex_last)[0]
        return [Simplex(tuple(self.vertices[j] for j in cell)) for cell in cells]


@dataclass(frozen=True)
class Moments:
    """The integrals of 1, x_k and x_j x_k over a polytope, or over one of
    its facets in the lattice-normalized measure: every integral of degree
    at most 2 is a contraction with them."""

    measure: Fraction
    first: tuple[Fraction, ...]
    second: tuple[tuple[Fraction, ...], ...]


def _face_cells(p: Polytope, face: int, apex_last: bool) -> tuple[tuple[int, ...], ...]:
    """The cells of the triangulation of the face with vertex bitmask
    ``face``, as tuples of vertex indices: the cone from its lowest vertex
    (highest with ``apex_last``) over the cells of its facets that miss it.

    Every face of P is the meet of the facets of P through it, so the faces
    of F are the sets F & incidence[j]; its facets are the maximal proper
    non-empty ones.  A facet missing the apex does not hold it in its affine
    span, so no cell is flat.
    """
    memo = p.cache.setdefault(("faces", apex_last), {})
    if face not in memo:
        apex = face.bit_length() - 1 if apex_last else (face & -face).bit_length() - 1
        if face == 1 << apex:
            memo[face] = ((apex,),)
        else:
            subs = [g for g in dict.fromkeys(face & m for m in p.incidence) if g and g != face]
            memo[face] = tuple(
                (apex,) + cell
                for g in (subs[k] for k in _maximal(subs))
                if not g >> apex & 1
                for cell in _face_cells(p, g, apex_last)
            )
    return memo[face]


def _weighted_cells(p: Polytope, facet: Optional[int], apex_last: bool = False):
    """(cells, weights, base) for facet ``facet`` of P, or for P when it is
    None: the cells as tuples of vertex indices and per cell an integer
    weight, its measure times ``base``.

    With the vertices over their common denominator den, a facet cell weighs
    the absolute determinant of its edges without coordinate ``axis``, the
    first non-zero entry of the normal l; scaled by 1/|l_axis| that is the
    lattice measure, so base = (n-1)! den^(n-1) |l_axis|.  A cell of P is the
    apex over a facet cell, and n! times its volume is the apex's lattice
    distance to the facet times (n-1)! times the cell's lattice measure: it
    weighs den times that distance times the facet cell's weight over
    |l_axis|, with base n! den^n.
    """
    key = ("cells", facet, apex_last)
    if key not in p.cache:
        den, rows = _integer_vertices(p)
        n = p.dim
        cells, weights = [], []
        if facet is None:
            apex = len(p.vertices) - 1 if apex_last else 0
            for i, (h, mask) in enumerate(zip(p.halfspaces, p.incidence)):
                if mask >> apex & 1:
                    continue
                sub_cells, sub_weights, _ = _weighted_cells(p, i, apex_last)
                on = rows[sub_cells[0][0]]
                height = abs(sum(map(mul, h.normal, on)) - sum(map(mul, h.normal, rows[apex])))
                scale = abs(next(c for c in h.normal if c))
                cells += [(apex,) + cell for cell in sub_cells]
                weights += [height * w // scale for w in sub_weights]
            base = math.factorial(n) * den**n
        else:
            normal = p.halfspaces[facet].normal
            axis = next(k for k, c in enumerate(normal) if c)
            keep = [k for k in range(n) if k != axis]
            cells = _face_cells(p, p.incidence[facet], apex_last)
            for cell in cells:
                r0 = rows[cell[0]]
                edges = [[rows[j][k] - r0[k] for k in keep] for j in cell[1:]]
                weights.append(abs(determinant(edges).numerator))
            base = math.factorial(n - 1) * den ** (n - 1) * abs(normal[axis])
        p.cache[key] = (cells, weights, base)
    return p.cache[key]


def _integer_vertices(p: Polytope) -> tuple[int, list[list[int]]]:
    """P's vertices over their least common denominator."""
    if "integer vertices" not in p.cache:
        p.cache["integer vertices"] = _over_common_denominator(p.vertices)
    return p.cache["integer vertices"]


def _moments(p: Polytope, facet: Optional[int]) -> Moments:
    """The moment record of P or of one facet, summed over its cells.

    On a d-cell with vertex sum S and Q = sum v v^T, x_k integrates to
    vol S_k / (d+1) and x_j x_k to vol (Q_jk + S_j S_k) / ((d+1)(d+2)).  With
    the vertices over den and vol = weight / base, the sums of weight,
    weight S and weight (Q + S S^T) are integers, divided once at the end.
    """
    key = ("moments", facet)
    if key not in p.cache:
        cells, weights, base = _weighted_cells(p, facet)
        den, rows = _integer_vertices(p)
        n = p.dim
        d = len(cells[0]) - 1
        # the cell sums of weight * v and weight * v v^T, vertex by vertex:
        # each vertex weighted by the total weight of its cells
        mass = [0] * len(rows)
        w2 = [[0] * n for _ in range(n)]
        for cell, w in zip(cells, weights):
            s = [sum(rows[j][k] for j in cell) for k in range(n)]
            for j in cell:
                mass[j] += w
            for j in range(n):
                ws = w * s[j]
                for k in range(j, n):
                    w2[j][k] += ws * s[k]
        w1 = [0] * n
        for r, w in zip(rows, mass):
            if w:
                for j in range(n):
                    wr = w * r[j]
                    w1[j] += wr
                    for k in range(j, n):
                        w2[j][k] += wr * r[k]
        first_den = base * den * (d + 1)
        second_den = first_den * den * (d + 2)
        second = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                second[j][k] = second[k][j] = Fraction(w2[j][k], second_den)
        p.cache[key] = Moments(
            Fraction(sum(weights), base),
            tuple(Fraction(x, first_den) for x in w1),
            tuple(map(tuple, second)),
        )
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


def _prune_redundant(hs, verts, zero_sets, name) -> Polytope:
    """The full-dimensional polytope with the sorted vertices ``verts`` whose
    facets are the half-spaces of ``hs`` with maximal tight sets;
    ``zero_sets[j]`` is the bitmask of the half-spaces tight on ``verts[j]``.

    No two half-spaces share a hyperplane, so a facet's tight set, which spans
    its hyperplane, lies in no other tight set, while every other face lies in
    some facet.
    """
    masks = _transpose(zero_sets, len(hs))
    facets, incidence = zip(*sorted((hs[k], masks[k]) for k in _maximal(masks)))
    return Polytope(facets, verts, incidence, name)


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
    hs = [HalfSpace.make([-x for x in v], 1) for v in p.vertices]
    name = f"{p.name}*" if p.name else None
    return Polytope.from_halfspaces(hs, name)


def intersect_halfspace(p: Polytope, normal: Sequence, rhs) -> Optional[Polytope]:
    """Closed intersection of P with ``<normal, x> <= rhs``.

    Returns ``None`` when the slice has empty interior (empty or lower
    dimensional); measure-zero slices never matter to the integrals built on
    top of this.  That is exactly when no vertex lies strictly inside the
    half-space: points of P near such a vertex lie strictly inside too.

    Works incrementally on the vertex set, as one step of the double
    description: surviving vertices stay vertices with the facets they were
    on, and the new ones are the crossings of the cut plane with the edges of
    P, each on the facets of its edge and on the cut.  Two vertices span an
    edge exactly when no third vertex lies on every facet through both.  A
    facet left with no vertex (the old one parallel to the cut) is dropped.
    """
    h = HalfSpace.make(normal, rhs)
    vals = [h.value(v) for v in p.vertices]
    if all(val <= h.rhs for val in vals):
        return p
    if all(val >= h.rhs for val in vals):
        return None
    # Per vertex, the bitmask of the facets through it; the cut is the bit
    # after the last facet.
    zero_sets = _transpose(p.incidence, len(p.vertices))
    cut = 1 << len(p.halfspaces)
    points = {
        v: z | cut if val == h.rhs else z
        for v, val, z in zip(p.vertices, vals, zero_sets)
        if val <= h.rhs
    }
    below = [i for i, val in enumerate(vals) if val < h.rhs]
    above = [j for j, val in enumerate(vals) if val > h.rhs]
    for i, j, common in _adjacent_pairs(zero_sets, below, above, p.dim - 1):
        u, w = p.vertices[i], p.vertices[j]
        t = (h.rhs - vals[i]) / (vals[j] - vals[i])
        points[tuple(a + t * (b - a) for a, b in zip(u, w))] = common | cut
    verts = sorted(points)
    return _prune_redundant(
        [*p.halfspaces, h], verts, [points[v] for v in verts], p.name
    )


def is_reflexive_delzant(p: Polytope) -> tuple[bool, bool]:
    """(reflexive, delzant) flags.

    Reflexive: lattice vertices and every facet at rhs 1 (primitive normals
    are guaranteed by construction), with 0 interior.  Delzant: the polytope
    is simple and at every vertex the tight facet normals form a Z-basis.
    """
    reflexive = (
        p.is_lattice()
        and all(h.rhs == 1 for h in p.halfspaces)
        and all(h.value([Fraction(0)] * p.dim) < h.rhs for h in p.halfspaces)
    )
    delzant = True
    for j in range(len(p.vertices)):
        tight = [h.normal for h, mask in zip(p.halfspaces, p.incidence) if mask >> j & 1]
        if len(tight) != p.dim or abs(determinant(tight)) != 1:
            delzant = False
            break
    return reflexive, delzant
