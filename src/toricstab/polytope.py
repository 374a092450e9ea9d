"""Exact convex polytope kernel.

A polytope carries an irredundant list of facet half-spaces ``<l, x> <= rhs``
with primitive integer normals, its exact rational vertices, and their
incidence: one int bitmask per facet, bit j set when vertex j lies on it.
Points give the facets by a brute-force hull over their n-subsets, and the
vertices are the points whose tight facet normals span the space; half-spaces
give the vertices from every n-subset of facets.  That is adequate at the
dimensions this library targets (n <= 6, a few dozen facets) and keeps every
step rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    DegenerateNormal,
    Empty,
    NotFullDimensional,
    OriginNotInterior,
    Unbounded,
    ValidationError,
)
from .linalg import (
    SingularMatrix,
    _primitive_ints,
    determinant,
    dot,
    nullvector,
    rank,
    rat,
    solve_linear,
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


@dataclass(frozen=True)
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
        n = self.dim
        v0 = self.vertices[0]
        edges = [[v[i] - v0[i] for i in range(n)] for v in self.vertices[1:]]
        d = determinant(edges)
        return abs(d) / math.factorial(n)


def _affine_rank(points) -> int:
    """Dimension of the affine span of a point list."""
    if not points:
        return -1
    base = points[0]
    return rank([[p[i] - base[i] for i in range(len(base))] for p in points[1:]])


def _tight_masks(halfspaces, points) -> tuple[int, ...]:
    """The incidence: per half-space, the bitmask of the points on it."""
    return tuple(
        sum(1 << j for j, v in enumerate(points) if h.tight(v)) for h in halfspaces
    )


def _on(mask: int, items) -> list:
    """The items whose bit is set in ``mask``."""
    return [x for j, x in enumerate(items) if mask >> j & 1]


def vertices_from_halfspaces(
    halfspaces: Sequence[HalfSpace], dim: int
) -> list[tuple[Fraction, ...]]:
    """Enumerate the exact vertex set of a bounded full-dimensional system.

    Tries every ``dim``-subset of facets, keeps the feasible intersection
    points, and deduplicates.  Raises :class:`Unbounded`, :class:`Empty` or
    :class:`NotFullDimensional` when the system is degenerate.
    """
    hs = list(halfspaces)
    normals = [h.normal for h in hs]
    if rank(normals) < dim:
        raise Unbounded("facet normals do not span the space")
    # Recession cone check: a nontrivial recession ray would be tight on
    # dim-1 independent normals (the cone is pointed once normals span).
    for subset in combinations(range(len(hs)), dim - 1):
        d = nullvector([normals[i] for i in subset], dim)
        if d is None:
            continue
        for ray in (d, tuple(-x for x in d)):
            if all(dot(h.normal, ray) <= 0 for h in hs):
                raise Unbounded(f"recession ray {ray}")
    found = set()
    for subset in combinations(range(len(hs)), dim):
        mat = [normals[i] for i in subset]
        b = [hs[i].rhs for i in subset]
        try:
            point = solve_linear(mat, b)
        except SingularMatrix:
            continue
        if all(h.contains(point) for h in hs):
            found.add(point)
    if not found:
        raise Empty("no feasible vertex")
    verts = sorted(found)
    if _affine_rank(verts) < dim:
        raise NotFullDimensional("feasible set has empty interior")
    return verts


def halfspaces_from_vertices(points: Sequence[Sequence], dim: int) -> list[HalfSpace]:
    """Brute-force convex hull: the irredundant facet list of a point set."""
    return [h for h, _ in _hull([vec(p) for p in points], dim)]


def _hull(pts, dim) -> list[tuple[HalfSpace, int]]:
    """The facets of the hull of ``pts``, each with the bitmask of the points on it.

    Tests the hyperplane through every ``dim``-subset of points; a facet is a
    hyperplane with all points on one side and a full ``(dim-1)``-dimensional
    tight set.  Normals come out primitive integer, oriented inward-feasible.
    """
    if _affine_rank(pts) < dim:
        raise NotFullDimensional("points do not affinely span the space")
    facets = {}
    for subset in combinations(range(len(pts)), dim):
        base = pts[subset[0]]
        rows = [[pts[i][k] - base[k] for k in range(dim)] for i in subset[1:]]
        normal = nullvector(rows, dim)
        if normal is None:
            continue
        rhs = dot(normal, base)
        above = any(dot(normal, p) > rhs for p in pts)
        below = any(dot(normal, p) < rhs for p in pts)
        if above and below:
            continue
        if above:
            normal = tuple(-x for x in normal)
            rhs = -rhs
        h = HalfSpace(normal, rhs)
        key = (h.normal, h.rhs)
        if key in facets:
            continue
        tight = [j for j, p in enumerate(pts) if h.tight(p)]
        if _affine_rank([pts[j] for j in tight]) == dim - 1:
            facets[key] = (h, sum(1 << j for j in tight))
    return [facets[key] for key in sorted(facets)]


class Polytope:
    """Full-dimensional bounded rational polytope with both representations.

    Instances are immutable apart from lazily filled caches; they can be
    shared freely.
    """

    def __init__(
        self,
        halfspaces: Sequence[HalfSpace],
        vertices: Sequence[tuple[Fraction, ...]],
        name: Optional[str] = None,
    ):
        self.dim = len(halfspaces[0].normal)
        self.halfspaces = tuple(halfspaces)
        self.vertices = tuple(vertices)
        self.name = name
        self.cache: dict = {}
        self._incidence: Optional[tuple[int, ...]] = None

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
        dim = len(hs[0].normal)
        _check_dim(dim)
        if any(len(h.normal) != dim for h in hs):
            raise ValidationError("mixed ambient dimensions")
        # Same normal twice: only the tighter constraint can matter.
        tightest = {}
        for h in hs:
            if h.normal not in tightest or h.rhs < tightest[h.normal].rhs:
                tightest[h.normal] = h
        hs = list(tightest.values())
        verts = vertices_from_halfspaces(hs, dim)
        return _prune_redundant(hs, verts, name)

    @staticmethod
    def from_vertices(points: Sequence[Sequence], name: Optional[str] = None) -> "Polytope":
        """Hull of a point set; repeated and non-extreme points are dropped."""
        pts = sorted({vec(p) for p in points})
        dim = len(pts[0])
        _check_dim(dim)
        facets = _hull(pts, dim)
        # A point is a vertex when the normals of the facets through it span.
        keep = [
            j for j in range(len(pts))
            if rank([h.normal for h, mask in facets if mask >> j & 1]) == dim
        ]
        return _assemble(
            [(h, sum(1 << k for k, j in enumerate(keep) if mask >> j & 1)) for h, mask in facets],
            [pts[j] for j in keep],
            name,
        )

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def __repr__(self):
        label = self.name or "polytope"
        return f"<{label}: dim {self.dim}, {len(self.halfspaces)} facets, {len(self.vertices)} vertices>"

    def contains(self, point) -> bool:
        point = vec(point)
        return all(h.contains(point) for h in self.halfspaces)

    @property
    def incidence(self) -> tuple[int, ...]:
        """Per facet, the bitmask of the vertices on it (bit j for vertex j)."""
        if self._incidence is None:
            self._incidence = _tight_masks(self.halfspaces, self.vertices)
        return self._incidence

    def facet_vertices(self, i: int) -> list[tuple[Fraction, ...]]:
        return _on(self.incidence[i], self.vertices)

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    # -- measures ----------------------------------------------------------

    def volume(self) -> Fraction:
        if "volume" not in self.cache:
            self.cache["volume"] = sum(
                (s.volume() for s in self.triangulation()), Fraction(0)
            )
        return self.cache["volume"]

    def boundary_volume(self) -> Fraction:
        """Total lattice-normalized measure of the boundary."""
        if "boundary_volume" not in self.cache:
            total = Fraction(0)
            for i in range(len(self.halfspaces)):
                chart = facet_chart(self, i)
                total += chart.scale * chart.polytope.volume()
            self.cache["boundary_volume"] = total
        return self.cache["boundary_volume"]

    # -- triangulation -----------------------------------------------------

    def triangulation(self, apex_last: bool = False) -> list[Simplex]:
        """Cone-over-facet triangulation from the lex-smallest vertex.

        ``apex_last`` cones from the lex-largest vertex instead, which gives a
        genuinely different decomposition; the two are used to cross-check
        integral invariance.
        """
        key = ("triangulation", apex_last)
        if key not in self.cache:
            self.cache[key] = _triangulate(self, apex_last)
        return self.cache[key]


def _check_dim(dim: int):
    if dim < 1:
        raise ValidationError("ambient dimension must be positive")
    if dim > MAX_DIM:
        raise ValidationError(f"dimension {dim} exceeds the exact-kernel guard ({MAX_DIM})")


def _prune_redundant(hs, verts, name) -> Polytope:
    """The polytope with vertices ``verts`` and, as facets, the half-spaces of
    ``hs`` whose tight vertices span a hyperplane."""
    dim = len(verts[0])
    facets = [
        (h, mask)
        for h, mask in zip(hs, _tight_masks(hs, verts))
        if mask.bit_count() >= dim and _affine_rank(_on(mask, verts)) == dim - 1
    ]
    return _assemble(sorted(facets, key=lambda f: (f[0].normal, f[0].rhs)), verts, name)


def _assemble(facets, verts, name) -> Polytope:
    """A polytope from sorted (facet, incidence mask) pairs and its vertices."""
    p = Polytope([h for h, _ in facets], verts, name)
    p._incidence = tuple(mask for _, mask in facets)
    return p


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

    def lift(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Map a point of the projection back onto the facet hyperplane."""
        full = list(point[: self.axis]) + [Fraction(0)] + list(point[self.axis:])
        others = sum(
            (Fraction(self.normal[j]) * full[j] for j in range(len(full)) if j != self.axis),
            Fraction(0),
        )
        full[self.axis] = (self.rhs - others) / self.normal[self.axis]
        return tuple(full)


def facet_chart(p: Polytope, facet_index: int) -> FacetChart:
    """Project facet ``facet_index`` along its first usable coordinate axis."""
    key = ("chart", facet_index)
    if key in p.cache:
        return p.cache[key]
    h = p.halfspaces[facet_index]
    axis = next((k for k, c in enumerate(h.normal) if c != 0), None)
    if axis is None:
        raise DegenerateNormal("zero normal")
    tight = p.facet_vertices(facet_index)
    projected = [tuple(v[j] for j in range(p.dim) if j != axis) for v in tight]
    if p.dim == 1:
        # A facet of a segment is the single endpoint; represent it trivially.
        raise ValidationError("facet charts need ambient dimension >= 2")
    sub = Polytope.from_vertices(projected)
    chart = FacetChart(
        facet_index=facet_index,
        axis=axis,
        scale=Fraction(1, abs(h.normal[axis])),
        polytope=sub,
        normal=h.normal,
        rhs=h.rhs,
    )
    p.cache[key] = chart
    return chart


def _triangulate(p: Polytope, apex_last: bool) -> list[Simplex]:
    if p.dim == 1:
        return [Simplex((p.vertices[0], p.vertices[-1]))]
    apex = len(p.vertices) - 1 if apex_last else 0
    cells = []
    for i, mask in enumerate(p.incidence):
        if mask >> apex & 1:
            continue
        chart = facet_chart(p, i)
        for sub in chart.polytope.triangulation(apex_last):
            lifted = tuple(chart.lift(v) for v in sub.vertices)
            cell = Simplex((p.vertices[apex],) + lifted)
            if cell.volume() > 0:
                cells.append(cell)
    return cells


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
    top of this.

    Works incrementally on the vertex set: surviving vertices stay vertices,
    and the new ones are the crossings of the cut plane with the edges of P
    (pairs of vertices whose common tight facets span a hyperplane's worth of
    normals).
    """
    h = HalfSpace.make(normal, rhs)
    vals = [h.value(v) for v in p.vertices]
    if all(val <= h.rhs for val in vals):
        return p
    keep = [v for v, val in zip(p.vertices, vals) if val <= h.rhs]
    if not keep:
        return None
    n = p.dim
    crossings = []
    for i, u in enumerate(p.vertices):
        if vals[i] >= h.rhs:
            continue
        for j, w in enumerate(p.vertices):
            if vals[j] <= h.rhs:
                continue
            pair = 1 << i | 1 << j
            common = [f.normal for f, mask in zip(p.halfspaces, p.incidence) if mask & pair == pair]
            if len(common) < n - 1 or rank(common) != n - 1:
                continue
            t = (h.rhs - vals[i]) / (vals[j] - vals[i])
            crossings.append(
                tuple(a + t * (b - a) for a, b in zip(u, w))
            )
    verts = sorted(set(keep + crossings))
    if len(verts) <= n or _affine_rank(verts) < n:
        return None
    hs = {}
    for cand in list(p.halfspaces) + [h]:
        if cand.normal not in hs or cand.rhs < hs[cand.normal].rhs:
            hs[cand.normal] = cand
    return _prune_redundant(list(hs.values()), verts, p.name)


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
