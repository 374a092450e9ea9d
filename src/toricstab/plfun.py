"""Rational piecewise-linear functions and their exact integrals.

A PLFn is max (convex mode) or min (concave mode) of affine pieces.  Every
integral of one splits the domain into the closed linearity regions of the
function; regions share facets but only in measure zero, which the integrals
never see.  An integrand with the factor u vanishes on the region of a zero
piece, so that region is never built.  The ``Poly`` integrals here are the
reference for the integer route that L and the Chow weights take.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegenerateSpan, InternalInvariant, ValidationError
from .integrate import Poly, facet_integral, integrate
from .linalg import _independent_rows, dot, rat, rat_str, solve_linear, vec
from .polytope import (
    Polytope,
    _affine_rank,
    halfspaces_from_vertices,
    intersect_halfspace,
)

CONVEX = "convex"
CONCAVE = "concave"


@dataclass(frozen=True)
class AffineFn:
    """a . x + c with exact rational coefficients."""

    a: tuple[Fraction, ...]
    c: Fraction

    @staticmethod
    def make(a: Sequence, c) -> "AffineFn":
        return AffineFn(vec(a), rat(c))

    @staticmethod
    def zero(dim: int) -> "AffineFn":
        return AffineFn((Fraction(0),) * dim, Fraction(0))

    def __call__(self, point) -> Fraction:
        if len(point) != len(self.a):
            raise ValidationError(f"a point of length {len(point)} in dimension {len(self.a)}")
        return dot(self.a, [rat(x) for x in point]) + self.c

    def as_poly(self) -> Poly:
        return Poly.affine(self.a, self.c)

    def __add__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(tuple(x + y for x, y in zip(self.a, other.a)), self.c + other.c)

    def __sub__(self, other: "AffineFn") -> "AffineFn":
        return AffineFn(tuple(x - y for x, y in zip(self.a, other.a)), self.c - other.c)

    def scale(self, k) -> "AffineFn":
        k = rat(k)
        return AffineFn(tuple(k * x for x in self.a), k * self.c)

    def __str__(self):
        terms = [(rat_str(coef), f"x{i+1}") for i, coef in enumerate(self.a) if coef != 0]
        if self.c != 0 or not terms:
            terms.append((rat_str(self.c), ""))
        out = ""
        for coef, var in terms:
            mono = f"{coef}*{var}" if var else coef
            if not out:
                out = mono
            elif coef.startswith("-"):
                out += f" - {mono[1:]}"
            else:
                out += f" + {mono}"
        return out


@dataclass(frozen=True)
class PLFn:
    """Pointwise max (convex) or min (concave) of affine pieces."""

    pieces: tuple[AffineFn, ...]
    mode: str = CONVEX

    def __post_init__(self):
        if self.mode not in (CONVEX, CONCAVE):
            raise ValidationError(f"unknown PL mode {self.mode!r}")
        if not self.pieces:
            raise ValidationError("a PL function needs at least one piece")
        if len({len(f.a) for f in self.pieces}) > 1:
            raise ValidationError("mixed ambient dimensions")

    @staticmethod
    def convex(pieces: Sequence[AffineFn]) -> "PLFn":
        return PLFn(tuple(pieces), CONVEX)

    @staticmethod
    def concave(pieces: Sequence[AffineFn]) -> "PLFn":
        return PLFn(tuple(pieces), CONCAVE)

    @staticmethod
    def simple(gradient: Sequence, offset) -> "PLFn":
        """max{0, b.x + d} - the simple convex destabilizer shape."""
        dim = len(gradient)
        return PLFn((AffineFn.zero(dim), AffineFn.make(gradient, offset)), CONVEX)

    @property
    def dim(self) -> int:
        return len(self.pieces[0].a)

    def __call__(self, point) -> Fraction:
        vals = [f(point) for f in self.pieces]
        return max(vals) if self.mode == CONVEX else min(vals)

    def add_affine(self, g: AffineFn) -> "PLFn":
        return PLFn(tuple(f + g for f in self.pieces), self.mode)

    def scale(self, k) -> "PLFn":
        k = rat(k)
        if k < 0:
            raise ValidationError("negative scaling flips convexity")
        return PLFn(tuple(f.scale(k) for f in self.pieces), self.mode)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "pieces": [
                {"a": [rat_str(x) for x in f.a], "c": rat_str(f.c)}
                for f in self.pieces
            ],
        }


def linearity_regions(
    p: Polytope, u: PLFn
) -> list[tuple[Polytope, AffineFn]]:
    """Split P into the closed regions where one piece is the active one.

    Regions of zero volume (redundant pieces) are dropped; the survivors have
    pairwise disjoint interiors and cover P.
    """
    return _regions(p, u, u.pieces)


def _regions(
    p: Polytope, u: PLFn, wanted: Sequence[AffineFn]
) -> list[tuple[Polytope, AffineFn]]:
    """The linearity regions of the pieces of ``u`` in ``wanted``, each cut
    out of P by one half-space per other piece; regions without interior are
    dropped."""
    if u.dim != p.dim:
        raise ValidationError(
            f"a {u.dim}-dimensional PL function over a {p.dim}-dimensional polytope"
        )
    pieces = list(dict.fromkeys(u.pieces))  # exact duplicates double-count
    regions = []
    for f in dict.fromkeys(wanted):
        region: Optional[Polytope] = p
        for g in pieces:
            if g == f:
                continue
            diff = g - f  # need f >= g (convex) i.e. diff <= 0
            if u.mode == CONCAVE:
                diff = f - g
            if all(x == 0 for x in diff.a):
                if diff.c > 0:
                    region = None
                    break
                continue
            region = intersect_halfspace(region, diff.a, -diff.c)
            if region is None:
                break
        if region is not None:
            regions.append((region, f))
    return regions


def _nonzero_regions(p: Polytope, u: PLFn) -> list[tuple[Polytope, AffineFn]]:
    """The linearity regions of the pieces of ``u`` that are not identically
    zero: an integrand with the factor u vanishes on the others, so they are
    never built."""
    return _regions(p, u, [f for f in u.pieces if f.c or any(f.a)])


def _boundary_facets(p: Polytope, region: Polytope) -> list[int]:
    """The indices of the facets of ``region`` (a subpolytope of P) that lie
    on facets of P.

    Such a facet carries the very half-space of its facet of P, so it has
    the same lattice measure; together they cover the boundary of P inside
    ``region`` up to a set of measure zero.  The rhs is compared as well as
    the normal: a cut parallel to a facet of P at another level drops that
    facet and takes its normal.
    """
    on_p = {h.normal: h.rhs for h in p.halfspaces}
    return [i for i, h in enumerate(region.halfspaces) if on_p.get(h.normal) == h.rhs]


def integrate_pl(p: Polytope, poly: Poly, u: PLFn) -> Fraction:
    """Exact integral of ``poly * u`` over P.

    The reference route: no command calls it, and the tests compare the
    integer route of the Chow weights (``stability._integral``) with it.  Not
    cached: a cache keyed by u would keep every function ever integrated
    against P alive for the life of P.
    """
    total = Fraction(0)
    for region, piece in _nonzero_regions(p, u):
        total += integrate(region, poly * piece.as_poly())
    return total


def boundary_integrate_pl(p: Polytope, poly: Poly, u: PLFn) -> Fraction:
    """Exact integral of ``poly * u`` over the boundary of P (lattice measure).

    Each piece of u that is not identically zero is integrated over the
    facets of its linearity region that lie on facets of P, so each region
    is cut once and no facet of P is cut again.
    """
    total = Fraction(0)
    for region, piece in _nonzero_regions(p, u):
        integrand = poly * piece.as_poly()
        for i in _boundary_facets(p, region):
            total += facet_integral(region, i, integrand)
    return total


def upper_hull(nodes: Sequence[tuple[Sequence, Fraction]]) -> PLFn:
    """Concave upper hull of node values: the largest PL function below which
    none of the graph points (a, phi(a)) lie.

    Returned as the min of the affine functions of the upper facets of the
    lifted hull.  Raises :class:`DegenerateSpan` when the base points do not
    affinely span.
    """
    pts = [(vec(a), rat(v)) for a, v in nodes]
    if not pts:
        raise DegenerateSpan("no nodes")
    dim = len(pts[0][0])
    bases = [a for a, _ in pts]
    if any(len(a) != dim for a in bases):
        raise ValidationError("mixed ambient dimensions")
    if _affine_rank(bases) < dim:
        raise DegenerateSpan("hull nodes must affinely span the base space")
    lifted = [a + (v,) for a, v in pts]
    if _affine_rank(lifted) == dim:
        # All graph points on one hyperplane: the hull is that affine function.
        piece = _affine_through(pts, dim)
        return PLFn.concave([piece])
    facets = halfspaces_from_vertices(lifted, dim + 1)
    pieces = []
    for h in facets:
        lt = h.normal[-1]
        if lt <= 0:
            continue  # lower or vertical facet
        grad = [-Fraction(h.normal[j], lt) for j in range(dim)]
        pieces.append(AffineFn(tuple(grad), h.rhs / lt))
    hull = PLFn.concave(sorted(pieces, key=lambda f: (f.a, f.c)))
    for a, v in pts:
        if hull(a) < v:
            raise InternalInvariant("upper hull dipped below a node value")
    return hull


def _affine_through(pts, dim) -> AffineFn:
    """The affine function through the graph points, read off the first
    dim+1 affinely independent ones: those whose rows (a, 1) are linearly
    independent."""
    mat = [(*a, Fraction(1)) for a, _ in pts]
    chosen = _independent_rows(mat)
    sol = solve_linear([mat[k] for k in chosen], [pts[k][1] for k in chosen])
    fn = AffineFn(tuple(sol[:dim]), sol[dim])
    for a, v in pts:
        if fn(a) != v:
            raise InternalInvariant("graph points are not affine after all")
    return fn


def pl_is_rational_lattice_cone(
    p: Polytope, u: PLFn, i: int, bound
) -> bool:
    """Whether i*Q is a lattice polytope for Q = {(x,t): x in P, 0 <= t <= R - u(x)}.

    This is the integrality condition a convex PL function must satisfy to
    induce a degeneration at level ``i``; it is evaluated and reported, never
    silently assumed.
    """
    bound = rat(bound)
    for region, piece in linearity_regions(p, u):
        for v in region.vertices:
            top = bound - piece(v)
            if any((i * x).denominator != 1 for x in v):
                return False
            if (i * top).denominator != 1:
                return False
    return True
