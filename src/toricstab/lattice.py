"""Lattice point enumeration in dilations and Ehrhart polynomial reconstruction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DegreeMismatch, NotLatticePolytope, ValidationError
from .linalg import interpolate_poly, poly_eval, rat_str
from .polytope import HalfSpace, Polytope


def lattice_points(p: Polytope, i: int) -> list[tuple[int, ...]]:
    """All integer points of the dilation ``i * P``, sorted lexicographically.

    Enumerates by prefixes.  For k = 1..n, the facets of proj_k(P) (the hull
    of the vertices' first k coordinates; proj_n is P) bound x_k given
    x_1..x_{k-1}, so every prefix of a point of iP gets the exact integer
    range of its next coordinate and no empty cell of the bounding box is
    visited.  Each row ``<a, prefix> + c*t <= i*rhs`` is cleared of
    denominators once per call, which makes the bounds integer floor and
    ceiling divisions.  The innermost range lies in iP whole, so its points
    need no membership test, and they come out in lexicographic order.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i <= 0:
        raise ValidationError(f"dilation level must be a positive int, got {i!r}")
    key = ("lattice_points", i)
    if key in p.cache:
        return p.cache[key]
    # <a, prefix> + c*t <= i*num/den  becomes  c*den*t <= i*num - den*<a, prefix>;
    # rows with c > 0 bound t from above, rows with c < 0 (stored as |c|*den)
    # from below.
    bounds = []
    for rows in _projections(p):
        lower, upper = [], []
        for h in rows:
            den, c = h.rhs.denominator, h.normal[-1]
            row = (tuple(den * a for a in h.normal[:-1]), abs(c) * den, i * h.rhs.numerator)
            (upper if c > 0 else lower).append(row)
        bounds.append((lower, upper))
    last = len(bounds) - 1
    points = []

    def walk(prefix: tuple[int, ...], k: int):
        lower, upper = bounds[k]
        lo = max(-((b - sum(map(mul, w, prefix))) // g) for w, g, b in lower)
        hi = min((b - sum(map(mul, w, prefix))) // g for w, g, b in upper)
        if k == last:
            points.extend(prefix + (t,) for t in range(lo, hi + 1))
        else:
            for t in range(lo, hi + 1):
                walk(prefix + (t,), k + 1)

    walk((), 0)
    p.cache[key] = points
    return points


def node_bound(p: Polytope, i_max: int) -> int:
    """An upper bound on the number of integer points of iP summed over the
    levels i = 1..i_max, read off the vertices before any enumeration.

    For lattice P the h*-vector is non-negative (Stanley, Ann. Discrete
    Math. 6, 1980), so #(iP meet Z^n) = sum_k h*_k C(i+n-k, n) is at most
    n! vol C(i+n, n), and summed over the levels that is
    n! vol (C(i_max+n+1, n+1) - 1).  For other P, level i lies in the box of
    iP, with at most floor(i_max w_k) + 1 integers along an axis of width
    w_k in P.
    """
    n = p.dim
    if p.is_lattice():
        normalized = math.factorial(n) * p.volume()
        return normalized.numerator * (math.comb(i_max + n + 1, n + 1) - 1)
    box = 1
    for k in range(n):
        width = max(v[k] for v in p.vertices) - min(v[k] for v in p.vertices)
        box *= math.floor(i_max * width) + 1
    return i_max * box


# The budget of the lattice levels: at most this many nodes over levels
# 1..i_max, by :func:`node_bound`.  Every level's points stay cached on P,
# and a node costs about 3.6 us and 110 bytes through the whole per-level
# balance loop (E4 at levels 1..30: a bound of 1,855,000, 1,538,560 nodes,
# 6.7 s and 175 MiB peak; Python 3.11 on a 2-core x86-64 host), so a run
# inside the budget takes seconds and a few hundred MiB at most.  E4 fits
# up to level 30; every corpus entry fits the defaults with room.
MAX_LEVEL_NODES = 2_000_000


def check_levels(i_max: int, *polytopes: Polytope) -> None:
    """Reject i_max below 1, and levels 1..i_max whose node bound exceeds
    :data:`MAX_LEVEL_NODES` on any of ``polytopes``, before any point is
    enumerated."""
    if i_max < 1:
        raise ValidationError("i_max must be at least 1")
    for p in polytopes:
        bound = node_bound(p, i_max)
        if bound > MAX_LEVEL_NODES:
            raise ValidationError(
                f"levels 1..{i_max} may hold {bound} nodes on {p.name or 'the polytope'}, "
                f"above the budget of {MAX_LEVEL_NODES}"
            )


def _projections(p: Polytope) -> tuple[tuple[HalfSpace, ...], ...]:
    """Per k = 1..n, the facets of proj_k(P) whose normal has a non-zero k-th
    coordinate; the others only restate a bound of proj_{k-1}(P).  proj_1(P)
    is the interval of the first coordinates, read off the vertices without
    a hull."""
    key = "lattice_projections"
    if key not in p.cache:
        first = [v[0] for v in p.vertices]
        rows = [(HalfSpace((1,), max(first)), HalfSpace((-1,), -min(first)))]
        for k in range(2, p.dim + 1):
            q = p if k == p.dim else Polytope.from_vertices([v[:k] for v in p.vertices])
            rows.append(tuple(h for h in q.halfspaces if h.normal[-1] != 0))
        p.cache[key] = tuple(rows)
    return p.cache[key]


def refined_points(p: Polytope, i: int) -> list[tuple[Fraction, ...]]:
    """The refined sample P meet (Z/i)^n, i.e. lattice points of iP divided by i."""
    return [tuple(Fraction(z, i) for z in pt) for pt in lattice_points(p, i)]


@dataclass(frozen=True)
class EhrhartPoly:
    """Lattice point counting polynomial, coefficients highest degree first."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t) -> Fraction:
        return poly_eval(self.coeffs, t)

    def __str__(self):
        n = self.degree
        bits = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = n - k
            mono = "" if power == 0 else ("t" if power == 1 else f"t^{power}")
            bits.append(rat_str(c) + ("*" + mono if mono else ""))
        return " + ".join(bits) if bits else "0"


def ehrhart(p: Polytope) -> EhrhartPoly:
    """Reconstruct the counting polynomial of a lattice polytope.

    Interpolates through the exact counts at 0..n and then cross-checks the
    counts at n+1 and n+2 plus the coefficient identities (leading = volume,
    second = half the boundary measure, constant = 1).  Any failure raises
    :class:`DegreeMismatch` -- that means an enumeration bug or non-integral
    input, never something to paper over.  Levels 1..n+2 over the node
    budget raise :class:`ValidationError` before any point is enumerated.
    """
    if not p.is_lattice():
        raise NotLatticePolytope(
            "counting polynomial requires integral vertices; dilate first"
        )
    if "ehrhart" in p.cache:
        return p.cache["ehrhart"]
    n = p.dim
    check_levels(n + 2, p)
    samples = [(0, 1)] + [(i, len(lattice_points(p, i))) for i in range(1, n + 3)]
    coeffs = interpolate_poly(samples, n)
    poly = EhrhartPoly(tuple(coeffs))
    if poly.coeffs[0] != p.volume():
        raise DegreeMismatch("leading coefficient differs from the volume")
    if 2 * poly.coeffs[1] != p.boundary_volume():
        raise DegreeMismatch("second coefficient differs from half the boundary measure")
    if poly.coeffs[-1] != 1:
        raise DegreeMismatch("constant coefficient is not 1")
    p.cache["ehrhart"] = poly
    return poly

