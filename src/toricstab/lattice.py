"""Lattice point enumeration in dilations and Ehrhart polynomial reconstruction.

A level of iP is walked along fibres parallel to the axis x_k of least
shadow (:func:`_order`): by Cauchy's projection formula, about i^(n-1) A_k / 2
fibres, A_k = sum_F |l_{F,k}| sigma(F) over P's facets in their lattice
measure.  Every result is mapped back to P's coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, floordiv, mul, neg, sub
from typing import NamedTuple, Sequence

from .errors import DegreeMismatch, NotLatticePolytope, ValidationError
from .linalg import _over_common_denominator, quoted, rat_str
from .plfun import CONCAVE, AffineFn, PLFn
from .polytope import HalfSpace, Polytope
from .univariate import interpolate_poly, poly_eval


def lattice_points(p: Polytope, i: int) -> list[tuple[int, ...]]:
    """All integer points of the dilation ``i * P``, sorted lexicographically:
    the fibre ranges of :func:`_ranges`, expanded into P's coordinates."""
    key = ("lattice_points", i)
    if key not in p.cache:
        p.cache[key] = sorted(zip(*_to_p(_expand(*_ranges(p, i)), _order(p))))
    return p.cache[key]


def _expand(columns, lo, hi) -> list[list[int]]:
    """The columns of the points z_1..z_k, t for every prefix z_1..z_k
    (``columns[j]`` holds coordinate j + 1 of each) and every integer t in
    its range lo..hi, in the order of the prefixes and then of t."""
    counts = [b - a + 1 for a, b in zip(lo, hi)]
    out = [list(chain.from_iterable(map(repeat, column, counts))) for column in columns]
    out.append(list(chain.from_iterable(map(range, lo, [b + 1 for b in hi]))))
    return out


def _ranges(p: Polytope, i: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The fibres of ``i * P`` along its last walk coordinate as (columns, lo,
    hi), in the walk coordinates z_k = x_{order[k]} of :func:`_order`: the
    prefixes z_1..z_{n-1} of its integer points, in lexicographic order,
    with ``columns[j]`` holding coordinate j + 1 of each, and per prefix the
    exact integer range lo..hi of z_n.  P's cache keeps the last level
    walked only, since every caller reads a level's sums in a row.  There is
    a range per lattice point of iP's shadow along z_n, the least of the
    axes' (on C1 x_2, not x_3: ``tables`` walks 36% fewer than along x_n).

    The prefixes grow one coordinate at a time, all of one length at once.
    For k = 1..n, the facets of proj_k(P) (the hull of the vertices' first k
    coordinates; proj_n is P) bound z_k given z_1..z_{k-1}, so every prefix
    of a point of iP gets the exact integer range of its next coordinate
    and no empty cell of the bounding box is visited.  A row
    ``<a, prefix> + c*t <= i*rhs``, cleared of denominators, makes the
    bounds integer floor and ceiling divisions, each taken over all
    prefixes in one pass.  A range holds a real interval, so lo <= hi + 1;
    with lo = hi + 1 it has no point and adds nothing to any sum.  Every
    level walk starts here, so levels 1..i over the node budget
    (:func:`check_levels`) raise :class:`ValidationError` before any range.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i <= 0:
        raise ValidationError(f"dilation level must be a positive int, got {i!r}")
    level, ranges = p.cache.get("lattice_ranges", (None, None))
    if level == i:
        return ranges
    check_levels(i, p)
    columns: list[list[int]] = []
    size = 1  # the number of prefixes
    for rows in _projections(p):
        lo = hi = None
        for h in rows:
            # <a, prefix> + c*t <= i*num/den  becomes
            # c*den*t <= i*num - den*<a, prefix> =: rest
            den, c = h.rhs.denominator, h.normal[-1]
            rest = [i * h.rhs.numerator] * size
            for a, column in zip(h.normal, columns):
                if a:
                    rest = list(map(sub, rest, map(mul, repeat(den * a), column)))
            if c > 0:
                bound = list(map(floordiv, rest, repeat(c * den)))
                hi = bound if hi is None else list(map(min, hi, bound))
            else:
                bound = list(map(neg, map(floordiv, rest, repeat(-c * den))))
                lo = bound if lo is None else list(map(max, lo, bound))
        if len(columns) == p.dim - 1:
            break
        columns = _expand(columns, lo, hi)
        size = len(columns[-1])
    p.cache["lattice_ranges"] = (i, (columns, lo, hi))
    return columns, lo, hi


class _LevelSums(NamedTuple):
    """The integer sums over the points z of one dilation ``i * P``."""

    count: int  # N
    first: tuple[int, ...]  # sum of z
    second: tuple[tuple[int, ...], ...]  # sum of z z^T


def _level_sums(p: Polytope, i: int) -> _LevelSums:
    """N, sum z and sum z z^T over the integer points z of ``i * P``, cached
    per level; no point is built.

    A fibre range lo..hi of the last coordinate t holds m = hi - lo + 1
    points, with sum t = (lo + hi) m / 2 and, by Faulhaber's formula with
    F(x) = x (x + 1) (2x + 1) / 6 (F(x) - F(x - 1) = x^2 for every integer
    x), sum t^2 = F(hi) - F(lo - 1) (:func:`_fibre_moments`); every other
    coordinate is constant on the fibre.  All are mapped back to P's axes.
    """
    key = ("level_sums", i)
    if key in p.cache:
        return p.cache[key]
    columns, lo, hi = _ranges(p, i)
    n, order = p.dim, _order(p)
    counts, ts, squares = _fibre_moments(lo, hi)
    # each prefix column times the counts: the weights of sum z_j z_k, j, k < n
    weighted = [list(map(mul, column, counts)) for column in columns]
    second = [[0] * n for _ in range(n)]
    for j, column in enumerate(columns):
        for k in range(j, n - 1):
            second[j][k] = second[k][j] = sum(map(mul, column, weighted[k]))
        second[j][-1] = second[-1][j] = sum(map(mul, column, ts))
    second[-1][-1] = squares
    first = _to_p([*map(sum, weighted), sum(ts)], order)
    second = [tuple(_to_p(row, order)) for row in _to_p(second, order)]
    sums = _LevelSums(sum(counts), tuple(first), tuple(second))
    p.cache[key] = sums
    return sums


def _fibre_moments(lo: list[int], hi: list[int]) -> tuple[list[int], list[int], int]:
    """Per fibre range lo..hi of t, its point count m = hi - lo + 1 and its
    sum of t, (lo + hi) m / 2; and the sum of t^2 over every fibre, by
    Faulhaber's F(x) = x (x + 1) (2x + 1) / 6 as F(hi) - F(lo - 1) a fibre,
    2 (hi^3 - lo^3) + 3 (hi^2 + lo^2) + hi - lo over 6, summed a power at a
    time.  An empty fibre, lo = hi + 1, adds 0 to each."""
    counts = list(map(sub, hi, map(sub, lo, repeat(1))))
    ts = list(map(floordiv, map(mul, map(add, lo, hi), counts), repeat(2)))
    hi2, lo2 = list(map(mul, hi, hi)), list(map(mul, lo, lo))
    cubes = sum(map(mul, hi2, hi)) - sum(map(mul, lo2, lo))
    squares = (2 * cubes + 3 * (sum(hi2) + sum(lo2)) + sum(hi) - sum(lo)) // 6
    return counts, ts, squares


def _pl_sums(p: Polytope, f: AffineFn | PLFn, i: int) -> tuple[int, list[int], int]:
    """(sum F, sum z F, D i) for an :class:`AffineFn` or :class:`PLFn` f =
    F / (D i) at the nodes z / i of level i, off the fibre ranges of
    :func:`_ranges`; no point is built.

    With D the least common denominator of every piece, a piece a.x + c is
    the integer A.z + C i over D i, A = D a and C = D c, and F is the max
    (convex) of those, or minus the max of their negatives (concave).  On a
    fibre, prefix z' and t = z_n in lo..hi, a piece is the line
    alpha + beta t, alpha = A'.z' + C i and beta = A_n; of one slope only the
    highest line counts.  In order of slope a line is the max from the first
    t where it tops the line before, which is dropped if that t is not past
    its own first t.  A segment a..b of the max adds alpha m + beta S_1 to
    sum F and alpha S_1 + beta S_2 to sum t F, for its m points and the sums
    S_k of t^k (Faulhaber's, as in :func:`_level_sums`); a prefix coordinate
    is constant on the fibre and multiplies its sum F.

    When every piece has one slope beta (every affine f, and the P sample
    max{0, x_1}), each fibre's max is one line, and its sums alpha m +
    beta S_1 and alpha S_1 + beta S_2 are taken over all fibres in column
    passes (:func:`_fibre_moments`), with no walk.
    Each piece is read in the walk coordinates, and sum z F mapped back.
    """
    sign = -1 if isinstance(f, PLFn) and f.mode == CONCAVE else 1
    pieces = [g.scale(sign) for g in (f.pieces if isinstance(f, PLFn) else (f,))]
    if any(len(g.a) != p.dim for g in pieces):
        raise ValidationError(f"a function of the wrong dimension at {p.dim}-dimensional nodes")
    order = _order(p)
    den, rows = _over_common_denominator([(*(g.a[k] for k in order), g.c) for g in pieces])
    columns, lo, hi = _ranges(p, i)
    lines: dict[int, list[int]] = {}  # per slope, increasing: the highest alpha per fibre
    for *coeffs, c in sorted(rows, key=lambda row: row[-2]):
        alpha = [c * i] * len(lo)
        for x, column in zip(coeffs, columns):
            if x:
                alpha = list(map(add, alpha, map(mul, repeat(x), column)))
        lines[coeffs[-1]] = list(map(max, lines.get(coeffs[-1], alpha), alpha))
    if len(lines) == 1:
        [(beta, alphas)] = lines.items()
        counts, ts, squares = _fibre_moments(lo, hi)
        totals = list(map(add, map(mul, alphas, counts), map(mul, repeat(beta), ts)))
        moment = sum(map(mul, alphas, ts)) + beta * squares
    else:
        totals, moment = _walk_maxima(lines, lo, hi)
    first = [sum(map(mul, column, totals)) for column in columns]
    return sign * sum(totals), [sign * x for x in _to_p([*first, moment], order)], den * i


def _walk_maxima(
    lines: dict[int, list[int]], lo: list[int], hi: list[int]
) -> tuple[list[int], int]:
    """Per fibre, sum F of the max of the lines alpha + beta t over lo..hi
    (``lines`` maps each slope beta, in increasing order, to its alpha per
    fibre); and sum t F over every fibre.  See :func:`_pl_sums`."""
    totals, moment = [], 0  # sum F per fibre, sum t F
    for line_alphas, start, stop in zip(zip(*lines.values()), lo, hi):
        hull = []  # the max on start..stop: (alpha, beta, the first t where it holds)
        for alpha, beta in zip(line_alphas, lines):
            begin = start
            while hull:
                top, slope, since = hull[-1]
                overtakes = (top - alpha) // (beta - slope) + 1
                if overtakes > since:
                    begin = overtakes
                    break
                hull.pop()
            if begin <= stop:
                hull.append((alpha, beta, begin))
        total, b = 0, stop
        for alpha, beta, a in reversed(hull):
            m = b - a + 1
            s1 = (a + b) * m // 2
            s2 = (b * (b + 1) * (2 * b + 1) - (a - 1) * a * (2 * a - 1)) // 6
            total += alpha * m + beta * s1
            moment += alpha * s1 + beta * s2
            b = a - 1
        totals.append(total)
    return totals, moment


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
# 1..i_max, by :func:`node_bound`.  No command builds a point: a level's
# sums, and a PL function's (:func:`_pl_sums`), are read off its fibre
# ranges at about 1-10 us a fibre, and a level has no more fibres than
# nodes.  chow to the top level that fits (wall time and ru_maxrss, Python
# 3.11 on a 2-core x86-64 host, where the interpreter and corpus alone take
# about 17 MiB): E4 to 30, 34,750 fibres, 0.15 s, 17 MiB; CP3 to 26, 51,740,
# 0.3 s, 18 MiB; B1 to 27, 43,497, 0.3 s, 18 MiB; C1 to 28, 95,844, 0.7 s,
# 19 MiB, most of the rest the ranges of the top level, the one level that
# :func:`_ranges` keeps.  Every corpus entry fits the defaults with room.
MAX_LEVEL_NODES = 2_000_000


def check_levels(i_max: int, *polytopes: Polytope) -> None:
    """Reject an i_max that is not an int (a bool included) or is below 1,
    and levels 1..i_max whose node bound exceeds :data:`MAX_LEVEL_NODES` on
    any of ``polytopes``, before any level is walked."""
    if isinstance(i_max, bool) or not isinstance(i_max, int):
        raise ValidationError(f"i_max must be an int, got {quoted(i_max)}")
    if i_max < 1:
        raise ValidationError("i_max must be at least 1")
    for p in polytopes:
        bound = node_bound(p, i_max)
        if bound > MAX_LEVEL_NODES:
            raise ValidationError(
                f"levels 1..{i_max} may hold {bound} nodes on {p.name or 'the polytope'}, "
                f"above the budget of {MAX_LEVEL_NODES}"
            )


def _order(p: Polytope) -> tuple[int, ...]:
    """The walk order z_k = x_{order[k]} of P's axes: by decreasing shadow
    A_k = sum_F |l_{F,k}| sigma(F), ties by index, with sigma(F) the lattice
    measure of facet F's moment record."""
    key = "lattice_order"
    if key not in p.cache:
        order = range(p.dim)
        sigma = [p.facet_moments(f).measure for f in range(len(p.halfspaces))]
        shadow = [sum(abs(h.normal[k]) * s for h, s in zip(p.halfspaces, sigma)) for k in order]
        p.cache[key] = tuple(sorted(order, key=lambda k: -shadow[k]))
    return p.cache[key]


def _to_p(values: Sequence, order: tuple[int, ...]) -> list:
    """A vector in the walk coordinates of ``order`` back in P's."""
    return [values[order.index(j)] for j in range(len(order))]


def _projections(p: Polytope) -> tuple[tuple[HalfSpace, ...], ...]:
    """Per k = 1..n, the facets of proj_k(P) in the walk coordinates whose
    normal has a non-zero k-th coordinate; the others only restate a bound
    of proj_{k-1}(P).  proj_1(P) is the interval of the first coordinates,
    read off the vertices, and proj_{n-1}(P) is read off the facets of P
    (:func:`_shadow`); only the projections between them are hulled."""
    key = "lattice_projections"
    if key not in p.cache:
        n, order = p.dim, _order(p)
        walk = [HalfSpace(tuple(h.normal[k] for k in order), h.rhs) for h in p.halfspaces]
        first = [v[order[0]] for v in p.vertices]
        rows = [(HalfSpace((1,), max(first)), HalfSpace((-1,), -min(first)))]
        for k in range(2, n + 1):
            if k == n:
                facets = walk
            elif k == n - 1:
                facets = _shadow(walk, p.incidence)
            else:
                prefixes = [[v[j] for j in order[:k]] for v in p.vertices]
                facets = Polytope.from_vertices(prefixes).halfspaces
            rows.append(tuple(h for h in facets if h.normal[-1] != 0))
        p.cache[key] = tuple(rows)
    return p.cache[key]


def _shadow(facets: Sequence[HalfSpace], incidence: Sequence[int]) -> list[HalfSpace]:
    """The facets of proj_{n-1}(P), the shadow of P along x_n, for n >= 2,
    from P's facets and incidence (in the walk, in the walk coordinates).

    The facet with normal a is the image of the face of P where (a, 0).x is
    largest, which is not parallel to x_n and has dimension n - 2 or more:
    a facet l.x <= r of P with l_n = 0 (a is l without l_n), or a ridge
    F meet G of P with l_n > 0 > m_n for the facets l.x <= r of F and
    m.x <= s of G (a is -m_n l + l_n m without its last coordinate 0, and
    the rhs is -m_n r + l_n s).  A meet of two facets is a ridge when no
    third facet holds it, since a face of dimension d lies in n - d facets
    or more; the incidence masks decide it.
    """
    shadow = [HalfSpace(h.normal[:-1], h.rhs) for h in facets if h.normal[-1] == 0]
    for f, mask_f in zip(facets, incidence):
        for g, mask_g in zip(facets, incidence):
            c, d = f.normal[-1], g.normal[-1]
            ridge = mask_f & mask_g
            if c > 0 > d and ridge and sum(m & ridge == ridge for m in incidence) == 2:
                normal = [c * y - d * x for x, y in zip(f.normal[:-1], g.normal[:-1])]
                shadow.append(HalfSpace.make(normal, c * g.rhs - d * f.rhs))
    return shadow


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
        return poly_eval(self.coeffs[::-1], t)

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
    samples = [(0, 1)] + [(i, _level_sums(p, i).count) for i in range(1, n + 3)]
    poly = EhrhartPoly(interpolate_poly(samples, n)[::-1])
    if poly.coeffs[0] != p.volume():
        raise DegreeMismatch("leading coefficient differs from the volume")
    if 2 * poly.coeffs[1] != p.boundary_volume():
        raise DegreeMismatch("second coefficient differs from half the boundary measure")
    if poly.coeffs[-1] != 1:
        raise DegreeMismatch("constant coefficient is not 1")
    p.cache["ehrhart"] = poly
    return poly

