"""Exact polynomials in one variable.

A polynomial is a sequence of coefficients, low degree first, of ``int`` or
``Fraction``; results are lists with no trailing zero, so the zero
polynomial is ``[]`` and a non-zero one ends in its leading coefficient.

Evaluation and interpolation serve the Ehrhart counts; the derivative and
the division serve the root count.  Signs and roots on an interval are
decided by Sturm sequences (Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*, Springer 2006, ch. 2).  Those work on integer
polynomials: rational input is first scaled by a positive integer, which
keeps every sign and root, and every remainder of a Sturm chain is a
pseudo-remainder scaled by |lc|^k and divided by its content, so a chain on
integer input builds no ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegreeMismatch
from .linalg import RatLike, rat, rat_str, solve_linear

Coeff = int | Fraction


def _trim(p: Sequence[Coeff]) -> list:
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def poly_eval(coeffs: Sequence[Coeff], t: RatLike) -> Fraction:
    """The polynomial at ``t``, by Horner's rule."""
    t = rat(t)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def interpolate_poly(
    points: Sequence[tuple[RatLike, RatLike]], degree: int
) -> tuple[Fraction, ...]:
    """The unique polynomial of degree at most ``degree`` through the points.

    The first ``degree + 1`` points determine it (their abscissae must be
    distinct); any extra point is checked to lie on it exactly, and
    :class:`DegreeMismatch` is raised otherwise -- the signal that a count
    sequence is not polynomial of the stated degree.
    """
    pts = [(rat(x), rat(y)) for x, y in points]
    if len(pts) < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for degree {degree}")
    base = pts[: degree + 1]
    xs = [x for x, _ in base]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    coeffs = solve_linear([[x**k for k in range(degree + 1)] for x in xs], [y for _, y in base])
    for x, y in pts[degree + 1:]:
        if poly_eval(coeffs, x) != y:
            raise DegreeMismatch(
                f"point ({rat_str(x)}, {rat_str(y)}) is off the degree-{degree} interpolant"
            )
    return coeffs


def derivative(p: Sequence[Coeff]) -> list:
    return _trim([k * c for k, c in enumerate(p)][1:])


def divide(p: Sequence[Coeff], q: Sequence[Coeff]) -> tuple[list, list]:
    """(quotient, remainder) of p by a non-zero q, the remainder of lower
    degree than q.  A coefficient stays an ``int`` where the division by
    q's leading coefficient is exact."""
    q = _trim(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    r, lc = _trim(p), q[-1]
    quotient = [0] * max(len(r) - len(q) + 1, 0)
    while len(r) >= len(q):
        top, k = r[-1], len(r) - len(q)
        exact = type(top) is int and type(lc) is int and top % lc == 0
        f = top // lc if exact else Fraction(top) / lc
        quotient[k] = f
        for j, b in enumerate(q[:-1]):
            r[k + j] -= f * b
        r = _trim(r[:-1])
    return quotient, r


def _primitive(p: Sequence[Coeff]) -> list[int]:
    """A positive multiple of p with coprime integer coefficients."""
    p = _trim(p)
    if not all(type(c) is int for c in p):
        den = math.lcm(*(c.denominator for c in p))
        p = [int(c * den) for c in p]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(p: list[int], q: list[int]) -> list[int]:
    """A positive multiple of the remainder of p by q, in integers: each
    step scales by |lc(q)| > 0, so the signs of rem(p, q) are kept."""
    r, lc = p, q[-1]
    scale, sign = abs(lc), 1 if lc > 0 else -1
    while len(r) >= len(q):
        f, k = sign * r[-1], len(r) - len(q)
        r = [scale * c for c in r[:-1]]
        for j, b in enumerate(q[:-1]):
            r[k + j] -= f * b
        r = _trim(r)
    return r


def _sturm(p: list[int]) -> list[list[int]]:
    """The Sturm chain of the square-free part of a primitive integer
    polynomial p: s, s', and then minus the remainder of the two before,
    down to a non-zero constant, each a positive multiple of the textbook
    term.  The chain of p itself is a remainder sequence of p and p', so
    when it ends in a term g of positive degree, g = gcd(p, p') up to a
    constant, and the chain is rebuilt on s = p / g (exact, with integer
    coefficients by Gauss's lemma)."""
    if len(p) < 2:
        return [p]
    chain = [p, _primitive(derivative(p))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            g = chain[-1]
            return _sturm(divide(p, [-c for c in g] if g[-1] < 0 else g)[0])
        chain.append([-c for c in _primitive(r)])
    return chain


def _sign_at(p: Sequence[int], x: Fraction) -> int:
    """The sign of the integer polynomial p at x = num / den, den > 0, in
    integers: den^d p(x) = sum of c_k num^k den^(d - k) for d = deg p."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    if den == 1:
        for c in reversed(p):
            acc = acc * num + c
    else:
        for c in reversed(p):
            acc = acc * num + c * power
            power *= den
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """The sign changes along the chain at x, zeros dropped."""
    signs = [s for s in [_sign_at(q, x) for q in chain] if s]
    return sum(map(int.__ne__, signs, signs[1:]))


def root_count(p: Sequence[Coeff], lo: RatLike, hi: RatLike) -> int:
    """The number of distinct real roots of a non-zero p in (lo, hi], lo < hi.

    Sturm's theorem on the square-free part s of p: V(lo) - V(hi), for V(x)
    the sign changes of s's Sturm chain at x with zeros dropped.  V drops by
    one across each root of s and nowhere else (where a later term vanishes,
    its two neighbours have opposite signs), and at a root it equals its
    value just to the right, so a root at lo is not counted and one at hi
    is.
    """
    lo, hi = rat(lo), rat(hi)
    if not lo < hi:
        raise ValueError("root_count needs lo < hi")
    p = _primitive(p)
    if not p:
        raise ValueError("the zero polynomial vanishes everywhere")
    chain = _sturm(p)
    return _variations(chain, lo) - _variations(chain, hi)


def sign_on(p: Sequence[Coeff], lo: RatLike, hi: RatLike) -> int:
    """1 when p > 0 at every point of [lo, hi], -1 when p < 0 at every
    point, 0 when p vanishes somewhere there (lo <= hi): the sign at lo,
    unless p has a root in (lo, hi]."""
    lo, hi = rat(lo), rat(hi)
    s = _sign_at(_primitive(p), lo)
    if s and lo < hi and root_count(p, lo, hi):
        return 0
    return s
