"""Exact rational scalars, dense exact linear algebra, and polynomial interpolation.

Everything downstream works over ``fractions.Fraction`` (arbitrary precision,
always in lowest terms, positive denominator), so no rounding can occur
anywhere in the library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import DegreeMismatch, SingularMatrix

RatLike = Union[int, str, Fraction]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(xs: Sequence[RatLike]) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int], int]:
    """Forward Gaussian elimination: the nonzero rows of a row echelon form,
    the pivot column of each, and the sign of the row swaps.

    Each column pivots on its first nonzero entry; exactness makes any
    nonzero pivot as good as any other.
    """
    a = [[rat(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
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


def determinant(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: the signed product of the echelon pivots."""
    echelon, pivots, sign = _eliminate(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return math.prod((row[col] for row, col in zip(echelon, pivots)), start=Fraction(sign))


def solve_linear(
    m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Solve the square system ``m x = b`` exactly.

    Raises :class:`SingularMatrix` when the matrix is not invertible.
    """
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    echelon, pivots, _ = _eliminate([list(row) + [y] for row, y in zip(m, b)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("the matrix is not invertible")
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        row = echelon[k]
        x[k] = (row[n] - sum((row[j] * x[j] for j in range(k + 1, n)), Fraction(0))) / row[k]
    return tuple(x)


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a list of rows."""
    return len(_eliminate(rows)[1])


def nullvector(rows: Sequence[Sequence], dim: int) -> Optional[tuple[int, ...]]:
    """The primitive integer vector orthogonal to every row of length ``dim``,
    with its free coordinate positive, when the nullity is 1; else ``None``."""
    echelon, pivots, _ = _eliminate(rows)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    sol = [Fraction(0)] * dim
    sol[free] = Fraction(1)
    for row, col in zip(reversed(echelon), reversed(pivots)):
        sol[col] = -sum((row[j] * sol[j] for j in range(col + 1, dim)), Fraction(0)) / row[col]
    return _primitive_ints(sol)[0]


def _primitive_ints(xs: Sequence[Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """Clear denominators and common factors of a nonzero rational vector:
    the primitive integer vector ``k * xs`` and the factor ``k > 0``."""
    lcm = 1
    for x in xs:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in xs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    return tuple(v // g for v in ints), Fraction(lcm, g)


class AnyS:
    """Distinguished result of a 0 = 0 one-unknown system: every scalar works.

    Kept as its own type (not a sentinel number) so callers can tell
    "any s is admissible" apart from "s = 0 is the solution".
    """

    _instance: Optional["AnyS"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AnyS"


ANY_S = AnyS()


def solve_overdetermined_1d(
    coeffs: Sequence[Fraction], rhs: Sequence[Fraction]
) -> Union[Fraction, AnyS, None]:
    """Solve ``coeffs[k] * s = rhs[k]`` for a single unknown ``s``.

    Returns the exact solution when one satisfies every row, :data:`ANY_S`
    when every row reads 0 = 0, and ``None`` when the rows are inconsistent.
    Inconsistency is a legitimate answer here, not an error.
    """
    if len(coeffs) != len(rhs):
        raise ValueError("dimension mismatch")
    s: Optional[Fraction] = None
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


def poly_eval(coeffs_desc: Sequence[Fraction], t: RatLike) -> Fraction:
    """Evaluate a univariate polynomial given highest-degree-first coefficients."""
    t = rat(t)
    acc = Fraction(0)
    for c in coeffs_desc:
        acc = acc * t + c
    return acc


def interpolate_poly(
    points: Sequence[tuple[RatLike, RatLike]], degree: int
) -> tuple[Fraction, ...]:
    """Interpolate the unique degree-``degree`` polynomial through the points.

    The first ``degree + 1`` points determine the polynomial (their abscissae
    must be distinct); any extra points are verified to lie on it exactly and
    :class:`DegreeMismatch` is raised otherwise -- the signal that a count
    sequence is not polynomial of the stated degree.

    Returns coefficients highest degree first.
    """
    pts = [(rat(x), rat(y)) for x, y in points]
    if len(pts) < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for degree {degree}")
    base = pts[: degree + 1]
    xs = [p[0] for p in base]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    vander = [[x ** k for k in range(degree, -1, -1)] for x in xs]
    coeffs = solve_linear(vander, [p[1] for p in base])
    for x, y in pts[degree + 1:]:
        if poly_eval(coeffs, x) != y:
            raise DegreeMismatch(
                f"point ({rat_str(x)}, {rat_str(y)}) is off the degree-{degree} interpolant"
            )
    return coeffs
