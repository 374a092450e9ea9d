"""Exact rational scalars and dense exact linear algebra.

Everything downstream works over ``fractions.Fraction`` (arbitrary precision,
always in lowest terms, positive denominator), so no rounding can occur
anywhere in the library.

One elimination routine serves ``determinant``, ``rank``, ``nullvector``,
``solve_linear`` and the greedy choice of independent rows (an integer
determinant up to 3 x 3 expands by cofactors instead): fraction-free
(Bareiss) elimination on rows cleared to integers, whose every division is
exact, so no ``Fraction`` is built until a result is read off the echelon
form.  ``nullvector`` reads its result off the integer rows too, with no
``Fraction`` at all.  Denominators are cleared in one place, over a matrix
(:func:`_over_common_denominator`) or one row (:func:`_integer_row`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import SingularMatrix, ValidationError

RatLike = Union[int, str, Fraction]


# An error message quotes at most this many characters of a value.
QUOTE_LIMIT = 40


def quoted(value) -> str:
    """``repr(value)`` for an error message: its first :data:`QUOTE_LIMIT`
    characters and its length when it is longer, so that no input can make
    a message long."""
    text = repr(value)
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def rat(x: RatLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string or Fraction to an exact rational; a
    string is a sign, ASCII digits and ``/`` digits with q not 0 and each
    within the interpreter's digit limit, or a ValidationError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            try:
                num, q = int(num), int(den) if slash else 1
            except ValueError as exc:
                # past the digit limit; its advice to raise it is not for the user
                raise ValidationError(f"{quoted(x)}: {str(exc).split(';')[0]}") from None
            if not q:
                raise ValidationError(f"{quoted(x)} has a zero denominator")
            return Fraction(num, q)
        raise ValidationError(f"{quoted(x)} is not an integer or p/q rational")
    raise TypeError(f"cannot interpret {quoted(x)} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(xs: Sequence[RatLike]) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _integer_row(row: Sequence) -> tuple[list[int], int]:
    """A row cleared to integers: (k * row, k) with k the least common
    denominator of its entries.  An all-``int`` row passes through."""
    if all(type(x) is int for x in row):
        return list(row), 1
    scale, (ints,) = _over_common_denominator([[rat(x) for x in row]])
    return ints, scale


def _over_common_denominator(rows) -> tuple[int, list[list[int]]]:
    """(d, ints) with ints[i][k] = d * rows[i][k] integers, d the least
    common denominator of every entry (ints or Fractions): sums of products
    then need no fraction arithmetic."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free forward elimination (Bareiss, Math. Comp. 22, 1968): the
    nonzero rows of an integer row echelon form of ``rows``, the pivot column
    of each, the sign of the row swaps, and the product of the row scales.

    Each row is first cleared to integers (see :func:`_integer_row`).  After
    k pivots, the entry in row i and column c is the minor of the cleared
    rows 1..k, i on the first k pivot columns and c (Sylvester's identity),
    so every update ``(row[c] * p0 - f * prow[c]) // prev`` divides exactly
    and the last pivot of a square matrix is the determinant of the cleared
    rows.  Each echelon row is a nonzero multiple of the row Gaussian
    elimination would give, so back substitution reads either alike.  Each
    column pivots on its first nonzero entry.
    """
    a, scale = [], 1
    for row in rows:
        ints, k = _integer_row(row)
        a.append(ints)
        scale *= k
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p0 = prow[col]
        for row in a[r + 1:]:
            f = row[col]
            row[col] = 0
            for c in range(col + 1, ncols):
                row[c] = (row[c] * p0 - f * prow[c]) // prev
        prev = p0
        pivots.append(col)
    return a[: len(pivots)], pivots, sign, scale


def determinant(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant, always a ``Fraction``.  An all-``int`` matrix up
    to 3 x 3 (the facet cells of 3D and 4D input) expands by cofactors;
    any other is the signed last pivot of the fraction-free echelon form
    over the product of the row scales."""
    n = len(m)
    if n <= 3 and all(type(x) is int for row in m for x in row):
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = m
            return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
        if n == 2:
            (a, b), (c, d) = m
            return Fraction(a * d - b * c)
        return Fraction(m[0][0] if n else 1)
    echelon, pivots, sign, scale = _eliminate(m)
    if len(pivots) < len(m):
        return Fraction(0)
    last = echelon[-1][pivots[-1]] if pivots else 1
    return Fraction(sign * last, scale)


def solve_linear(
    m: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Solve the square system ``m x = b`` exactly.

    Raises :class:`SingularMatrix` when the matrix is not invertible.
    """
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    echelon, pivots, _, _ = _eliminate([list(row) + [y] for row, y in zip(m, b)])
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


def _independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """The indices of the rows independent of the rows before them, which is
    the greedy left-to-right basis of their span: the pivot columns of one
    elimination of the transpose."""
    return _eliminate(list(zip(*rows)))[1]


def nullvector(rows: Sequence[Sequence], dim: int) -> Optional[tuple[int, ...]]:
    """The primitive integer vector orthogonal to every row of length ``dim``,
    with its free coordinate positive, when the nullity is 1; else ``None``."""
    echelon, pivots, _, _ = _eliminate(rows)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    # Back substitution on the integer rows keeps ``sol`` a positive multiple
    # of the solution with sol[free] = 1: where the pivot does not divide,
    # the partial solution is scaled by |pivot| instead.
    sol = [0] * dim
    sol[free] = 1
    for row, col in zip(reversed(echelon), reversed(pivots)):
        num = -sum(row[j] * sol[j] for j in range(col + 1, dim))
        piv = row[col]
        if piv < 0:
            num, piv = -num, -piv
        q, rem = divmod(num, piv)
        if rem:
            sol = [x * piv for x in sol]
            q = num
        sol[col] = q
    g = math.gcd(*sol)
    return tuple(x // g for x in sol)


def _primitive_ints(xs: Sequence[Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """Clear denominators and common factors of a nonzero rational vector:
    the primitive integer vector ``k * xs`` and the factor ``k > 0``."""
    ints, scale = _integer_row(xs)
    g = math.gcd(*ints)
    return tuple(v // g for v in ints), Fraction(scale, g)


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

