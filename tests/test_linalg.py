import math
import random
from fractions import Fraction as F

import pytest

from toricstab import DegreeMismatch, SingularMatrix, ValidationError
from toricstab.linalg import (
    _eliminate,
    _independent_rows,
    _integer_row,
    _solve,
    determinant,
    rank,
    rat,
    rat_str,
    solve_linear,
)
from toricstab.polytope import Simplex, _extreme_rays
from toricstab.stability import ANY, FAILS, HOLDS, _balance
from toricstab.univariate import interpolate_poly, poly_eval

import oracles

# Singular square matrices: dependent rows, a zero row, a zero column, a
# pivot that only appears after a row swap, and rational entries.
SINGULAR = [
    [[1, 2], [2, 4]],
    [[0, 0], [3, 1]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[0, 1, 1], [1, 1, 2], [2, 2, 4]],
    [[F(1, 2), F(1, 3), 1], [F(3, 2), 1, 3], [1, 1, 1]],
    [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6], [4, 5, 6, 7]],
]


def test_solve_identity():
    b = (F(-70, 97), F(0), F(-15, 97))
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert solve_linear(eye, b) == b


def test_solve_diagonal():
    assert solve_linear([[2, 0], [0, 3]], [1, 1]) == (F(1, 2), F(1, 3))


def test_singular_raises():
    for m in SINGULAR:
        with pytest.raises(SingularMatrix):
            solve_linear(m, [1] * len(m))
        assert _solve(m, [[1] * len(m)]) is None
        assert determinant(m) == 0
        assert rank(m) < len(m)


def test_solve_raises_on_a_remainder(monkeypatch):
    # Cramer's rule makes every division of the back substitution exact, so
    # a remainder is a bug: an echelon form skewed by hand (d = 3, and
    # 3 * 1 is not a multiple of the first pivot 2) raises InternalInvariant.
    from toricstab import InternalInvariant, linalg

    monkeypatch.setattr(linalg, "_eliminate", lambda rows: ([[2, 0, 1], [0, 3, 0]], [0, 1], 1, 1))
    with pytest.raises(InternalInvariant, match="does not divide exactly"):
        _solve([[2, 0], [0, 3]], [[1, 0]])


def test_solve_random_roundtrip():
    rng = random.Random(7)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        a = [
            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        b = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        try:
            x = solve_linear(a, b)
        except SingularMatrix:
            assert determinant(a) == 0
            assert rank(a) < n
            continue
        back = [sum(row[j] * x[j] for j in range(n)) for row in a]
        assert back == b
        assert determinant(a) != 0
        assert rank(a) == n
        done += 1


def test_fraction_arithmetic_is_exact():
    rng = random.Random(11)
    for _ in range(200):
        a = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        b = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
        import math

        assert math.gcd(a.numerator, a.denominator) == 1
        assert a.denominator > 0


def test_big_rational_no_overflow():
    # products at the size of the largest constants in play stay exact
    x = F(1475918766336271, 1461612000)
    assert (x * x) / x == x
    assert rat(rat_str(x)) == x


def test_rat_strings_are_integers_or_p_over_q():
    # a sign, ASCII digits and an optional /digits; a decimal or an exponent
    # would build 10^e exactly, so "1e300000" costs nothing to reject
    for text, value in (("7", 7), ("-7", -7), ("+7", 7), ("-6/4", F(-3, 2)), ("007/02", F(7, 2))):
        assert rat(text) == value
    for text in ("1e300000", "0.5", "1/2e9", " 1", "1 ", "1_0", "1/-2", "--1", "/2", "1/", "", "\u0663"):
        with pytest.raises(ValidationError, match="not an integer or p/q rational"):
            rat(text)
    # a zero denominator is a typed error that names the string
    for text in ("1/0", "-3/000"):
        with pytest.raises(ValidationError, match=f"'{text}' has a zero denominator"):
            rat(text)


def test_balance_all_zero_is_any():
    assert _balance([0, 0, 0], [0, 0, 0]) == (ANY, None)
    assert oracles.solve_overdetermined_1d([0, 0, 0], [0, 0, 0]) is oracles.ANY_S


def test_balance_simple():
    assert _balance([2, 4], [1, 2]) == (HOLDS, F(1, 2))
    assert oracles.solve_overdetermined_1d([2, 4], [1, 2]) == F(1, 2)


def test_balance_zero_coeff_nonzero_rhs():
    assert _balance([0, 2], [1, 1]) == (FAILS, None)
    assert oracles.solve_overdetermined_1d([0, 2], [1, 1]) is None


def test_balance_inconsistent_counterexample_data():
    # the balance row data of the rank-4 counterexample at level 1:
    # count 23, volume 20/3, moment (-7/8, 5/12, 5/24), node sum (-4, 2, 1)
    count, vol = 23, F(20, 3)
    moment = (F(-7, 8), F(5, 12), F(5, 24))
    node_sum = (F(-4), F(2), F(1))
    targets = [count * m / vol - s for m, s in zip(moment, node_sum)]
    assert targets == [F(157, 160), F(-9, 16), F(-9, 32)]
    coeffs = [F(-11134272, 1816885), F(1079424, 363377), F(539712, 363377)]
    assert oracles.solve_overdetermined_1d(coeffs, targets) is None
    assert oracles.solve_overdetermined_1d(coeffs[1:], targets[1:]) == F(-3270393, 17270784)
    # cleared to integers: the coefficients times 1816885, the targets times 160
    a = [-11134272, 5397120, 2698560]
    b = [157, -90, -45]
    assert [F(x, 1816885) for x in a] == coeffs and [F(y, 160) for y in b] == targets
    assert _balance(a, b) == (FAILS, None)
    # rows 2 and 3 alone are consistent; row 1 is what breaks it
    status, ratio = _balance(a[1:], b[1:])
    assert (status, ratio * 1816885 / 160) == (HOLDS, F(-3270393, 17270784))


def test_balance_reads_every_minor():
    # only the minor of rows 1 and 3 is non-zero: a rule that read the
    # adjacent minors alone would say the system holds
    a, b = [1, 0, 1], [1, 0, 2]
    assert [a[j] * b[j + 1] - a[j + 1] * b[j] for j in range(2)] == [0, 0]
    assert _balance(a, b) == (FAILS, None)
    assert oracles.solve_overdetermined_1d(a, b) is None


def test_balance_zero_rows_with_nonzero_targets_fail():
    # every coefficient 0 but a target is not: the cleared rows of
    # ORB-530571 at level 1.  No s balances, which is not the any of an
    # all-zero system.
    assert _balance([0, 0, 0], [0, -1728, 1728]) == (FAILS, None)
    assert oracles.solve_overdetermined_1d([0, 0, 0], [0, -1728, 1728]) is None


# The interpolation helpers live in toricstab.univariate and take and give
# coefficients low degree first; they are pinned here, where they started.


def test_interpolate_cube_counts():
    pts = [(0, 1), (1, 27), (2, 125), (3, 343)]
    assert interpolate_poly(pts, 3) == (F(1), F(6), F(12), F(8))


def test_interpolate_published_counts():
    pts = [(0, 1), (1, 25), (2, 139), (3, 415)]
    assert interpolate_poly(pts, 3) == (F(1), F(3), F(9), F(12))


def test_interpolate_line():
    assert interpolate_poly([(0, 1), (1, 2)], 1) == (F(1), F(1))


def test_interpolate_extra_point_checked():
    good = [(0, 1), (1, 2), (2, 3)]
    assert interpolate_poly(good, 1) == (F(1), F(1))
    with pytest.raises(DegreeMismatch):
        interpolate_poly([(0, 1), (1, 2), (2, 4)], 1)


def test_interpolate_reproduces_ordinates():
    rng = random.Random(3)
    for _ in range(20):
        deg = rng.randint(0, 4)
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
        pts = [(F(i), poly_eval(coeffs, i)) for i in range(deg + 3)]
        got = interpolate_poly(pts, deg)
        assert list(got) == coeffs
        for x, y in pts:
            assert poly_eval(got, x) == y


def test_determinant_row_swaps_and_scaling():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert determinant([[F(1, 2), 0], [0, F(2, 3)]]) == F(1, 3)
    assert determinant([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4


@pytest.mark.parametrize(
    "rows, want",
    [
        ([], 0),
        ([[0, 0, 0]], 0),
        ([[1, 2, 3]], 1),
        ([[1, 2, 3], [2, 4, 6]], 1),
        ([[0, 1, 0], [1, 0, 0], [1, 1, 0]], 2),
        ([[1, 0], [0, 1], [1, 1]], 2),
        ([[F(1, 3), F(2, 3)], [1, 2]], 1),
    ]
    + list(zip(SINGULAR, [1, 1, 2, 2, 2, 2])),
)
def test_rank_cases(rows, want):
    assert rank(rows) == want


@pytest.mark.parametrize(
    "rows, dim, want",
    [
        ([], 1, (1,)),
        ([[1, 1]], 2, (-1, 1)),
        ([[2, 4]], 2, (-2, 1)),
        ([[F(1, 2), F(1, 3)]], 2, (-2, 3)),
        ([[1, 0, 0], [0, 1, 0]], 3, (0, 0, 1)),
        ([[0, 1, 1], [0, 2, 2]], 3, None),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, None),
        ([[1, 2, 3], [4, 5, 6]], 3, (1, -2, 1)),
    ],
)
def test_nullvector_cases(rows, dim, want):
    # The pinned kernel lines as a hull's double description reads them:
    # for rows of rank dim - 1 and the free column f of their echelon, the
    # cone rows . y = 0, y_f <= 0 has the one extreme ray -want.  The hull
    # takes integer rows, so each row is cleared to integers first.
    pivots = _eliminate(rows)[1]
    if want is None:
        assert len(pivots) != dim - 1
        return
    free = next(c for c in range(dim) if c not in pivots)
    ints = [_integer_row(row)[0] for row in rows]
    equalities = [*ints, *([-x for x in row] for row in ints)]
    rays, _ = _extreme_rays([*equalities, [int(c == free) for c in range(dim)]], dim)
    assert rays == [tuple(-x for x in want)]
    assert all(sum(a * b for a, b in zip(row, want)) == 0 for row in rows)


def _entry(rng, rational):
    # Zero about a third of the time, so pivots are often skipped or swapped.
    num = rng.choice([0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -5])
    return F(num, rng.randint(1, 6)) if rational else num


def _matrices(rng, rows, cols):
    """Seeded matrices of one shape: integer and rational entries, full and
    deficient rank, zero rows and columns, and rows that must swap."""
    for rational in (False, True):
        m = [[_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]
        yield m
        if rows == 0 or cols == 0:
            continue
        # rank at most k: rows mixed from k random rows, so some pivot
        # columns are skipped
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        basis = [[_entry(rng, rational) for _ in range(cols)] for _ in range(k)]
        mixed = [
            [sum((rng.randint(-2, 2) * b[c] for b in basis), 0) for c in range(cols)]
            for _ in range(rows)
        ]
        yield mixed
        # a zero column in front, and a zero row
        yield [[0] + row[1:] for row in m[:-1]] + [[0] * cols]
        # the first row starts with 0 and a later one does not: a row swap
        swap = [list(row) for row in m]
        swap[0][0] = 0
        swap[-1][0] = _entry(rng, rational) or 1
        yield swap
        # a column that copies an earlier one: never a pivot
        if cols > 1:
            j = rng.randrange(1, cols)
            yield [row[:j] + [row[0]] + row[j + 1:] for row in m]


def test_fraction_free_elimination_matches_fraction_echelon():
    # The fraction-free elimination against Gaussian elimination in
    # rationals, on every shape from 0x0 to 6x7: the same pivot columns and
    # swap sign, each integer row a multiple of the rational one, and the
    # same determinant, rank and solutions.  The integer solve gives every
    # right-hand side at once over d, the |determinant| of the rows of
    # [m | C] cleared to integers: |det m| times each row's least common
    # denominator (1 for the 0x0 system).
    rng = random.Random(12)
    singular = solved = 0
    for rows in range(7):
        for cols in range(8):
            for m in _matrices(rng, rows, cols):
                echelon, pivots, sign, _ = _eliminate(m)
                want, want_pivots, want_sign = oracles.fraction_echelon(m)
                assert (pivots, sign) == (want_pivots, want_sign), m
                for row, want_row, col in zip(echelon, want, pivots):
                    assert all(type(x) is int for x in row)
                    ratio = F(row[col]) / want_row[col]
                    assert [F(x) for x in row] == [ratio * x for x in want_row], m
                assert rank(m) == len(want_pivots)
                if rows != cols:
                    continue
                want_det = oracles.fraction_determinant(m)
                assert determinant(m) == want_det, m
                rhs = [[_entry(rng, True) for _ in range(rows)]
                       for _ in range(rng.randint(1, 3))]
                if want_det == 0:
                    singular += 1
                    assert _solve(m, rhs) is None, m
                    with pytest.raises(SingularMatrix):
                        solve_linear(m, rhs[0])
                    continue
                solved += 1
                d, xs = _solve(m, rhs)
                assert d > 0 and all(type(v) is int for x in xs for v in x), m
                scales = math.prod(
                    math.lcm(*(F(x).denominator for x in (*row, *(b[i] for b in rhs))))
                    for i, row in enumerate(m)
                )
                assert d == abs(want_det) * scales, (m, rhs)
                for b, x in zip(rhs, xs, strict=True):
                    want_x = oracles.fraction_solve(m, b)
                    assert tuple(F(v, d) for v in x) == want_x, m
                    assert solve_linear(m, b) == want_x, m
    # both branches of the solve were exercised
    assert singular > 20 and solved > 10


def test_determinant_is_always_a_fraction():
    # Integer matrices up to 3x3 expand by cofactors and the rest eliminate;
    # on every square shape from 0x0 to 6x6, integer or rational, the result
    # is a Fraction equal to the rational oracle's.  So the volume of a
    # lattice simplex, the determinant over n!, stays exact.
    rng = random.Random(20)
    for n in range(7):
        for _ in range(10):
            for m in _matrices(rng, n, n):
                det = determinant(m)
                assert type(det) is F and det == oracles.fraction_determinant(m), m
    half = Simplex(((0, 0), (1, 0), (0, 1))).volume()
    assert type(half) is F and half == F(1, 2)


def test_integer_rows_pass_through_unconverted():
    # An all-int matrix is eliminated in ints, with no row scale.
    m = [[0, 2, 4], [3, 1, 2], [6, 2, 7]]
    echelon, pivots, sign, scale = _eliminate(m)
    assert (pivots, sign, scale) == ([0, 1, 2], -1, 1)
    assert echelon == [[3, 1, 2], [0, 6, 12], [0, 0, 18]]
    assert determinant(m) == -18 == oracles.fraction_determinant(m)


@pytest.mark.parametrize(
    "rows, want",
    [
        ([], []),
        ([[0, 0]], []),
        ([[], []], []),
        ([[1, 2], [2, 4], [0, 1]], [0, 2]),
        ([[0, 0, 0], [1, 1, 0], [1, 1, 0], [F(1, 2), F(1, 2), 0], [0, 0, 3]], [1, 4]),
        ([[1, 0], [0, 1], [1, 1], [2, 3]], [0, 1]),
    ],
)
def test_independent_rows_cases(rows, want):
    assert _independent_rows(rows) == want == oracles.greedy_independent_rows(rows)


def test_independent_rows_match_the_greedy_rank_loop():
    # The pivot columns of the transpose against the greedy left-to-right
    # choice with one rank call per row, on every shape from 0x0 to 7x6:
    # integer and rational rows, zero and repeated rows, rank-deficient
    # input, and more and fewer rows than columns.
    rng = random.Random(15)
    deficient = 0
    for rows in range(8):
        for cols in range(7):
            for m in _matrices(rng, rows, cols):
                repeated = [row for row in m for _ in range(rng.randint(1, 2))]
                for case in (m, repeated, m[::-1] + m):
                    want = oracles.greedy_independent_rows(case)
                    assert _independent_rows(case) == want, case
                    deficient += len(want) < len(case)
    assert deficient > 200
