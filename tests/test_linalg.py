import math
import random
from fractions import Fraction as F

import pytest

from toricstab import (
    ANY_S,
    DegreeMismatch,
    SingularMatrix,
    interpolate_poly,
    rank,
    solve_linear,
    solve_overdetermined_1d,
)
from toricstab.linalg import determinant, nullvector, poly_eval, rat, rat_str

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
        assert determinant(m) == 0
        assert rank(m) < len(m)
        d = nullvector(m, len(m))
        if rank(m) == len(m) - 1:
            assert math.gcd(*d) == 1
            assert all(sum(a * b for a, b in zip(row, d)) == 0 for row in m)
        else:
            assert d is None


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


def test_overdetermined_all_zero_is_any():
    assert solve_overdetermined_1d([0, 0, 0], [0, 0, 0]) is ANY_S


def test_overdetermined_simple():
    assert solve_overdetermined_1d([2, 4], [1, 2]) == F(1, 2)


def test_overdetermined_zero_coeff_nonzero_rhs():
    assert solve_overdetermined_1d([0, 2], [1, 1]) is None


def test_overdetermined_inconsistent_counterexample_data():
    # the balance row data of the rank-4 counterexample at level 1:
    # count 23, volume 20/3, moment (-7/8, 5/12, 5/24), node sum (-4, 2, 1)
    count, vol = 23, F(20, 3)
    moment = (F(-7, 8), F(5, 12), F(5, 24))
    node_sum = (F(-4), F(2), F(1))
    targets = [count * m / vol - s for m, s in zip(moment, node_sum)]
    assert targets == [F(157, 160), F(-9, 16), F(-9, 32)]
    coeffs = [F(-11134272, 1816885), F(1079424, 363377), F(539712, 363377)]
    assert solve_overdetermined_1d(coeffs, targets) is None
    # rows 2 and 3 alone are consistent; row 1 is what breaks it
    assert solve_overdetermined_1d(coeffs[1:], targets[1:]) == F(-3270393, 17270784)


def test_interpolate_cube_counts():
    pts = [(0, 1), (1, 27), (2, 125), (3, 343)]
    assert interpolate_poly(pts, 3) == (F(8), F(12), F(6), F(1))


def test_interpolate_published_counts():
    pts = [(0, 1), (1, 25), (2, 139), (3, 415)]
    assert interpolate_poly(pts, 3) == (F(12), F(9), F(3), F(1))


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
    got = nullvector(rows, dim)
    assert got == want
    if got is not None:
        assert all(sum(a * b for a, b in zip(row, got)) == 0 for row in rows)
