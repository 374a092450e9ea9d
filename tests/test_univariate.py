"""Exact univariate polynomials: division, the derivative, and the Sturm
root count and sign, against polynomials with planted roots."""

import random
from fractions import Fraction as F
from itertools import zip_longest

import pytest

from toricstab.univariate import derivative, divide, poly_eval, root_count, sign_on

from oracles import multiply


def _planted(rng, ends=()):
    """A random integer polynomial lc * prod (den x - num)^m * extra, with
    rational roots num / den of multiplicity m in 1..3 (the roots in ``ends``
    among them), and sometimes a factor x^2 + k with no real root; returns
    it with the distinct real roots."""
    roots, size = set(ends), rng.randint(len(ends) + 1, len(ends) + 4)
    while len(roots) < size:
        roots.add(F(rng.randint(-12, 12), rng.randint(1, 4)))
    p = [rng.choice([-3, -2, -1, 1, 2, 5])]
    for r in roots:
        for _ in range(rng.randint(1, 3)):
            p = multiply(p, [-r.numerator, r.denominator])
    if rng.random() < 0.4:
        p = multiply(p, [rng.randint(1, 9), 0, 1])
    return p, sorted(roots)


def _cases(seed, count):
    """(p, roots, lo, hi) with lo < hi, each end a root in about half the cases."""
    rng = random.Random(seed)
    for _ in range(count):
        ends = []
        lo, hi = sorted(F(rng.randint(-15, 15), rng.randint(1, 3)) for _ in range(2))
        if lo == hi:
            hi += 1
        if rng.random() < 0.5:
            ends.append(lo)
        if rng.random() < 0.5:
            ends.append(hi)
        p, roots = _planted(rng, ends)
        yield p, roots, lo, hi


def test_root_count_matches_planted_roots():
    # Distinct roots in (lo, hi]: a root at lo is not counted, one at hi is,
    # whatever its multiplicity.
    at_end = 0
    for p, roots, lo, hi in _cases(1, 300):
        assert root_count(p, lo, hi) == sum(lo < r <= hi for r in roots), (p, lo, hi)
        at_end += lo in roots or hi in roots
    assert at_end > 150


def test_root_count_with_multiple_roots_at_both_ends():
    # (x - 1)^3 x^2 (x + 1)^2: on (0, 1] only 1 counts, on (-1, 0] only 0
    p = multiply(multiply([-1, 1], multiply([-1, 1], [-1, 1])), [0, 0, 1])
    p = multiply(p, multiply([1, 1], [1, 1]))
    assert root_count(p, 0, 1) == 1
    assert root_count(p, -1, 0) == 1
    assert root_count(p, -1, 1) == 2
    assert root_count(p, F(-1, 2), F(1, 2)) == 1
    assert root_count(p, 2, 3) == 0


def test_sign_on_matches_exact_evaluation():
    # The sign on [lo, hi] is 0 exactly when a planted root lies there, and
    # otherwise the sign of p at every point of a rational grid on it.
    zeros = 0
    for p, roots, lo, hi in _cases(2, 300):
        got = sign_on(p, lo, hi)
        if any(lo <= r <= hi for r in roots):
            assert got == 0, (p, lo, hi)
            zeros += 1
            continue
        grid = [lo + (hi - lo) * F(k, 17) for k in range(18)]
        values = [poly_eval(p, x) for x in grid]
        assert all(v * got > 0 for v in values), (p, lo, hi)
    assert 0 < zeros < 300


def test_sign_on_a_point_and_constants():
    assert sign_on([0, 0, 1], 0, 0) == 0
    assert sign_on([0, 0, 1], 1, 1) == 1
    assert sign_on([-4, 0, 1], -1, 1) == -1  # x^2 - 4 on [-1, 1]
    assert sign_on([-4, 0, 1], -1, 2) == 0
    assert sign_on([F(-1, 3)], -5, 5) == -1
    assert sign_on([], 0, 1) == 0
    # (x - 1/3)^2 + 1/100 has no real root, though it comes close
    assert sign_on([F(1, 9) + F(1, 100), F(-2, 3), 1], -1, 1) == 1


def test_root_count_rejects_bad_input():
    with pytest.raises(ValueError):
        root_count([1, 1], 1, 1)
    with pytest.raises(ValueError):
        root_count([], 0, 1)


def test_rational_input_counts_like_its_integer_multiple():
    rng = random.Random(3)
    for p, roots, lo, hi in _cases(3, 50):
        scaled = [F(c, 6) for c in p]
        assert root_count(scaled, lo, hi) == root_count(p, lo, hi)
        assert sign_on(scaled, lo, hi) == sign_on(p, lo, hi)
        k = F(rng.randint(1, 9), rng.randint(1, 9))
        assert root_count([c * k for c in p], lo, hi) == root_count(p, lo, hi)


def test_ring_operations_are_exact():
    rng = random.Random(5)
    for _ in range(100):
        a = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        b = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        b[-1] = b[-1] or F(1)
        q, r = divide(a, b)
        # q b + r is a, coefficient by coefficient, up to a's trailing zeros
        total = [x + y for x, y in zip_longest(multiply(q, b), r, fillvalue=0)]
        assert total + [0] * (len(a) - len(total)) == a
        assert len(r) < len(b)
        x = F(rng.randint(-5, 5), rng.randint(1, 3))
        assert poly_eval(multiply(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
    assert derivative([5, 3, 0, 2]) == [3, 0, 6]
    assert derivative([7]) == []
    # an exact integer division keeps int coefficients
    q, r = divide([-6, 1, 1], [-2, 1])
    assert (q, r) == ([3, 1], []) and all(type(c) is int for c in q)
    with pytest.raises(ZeroDivisionError):
        divide([1, 2], [0])
