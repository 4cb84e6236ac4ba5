import random
from fractions import Fraction

import pytest

from cubeforms import poly


def _random_poly(rng, length):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length)]


def _value(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def test_mul_evaluates_to_product():
    rng = random.Random(3)
    for _ in range(200):
        p = _random_poly(rng, rng.randint(1, 6))
        q = _random_poly(rng, rng.randint(1, 6))
        pq = poly.mul(p, q)
        assert len(pq) == len(p) + len(q) - 1
        for x in (Fraction(-2), Fraction(1, 3), Fraction(5, 2)):
            assert _value(pq, x) == _value(p, x) * _value(q, x)


def test_expand_times_denominator_is_numerator():
    rng = random.Random(5)
    big = Fraction(3**40 + 7, 2**61 - 1)
    for i in range(400):
        num = _random_poly(rng, rng.randint(1, 6))
        den = _random_poly(rng, rng.randint(1, 6))
        if i % 2:
            # int and Fraction coefficients mixed
            num = [int(c) if c.denominator == 1 else c for c in num]
            den = [rng.randint(-9, 9) if j % 2 else c for j, c in enumerate(den)]
        if i % 5 == 0:
            den[-1] *= big
        den[0] = rng.choice((-3, Fraction(7, 5), big, -big, 1, 2, den[0] or 1))
        n = rng.randint(0, 12)
        series = poly.expand(num, den, n)
        assert len(series) == n + 1
        assert all(type(c) is Fraction for c in series)
        assert poly.mul(series, den)[:n + 1] == (num + [0] * (n + 1))[:n + 1]
        # ints are read like the equal Fractions
        assert series == poly.expand([Fraction(c) for c in num],
                                     [Fraction(c) for c in den], n)


def test_expand_geometric_series():
    assert poly.expand([1], [1, -1], 6) == [1] * 7
    assert all(type(c) is Fraction for c in poly.expand([1], [1, -1], 6))
    assert poly.expand([1], [1, -1], -1) == []
    assert poly.expand([1], [2, -1], 3) == [Fraction(1, 2 ** (k + 1)) for k in range(4)]
    assert poly.expand([3, 4], [1], 0) == [3]


def test_expand_in_lowest_terms():
    # (1 + q)/(1 - q/2) = 1 + 3/2 q + 3/4 q^2 + ...
    got = poly.expand([6, 6], [6, -3], 4)
    assert [(c.numerator, c.denominator) for c in got] == \
        [(1, 1), (3, 2), (3, 4), (3, 8), (3, 16)]
    assert all(type(c) is Fraction for c in got)


def test_expand_ignores_common_content():
    for n in (0, 1, 7, 20):
        assert poly.expand([6, 6], [6, -3], n) == poly.expand([2, 2], [2, -1], n)
        assert poly.expand([Fraction(3, 5)] * 2, [Fraction(3, 5), Fraction(-3, 10)], n) \
            == poly.expand([2, 2], [2, -1], n)
    assert poly.expand([6, 6], [6, -3], -1) == []
    assert poly.expand([0], [12, 18], 3) == [0, 0, 0, 0]


def test_expand_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        poly.expand([1], [0, 1], 3)

