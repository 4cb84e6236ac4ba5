import random
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.external.ntheory import kronecker

from cubeforms import arith, qforms
from cubeforms.qforms import Form
from oracles import class_group_by_b_scan, stabilizer_order

GENS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)))


def random_sl2(rng, words=6):
    g = ((1, 0), (0, 1))
    for _ in range(words):
        h = rng.choice(GENS)
        g = tuple(tuple(sum(g[i][k] * h[k][j] for k in range(2))
                        for j in range(2)) for i in range(2))
    return g


def test_disc():
    assert qforms.disc(Form(1, 1, 6)) == -23
    assert qforms.disc(Form(1, 0, 0)) == 0
    assert qforms.disc(Form(2, -1, 3)) == -23


def test_act_examples():
    Q = Form(1, 1, 6)
    assert qforms.act(((1, 0), (0, 1)), Q) == Q
    assert qforms.act(((0, 1), (-1, 0)), Q) == (6, -1, 1)
    g = ((1, 1), (0, 1))
    assert qforms.act(g, Q) == (8, 13, 6)
    assert qforms.disc(qforms.act(g, Q)) == -23


def test_act_is_group_action():
    rng = random.Random(11)
    Q = Form(2, 1, 3)
    for _ in range(200):
        g = random_sl2(rng)
        h = random_sl2(rng)
        hg = tuple(tuple(sum(h[i][k] * g[k][j] for k in range(2))
                         for j in range(2)) for i in range(2))
        assert qforms.act(h, qforms.act(g, Q)) == qforms.act(hg, Q)
        assert qforms.disc(qforms.act(g, Q)) == qforms.disc(Q)


def test_reduce():
    assert qforms.reduce(Form(8, 13, 6)) == (1, 1, 6)
    assert qforms.reduce(Form(1, 1, 6)) == (1, 1, 6)
    assert qforms.reduce(Form(2, -1, 3)) == (2, -1, 3)
    with pytest.raises(ValueError):
        qforms.reduce(Form(1, 5, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_reduce_returns_a_reduced_form(a, b, k):
    c = b * b // (4 * a) + k     # so that b^2 - 4ac < 0
    r = qforms.reduce(Form(a, b, c))
    assert abs(r.b) <= r.a <= r.c
    if abs(r.b) == r.a or r.a == r.c:
        assert r.b >= 0
    assert qforms.disc(r) == b * b - 4 * a * c


def test_reduce_is_class_invariant():
    rng = random.Random(5)
    for Q in (Form(1, 1, 6), Form(2, 1, 3), Form(3, 1, 4), Form(1, 1, 2)):
        r = qforms.reduce(Q)
        for _ in range(100):
            g = random_sl2(rng)
            moved = qforms.act(g, Q)
            if moved.a > 0:
                assert qforms.reduce(moved) == r


def test_compose_identity_and_inverses():
    for D in (-7, -15, -23, -31):
        one = qforms.principal_form(D)
        for Q in qforms.enumerate_class_group(D):
            assert qforms.compose(one, Q) == qforms.reduce(Q)
            # compose reduces its inputs, so the opposite form need not be reduced
            assert qforms.compose(Q, Form(Q.a, -Q.b, Q.c)) == one


def test_compose_cyclic_order_three():
    assert qforms.compose(Form(2, 1, 3), Form(2, -1, 3)) == (1, 1, 6)
    assert qforms.compose(Form(2, 1, 3), Form(2, 1, 3)) == (2, -1, 3)


def test_compose_group_axioms():
    for D in (-7, -15, -23, -31):
        cls = qforms.enumerate_class_group(D)
        for Q1 in cls:
            for Q2 in cls:
                p = qforms.compose(Q1, Q2)
                assert p in cls
                assert p == qforms.compose(Q2, Q1)
                for Q3 in cls:
                    assert (qforms.compose(qforms.compose(Q1, Q2), Q3)
                            == qforms.compose(Q1, qforms.compose(Q2, Q3)))


def test_compose_rejects_mismatch():
    with pytest.raises(ValueError):
        qforms.compose(Form(1, 1, 2), Form(1, 1, 6))
    with pytest.raises(ValueError):
        qforms.compose(Form(2, 2, 4), Form(2, 2, 4))  # imprimitive


def _genus_characters(D):
    # chi_{D1} for each factorization D = D1 D2 into fundamental
    # discriminants or 1; the pair (D1, D2) and the pair (D2, D1) give the
    # same character on forms
    out = []
    for d in range(1, -D + 1):
        for D1 in (d, -d):
            if D % D1 == 0 and all(x == 1 or arith.is_fundamental(x)
                                   for x in (D1, D // D1)):
                out.append((D1, D // D1))
    return out


def _genus_value(D1, Q):
    # chi_{D1}(a) for a value a of Q prime to disc(Q)
    D = qforms.disc(Q)
    for u in range(30):
        for v in range(30):
            a = qforms.evaluate(Q, u, v)
            if gcd(a, D) == 1:
                return arith.kronecker(D1, a)
    raise AssertionError(f"no value of {Q} prime to {D}")


def _representation_counts(Q, N):
    # r_Q(n) = #{(x, y) : Q(x, y) = n} for 0 <= n <= N, from
    # 4a Q(x, y) = (2ax + by)^2 + |D| y^2
    a, b, _ = Q
    D = qforms.disc(Q)
    r = [0] * (N + 1)
    R, Y = isqrt(4 * a * N), isqrt(4 * a * N // -D)
    for y in range(-Y, Y + 1):
        for x in range((-b * y - R) // (2 * a), (-b * y + R) // (2 * a) + 1):
            n = qforms.evaluate(Q, x, y)
            if n <= N:
                r[n] += 1
    return r


FUNDAMENTAL = [D for D in range(-3, -1200, -1) if arith.is_fundamental(D)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FUNDAMENTAL))
def test_genus_characters_match_class_group(D):
    # the toric periods of theta series: for a genus character chi of
    # D = D1 D2, sum over classes of chi([Q]) r_Q(n) is
    # w sum_{d | n} chi_{D1}(d) chi_{D2}(n / d); the trivial character is
    # Dirichlet's class number formula coefficient by coefficient
    N = 300
    classes = qforms.enumerate_class_group(D)
    w = 2 * stabilizer_order(classes[0])
    counts = {Q: _representation_counts(Q, N) for Q in classes}
    for D1, D2 in _genus_characters(D):
        chi = {Q: _genus_value(D1, Q) for Q in classes}
        for Q1 in classes:
            for Q2 in classes:
                assert chi[qforms.compose(Q1, Q2)] == chi[Q1] * chi[Q2]
        for n in range(1, N + 1):
            lhs = sum(chi[Q] * counts[Q][n] for Q in classes)
            rhs = w * sum(arith.kronecker(D1, d) * arith.kronecker(D2, n // d)
                          for d in range(1, n + 1) if n % d == 0)
            assert lhs == rhs, (D, D1, n)


def test_enumerate_class_group():
    assert qforms.enumerate_class_group(-7) == [(1, 1, 2)]
    assert qforms.enumerate_class_group(-23) == [(1, 1, 6), (2, 1, 3), (2, -1, 3)]
    assert qforms.enumerate_class_group(-3) == [(1, 1, 1)]
    with pytest.raises(ValueError):
        qforms.enumerate_class_group(5)


def test_enumerate_class_group_matches_b_scan():
    # the same forms in the same order: a ascending, then b descending
    rng = random.Random(27)
    seeded = []
    while len(seeded) < 4:
        D = -rng.randint(10 ** 5, 10 ** 7)
        if arith.is_fundamental(D):
            seeded.append(D)
    for D in [D for D in range(-3, -3001, -1) if arith.is_fundamental(D)] + seeded:
        assert qforms.enumerate_class_group(D) == class_group_by_b_scan(D), D


def test_class_number_formula():
    # Dirichlet: h(D) = -(w / 2|D|) sum_{0 < a < |D|} a chi_D(a), with w the
    # number of units, for every fundamental D < 0. chi_D is sympy's integer
    # Kronecker routine, the one under its symbolic kronecker_symbol
    for D in range(-3, -1001, -1):
        if arith.is_fundamental(D):
            w = {-3: 6, -4: 4}.get(D, 2)
            total = sum(a * kronecker(D, a) for a in range(1, -D))
            assert len(qforms.enumerate_class_group(D)) * 2 * -D == -w * total, D


def test_stabilizer_order():
    assert stabilizer_order(Form(1, 1, 1)) == 3
    assert stabilizer_order(Form(1, 0, 1)) == 2
    assert stabilizer_order(Form(1, 1, 6)) == 1
