import itertools
import random
from fractions import Fraction

import pytest

from cubeforms import altforms, cubes, qforms
from cubeforms.altforms import AltFormPair, alt_matrix, pair_from_coeffs

import oracles

J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
ZERO4 = tuple((0,) * 4 for _ in range(4))
I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def rand_alt(rng, bound=50):
    return alt_matrix(*(rng.randint(-bound, bound) for _ in range(6)))


def test_pfaffian_examples():
    assert altforms.pfaffian(J) == 1
    assert altforms.pfaffian(ZERO4) == 0
    # pattern (r,a,b,c,d,l) = (1,1,2,3,4,5): ad - bc - rl = 4 - 6 - 5
    assert altforms.pfaffian(alt_matrix(1, 1, 2, 3, 4, 5)) == -7


def test_pfaffian_rejects_non_alternating():
    with pytest.raises(ValueError):
        altforms.pfaffian(I4)


def test_pfaffian_squares_to_det():
    rng = random.Random(31)
    for _ in range(500):
        M = rand_alt(rng)
        assert altforms.pfaffian(M) ** 2 == oracles.det4(M)


def test_pfaffian_congruence_covariance():
    rng = random.Random(37)
    for _ in range(200):
        M = rand_alt(rng, 9)
        g = tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4))
        assert (altforms.pfaffian(altforms._congruence(g, M))
                == oracles.det4(g) * altforms.pfaffian(M))


def test_qform_F_examples():
    F = altforms.fuse(cubes.Cube(0, 1, 1, 0, 1, 0, 0, -1))
    assert altforms.qform_F(F) == (1, 0, 1)
    assert altforms.qform_F(AltFormPair(ZERO4, ZERO4)) == (0, 0, 0)
    # rational representative with M = (0,0,1,-1,0,0), N = (1,0,0,0,0,D/4)
    for D in (-23, 5, -7):
        w = pair_from_coeffs(0, 0, 1, -1, 0, 0,
                             1, 0, 0, 0, 0, Fraction(D, 4))
        assert altforms.qform_F(w) == (-1, 0, Fraction(D, 4))
        assert altforms.disc(w) == D
        assert altforms.invariants_W(w) == (D, 1, -1)


def test_qform_F_square_is_det():
    rng = random.Random(41)
    for _ in range(200):
        F = AltFormPair(rand_alt(rng, 9), rand_alt(rng, 9))
        Q = altforms.qform_F(F)
        for u, v in ((1, 0), (0, 1), (1, 1), (2, -3), (5, 7)):
            val = Q.a * u * u + Q.b * u * v + Q.c * v * v
            assert val * val == oracles.det4(
                altforms._combine(F.first, F.second, u, -v))


def _qform_F_by_pfaffians(F):
    # the evaluation qform_F replaced: Pfaffians of M, -N and M - N
    M, N = F
    ca = -altforms.pfaffian(M)
    cc = -altforms.pfaffian(altforms._combine(M, N, 0, -1))
    cb = -altforms.pfaffian(altforms._combine(M, N, 1, -1)) - ca - cc
    return (ca, cb, cc)


def test_qform_F_matches_pfaffian_oracle():
    import sympy
    from sympy.combinatorics import Permutation

    def pf(X):
        # Pf X = (1 / (2^n n!)) sum over S_2n of sgn(s) prod X[s(2k)][s(2k+1)]
        total = sum(Permutation(list(s)).signature() * X[s[0], s[1]] * X[s[2], s[3]]
                    for s in itertools.permutations(range(4)))
        return total / 8

    def alt(entries):
        X = sympy.zeros(4, 4)
        for (i, j), x in zip(itertools.combinations(range(4), 2), entries):
            X[i, j], X[j, i] = x, -x
        return X

    # the library normalizes Pfaff(J) = 1 for J = [[0, I], [-I, 0]]
    scale = 1 / pf(sympy.Matrix(J))
    assert scale == -1
    ms, ns = sympy.symbols("m0:6"), sympy.symbols("n0:6")
    u, v = sympy.symbols("u v")
    Q = sympy.Poly(-scale * pf(alt(ms) * u - alt(ns) * v), u, v)
    want = (Q.coeff_monomial(u ** 2), Q.coeff_monomial(u * v), Q.coeff_monomial(v ** 2))
    F = AltFormPair(*(tuple(tuple(X.row(i)) for i in range(4)) for X in (alt(ms), alt(ns))))
    got = altforms.qform_F(F)
    assert all(sympy.expand(x - y) == 0 for x, y in zip(got, want))


def test_qform_F_matches_pfaffian_evaluation():
    rng = random.Random(67)
    for k in range(4000):
        if k % 2:
            F = AltFormPair(rand_alt(rng), rand_alt(rng))
        else:
            F = AltFormPair(*(alt_matrix(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                           for _ in range(6))) for _ in range(2)))
        assert altforms.qform_F(F) == _qform_F_by_pfaffians(F)


def test_non_alternating_rejected_in_every_entry():
    M = alt_matrix(1, -2, 3, 4, -5, 6)
    assert altforms.is_alternating(M)
    for i in range(4):
        for j in range(4):
            bad = tuple(tuple(x + (r == i and c == j) for c, x in enumerate(row))
                        for r, row in enumerate(M))
            assert not altforms.is_alternating(bad)
            with pytest.raises(ValueError):
                altforms.pfaffian(bad)
            for F in (AltFormPair(bad, M), AltFormPair(M, bad)):
                with pytest.raises(ValueError):
                    altforms.qform_F(F)


def test_fuse():
    assert altforms.fuse(cubes.ZERO) == AltFormPair(ZERO4, ZERO4)
    A = cubes.Cube(0, 1, 1, -6, 1, -1, -6, 0)
    F = altforms.fuse(A)
    assert F.first[0][1] == 0 and F.second[0][1] == 0
    assert F.first[2][3] == 0 and F.second[2][3] == 0
    assert altforms.qform_F(F) == (1, 1, 6)
    assert altforms.disc(F) == -23
    assert altforms.invariants_W(F) == (-23, 0, 1)


def test_act_24_identity_and_shear():
    rng = random.Random(43)
    F = AltFormPair(rand_alt(rng, 9), rand_alt(rng, 9))
    assert altforms.act_24(((1, 0), (0, 1)), I4, F) == F
    sheared = altforms.act_24(((1, 1), (0, 1)), I4, F)
    assert sheared.first == altforms._combine(F.first, F.second, 1, 1)
    assert sheared.second == F.second


def test_act_24_preserves_disc():
    rng = random.Random(47)
    # signed permutation of det 1 and a shear, both det 1
    perm = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    shear = ((1, 0, 2, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -3, 0, 1))
    assert oracles.det4(perm) == oracles.det4(shear) == 1
    for _ in range(300):
        F = AltFormPair(rand_alt(rng, 9), rand_alt(rng, 9))
        g1 = rng.choice((((1, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (-1, 0))))
        g = rng.choice((perm, shear, I4))
        assert altforms.disc(altforms.act_24(g1, g, F)) == altforms.disc(F)


def test_fuse_intertwines_slot_one_action():
    rng = random.Random(53)
    gens = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)))
    for _ in range(200):
        A = cubes.Cube(*(rng.randint(-9, 9) for _ in range(8)))
        g1 = rng.choice(gens)
        assert (altforms.fuse(cubes.act(g1, ((1, 0), (0, 1)), ((1, 0), (0, 1)), A))
                == altforms.act_24(g1, I4, altforms.fuse(A)))


def test_invariants_W():
    assert altforms.invariants_W(AltFormPair(ZERO4, ZERO4)) == (0, 0, 0)
    rng = random.Random(59)
    for _ in range(100):
        A = cubes.Cube(*(rng.randint(-9, 9) for _ in range(8)))
        F = altforms.fuse(A)
        M1 = oracles.slices(A)[0][0]
        assert altforms.invariants_W(F) == (cubes.disc(A), 0, -cubes._det2(M1))
    with pytest.raises(ValueError):
        altforms.invariants_W(pair_from_coeffs(1, 0, 0, 0, 0, 0,
                                               0, 0, 0, 0, 0, 0))


def test_class_map_is_surjective():
    # every form class arises as the fused form of some projective cube
    for D in (-7, -15, -23):
        classes = qforms.enumerate_class_group(D)
        hit = set()
        for Q1 in classes:
            for Q2 in classes:
                A = cubes.construct_cube(D, Q1.a, Q2.a,
                                         Q1.b % (2 * Q1.a), Q2.b % (2 * Q2.a))
                assert oracles.is_projective(A)
                hit.add(qforms.reduce(altforms.qform_F(altforms.fuse(A))))
        assert hit == set(classes)


def test_verify_fusion_suite():
    rep = altforms.verify_fusion(seed=0, cases=2000)
    assert rep["status"] == "pass"
    assert rep["cases_run"] == 2000
    assert rep["first_failure"] is None


def test_verify_fusion_reports_form_and_disc(monkeypatch):
    # a wrong discriminant alone must show in the report
    disc = cubes.disc
    monkeypatch.setattr(cubes, "disc", lambda A: disc(A) + 1)
    rep = altforms.verify_fusion(seed=3, cases=10)
    assert rep["status"] == "fail"
    # the suite stops at case 0 and counts only the cases it ran
    assert rep["cases_run"] == 1
    fail = rep["first_failure"]
    A = cubes.Cube(*fail["inputs"]["cube"])
    Q = list(cubes.qform(A, 1))
    assert fail["expected"] == {"Q": Q, "disc": disc(A) + 1}
    assert fail["actual"] == {"Q": Q, "disc": disc(A)}
