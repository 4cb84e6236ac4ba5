import random
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.external.ntheory import kronecker as kronecker_int
from sympy.functions.combinatorial.numbers import kronecker_symbol
from sympy.ntheory.residue_ntheory import sqrt_mod

from cubeforms import arith, localfactors


def test_count_sqrt_examples():
    # (5, 4): brute force over {0,1,2,3} gives x = 1, 3
    assert arith.count_sqrt_brute(5, 4) == 2
    assert arith.count_sqrt_mod(5, 4) == 2
    for d in (0, 1, -23, 9, 1000003):
        assert arith.count_sqrt_mod(d, 1) == 1
    # 3-part 2*min(3,9) = 6 at modulus 81
    assert arith.count_sqrt_brute(9, 81) == 6
    assert arith.count_sqrt_mod(9, 81) == 6


def test_count_sqrt_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.count_sqrt_mod(1, 0)
    with pytest.raises(ValueError):
        arith.count_sqrt_brute(1, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(-300, 300), st.integers(1, 60), st.integers(1, 60))
def test_count_sqrt_matches_brute_force(d, a, b):
    assert arith.count_sqrt_mod(d, a) == arith.count_sqrt_brute(d, a)
    if gcd(a, b) == 1:
        assert (arith.count_sqrt_mod(d, a * b)
                == arith.count_sqrt_mod(d, a) * arith.count_sqrt_mod(d, b))


def test_prime_power_examples():
    assert arith.count_sqrt_prime_power(1, 3, 0) == 1
    # x^2 = 3 = 0 (mod 3) has the single solution x = 0
    assert arith.count_sqrt_prime_power(3, 3, 1) == 1 == arith.count_sqrt_brute(3, 3)
    # k < l odd: no solution
    assert arith.count_sqrt_prime_power(3, 3, 2) == 0 == arith.count_sqrt_brute(3, 9)
    assert arith.count_sqrt_prime_power(-23, 3, 2) == 2 == arith.count_sqrt_brute(-23, 9)


def test_prime_power_rejects_two():
    with pytest.raises(ValueError):
        arith.count_sqrt_prime_power(5, 2, 3)


def test_prime_power_against_brute_force_sample():
    rng = random.Random(7)
    for _ in range(150):
        p = rng.choice([3, 5, 7])
        k = rng.randint(0, 4)
        l = rng.randint(0, 4)
        d0 = rng.choice([d for d in range(-10, 11) if d and d % p])
        d = d0 * p ** k
        assert arith.count_sqrt_prime_power(d, p, l) == arith.count_sqrt_brute(d, p ** l)


def test_count_sqrt_pp_every_residue():
    # every residue d mod p^l up to 729, and d shifted by -p^l and +p^l:
    # the unit case, p | d with even and odd valuation, d = 0, and p = 2,
    # which count_sqrt_prime_power refuses
    for p in (2, 3, 5, 7):
        pl, l = p, 1
        while pl <= 729:
            for d in range(pl):
                want = arith.count_sqrt_brute(d, pl)
                for shifted in (d - pl, d, d + pl):
                    assert arith._count_sqrt_pp(shifted, p, l) == want, (shifted, p, l)
            pl, l = pl * p, l + 1


def test_kronecker_examples():
    # (-7/2) = 1 since -7 = 1 (mod 8); cross-check: -7 is a square mod 8
    assert arith.kronecker(-7, 2) == 1
    assert arith.count_sqrt_mod(-7, 8) > 0
    assert arith.kronecker(5, 2) == -1
    for D in (-3, 5, -23, 12):
        assert arith.kronecker(D, 1) == 1


def test_kronecker_vs_legendre():
    for p in (3, 5, 7, 11, 13):
        for D in (-23, -7, 5, 13, -15):
            if D % p == 0:
                assert arith.kronecker(D, p) == 0
            else:
                expect = 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1
                assert arith.kronecker(D, p) == expect


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([-23, -7, -3, 5, 13, -15, -31]),
       st.integers(1, 500), st.integers(1, 500))
def test_kronecker_multiplicative(D, m, n):
    assert arith.kronecker(D, m * n) == arith.kronecker(D, m) * arith.kronecker(D, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_kronecker_matches_sympy(D, n):
    # n = 0 and n < 0 included: (D/0) = [D = +-1], (D/-1) = sign of D
    assert arith.kronecker(D, n) == kronecker_symbol(D, n)
    assert arith.kronecker(D, 0) == kronecker_symbol(D, 0)
    assert arith.kronecker(D, -abs(n)) == kronecker_symbol(D, -abs(n))


def test_kronecker_matches_the_integer_oracle_on_a_grid():
    # sympy's integer routine, which rejects a common factor by gcd before
    # its Jacobi loop; the grid holds n = 0, negative n, D and n both even,
    # powers of two and D = +-1
    grid = range(-200, 201)
    assert [arith.kronecker(D, n) for D in grid for n in grid] \
        == [kronecker_int(D, n) for D in grid for n in grid]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, arith.TRIAL_BOUND ** 2 - 1))
@example(arith.TRIAL_BOUND ** 2 - 1)                      # 1999999 * 2000001
@example(sympy.prevprime(arith.TRIAL_BOUND ** 2))
@example(4 * 999999999989)
def test_factorize_matches_sympy_below_trial_bound_squared(n):
    assert arith.factorize(n) == sympy.factorint(n)


def test_factorize_certifies_or_rejects_a_large_cofactor():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    assert arith.factorize(10 ** 18 + 3) == {10 ** 18 + 3: 1}
    assert arith.factorize(2 ** 60) == {2: 60}
    assert arith.factorize(12 * p) == {2: 2, 3: 1, p: 1}
    with pytest.raises(ValueError, match="cannot factor"):
        arith.factorize(p * q)
    # the least strong pseudoprimes to the first 12 and 13 prime bases: is_prime
    # runs 13 bases, so it rejects the first and refuses the second
    psi12, psi13 = 399165290221 * 798330580441, arith.MR_LIMIT
    assert not sympy.isprime(psi12) and not arith.is_prime(psi12)
    assert not sympy.isprime(psi13)
    with pytest.raises(ValueError, match="certified only below"):
        arith.is_prime(psi13)
    for n in (3 * psi12, 3 * psi13, sympy.nextprime(psi13)):
        with pytest.raises(ValueError, match="cannot factor"):
            arith.factorize(n)


def test_is_prime_refuses_from_the_mr_limit_on():
    # below the limit it agrees with sympy; from the limit on it answers
    # nothing, and the callers that take p from outside refuse p with it
    for n in range(arith.MR_LIMIT - 200, arith.MR_LIMIT):
        assert arith.is_prime(n) == sympy.isprime(n), n
    for n in (arith.MR_LIMIT, sympy.nextprime(arith.MR_LIMIT), 2 ** 89 - 1):
        with pytest.raises(ValueError, match="certified only below"):
            arith.is_prime(n)
    with pytest.raises(ValueError):
        arith.count_sqrt_prime_power(5, arith.MR_LIMIT, 1)
    with pytest.raises(ValueError):
        localfactors.local_A_integral(5, arith.MR_LIMIT, 2, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20000))
def test_primes_upto_matches_sympy(N):
    assert arith.primes_upto(N) == list(sympy.primerange(N + 1))


def test_primes_upto_edges(monkeypatch):
    # from an empty kept sieve every N below is larger than the last, so
    # each one is sieved afresh
    monkeypatch.setattr(arith, "_kept", (1, []))
    want = {0: [], 1: [], 2: [2], 3: [2, 3], 4: [2, 3], 9: [2, 3, 5, 7]}
    for N, primes in want.items():
        assert arith.primes_upto(N) == primes, N
    for N in range(51):
        assert arith.primes_upto(N) == list(sympy.primerange(N + 1)), N
    # the square of a prime is the first composite it crosses out, so N at
    # p^2 or just either side of it is where an off-by-one bound on the
    # sieving primes or on the odd-only index range would show
    for p in (3, 5, 7, 11, 127):
        for N in (p * p - 1, p * p, p * p + 1):
            primes = arith.primes_upto(N)
            assert primes == list(sympy.primerange(N + 1)), N
            assert primes[-1] == sympy.prevprime(N + 1), N
    assert len(arith.primes_upto(10 ** 6)) == 78498


def test_primes_upto_cuts_from_the_kept_sieve(monkeypatch):
    # a smaller N after a larger one is cut from the kept list, and only a
    # larger N sieves again; every answer is a new list, so mutating one
    # leaves the next call's result alone
    real, built = arith._sieve, []

    def sieve(N):
        built.append(N)
        return real(N)

    monkeypatch.setattr(arith, "_kept", (1, []))
    monkeypatch.setattr(arith, "_sieve", sieve)
    for N in (0, 1, 2, 3, 10, 16000, 2000, 2, 17, 16001, 10 ** 5, 97):
        primes = arith.primes_upto(N)
        assert primes == list(sympy.primerange(N + 1)), N
        primes.append(-1)
        primes[:1] = []
    assert built == [2, 3, 10, 16000, 16001, 10 ** 5]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.integers(1, 5000))
@example(5, 1)
@example(0, 4096)
@example(-1, 4999)
def test_count_sqrt_mod_matches_sympy_sqrt_mod(d, a):
    # sympy lists the roots of x^2 = d (mod a); for a = 1 it returns [0]
    assert arith.count_sqrt_mod(d, a) == len(sqrt_mod(d, a, all_roots=True) or [])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(-10 ** 4, 10 ** 4))
def test_coprime_part_matches_brute_force(n, k):
    want = max(d for d in sympy.divisors(n) if gcd(d, k) == 1)
    assert arith.coprime_part(n, k) == want


def test_wmds_coeff_examples():
    assert arith.wmds_coeff(45, 9) == 3       # 3^2 || 45, min(2,2) even
    assert arith.wmds_coeff(21, 3) == 0       # 3^1 || 21, min(1,1) odd
    for D in (-23, 45, 5):
        assert arith.wmds_coeff(D, 1) == 1


def test_wmds_coeff_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        D = rng.choice([-23, 45, -75, 117, 5])
        m1 = rng.randint(1, 50)
        m2 = rng.randint(1, 50)
        if gcd(m1, m2) == 1:
            assert (arith.wmds_coeff(D, m1 * m2)
                    == arith.wmds_coeff(D, m1) * arith.wmds_coeff(D, m2))


def test_m_hat():
    assert arith.m_hat(5, 10) == 2
    assert arith.m_hat(-23, 23) == 1
    assert arith.m_hat(-7, 45) == 45
    assert arith.m_hat(45, 15) == 3   # squarefree part of 45 is 5


def test_is_fundamental():
    assert arith.is_fundamental(-23)
    assert arith.is_fundamental(-7)
    assert arith.is_fundamental(-4)
    assert arith.is_fundamental(8)
    assert arith.is_fundamental(5)
    assert not arith.is_fundamental(45)
    assert not arith.is_fundamental(1)
    assert not arith.is_fundamental(-27)
    assert arith.is_fundamental(12)       # 4 * 3 with 3 = 3 (mod 4)
    assert not arith.is_fundamental(-12)  # field of sqrt(-12) has disc -3


def test_field_character_matches_kronecker_for_fundamental():
    for D in (-23, -7, 5, 13, -15):
        for n in range(1, 40):
            assert arith.field_character(D, n) == arith.kronecker(D, n)
    # non-squarefree: character of the field, not of D itself
    assert arith.field_character(45, 3) == arith.kronecker(5, 3) == -1


def test_class_number():
    assert arith.class_number(-7) == 1
    assert arith.class_number(-23) == 3
    assert arith.class_number(-3) == 1
    assert arith.class_number(-31) == 3
    with pytest.raises(ValueError):
        arith.class_number(-27)
