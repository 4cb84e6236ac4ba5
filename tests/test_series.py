from fractions import Fraction
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeforms import arith, series

import oracles

# 405 = 3^4 5 and -1575 = -7 3^2 5^2: an even valuation with a non-residue
# cofactor, so chi_D(p) = -1 at a prime whose square divides D
NON_FUNDAMENTAL = (45, 117, -27, -75, 225, 405, -1575)
DISCS = (-3, 5, -23, 1105, -3003) + NON_FUNDAMENTAL    # all odd


def test_coeffs_A_examples():
    ca = series.coeffs_A(-23, 2)
    assert ca == [2, 4]
    assert series.coeffs_A(5, 2)[1] == 0
    with pytest.raises(ValueError):
        series.coeffs_A(-8, 10)
    with pytest.raises(ValueError):
        series.coeffs_A(-6, 10)  # not a discriminant at all
    for bad in (0, series.N_CAP + 1):
        with pytest.raises(ValueError, match="N must be in"):
            series.coeffs_A(-23, bad)
        with pytest.raises(ValueError, match="N must be in"):
            series.coeffs_rhs(-23, bad)


def test_coeffs_A_matches_count_sqrt_mod():
    # table sizes include a prime (97) and a power of 2 (128)
    sizes = (1, 2, 3, 4, 16, 97, 128, 2000)
    for D in DISCS:
        want = [arith.count_sqrt_mod(D, 4 * m) for m in range(1, max(sizes) + 1)]
        assert want[:300] == [arith.count_sqrt_brute(D, 4 * m) for m in range(1, 301)]
        for N in sizes:
            assert series.coeffs_A(D, N) == want[:N], (D, N)


@settings(max_examples=60, deadline=None)
@example(1, -3, "_local_A")
@example(16, -1575, "_chihat_a")
@given(st.integers(1, 20000), st.sampled_from(DISCS),
       st.sampled_from(("_local_A", "_local_rhs", "_chihat_a")))
def test_multiplicative_matches_the_factorint_product(N, D, builder):
    # the Euler-product builder against the product of local(p, l) over
    # sympy's factorization of each m; local runs once per prime power p^l <= N,
    # primes and powers in increasing order, and the start vector is multiplied
    import sympy

    local, calls = getattr(series, builder)(D), []

    def recorded(p, l):
        calls.append((p, l))
        return local(p, l)

    got = series._multiplicative(arith.primes_upto(N), list(range(1, N + 1)), recorded)
    assert calls == [(p, l) for p in sympy.primerange(N + 1)
                           for l in range(1, N.bit_length()) if p ** l <= N]
    want = []
    for m in range(1, N + 1):
        value = m
        for p, l in sympy.factorint(m).items():
            value *= local(p, l)
        want.append(value)
    assert got == want


def test_coeffs_rhs_examples():
    rhs = series.coeffs_rhs(-23, 2)
    assert rhs[0] == 2
    assert rhs[1] == 4   # 2 * (chi(2) a(1) + a(1)) with chi_{-23}(2) = 1
    assert series.coeffs_rhs(5, 2)[1] == 0


def test_coeffs_rhs_is_squarefree_convolution():
    for D in (-23, 5) + NON_FUNDAMENTAL:
        N = 200
        rhs = series.coeffs_rhs(D, N)
        chihat = [arith.field_character(D, arith.m_hat(D, e)) * arith.wmds_coeff(D, e)
                  for e in range(1, N + 1)]
        for m in range(1, N + 1):
            total = sum(chihat[m // d - 1] for d in range(1, m + 1)
                        if m % d == 0 and arith.is_squarefree(d))
            assert rhs[m - 1] == 2 * total


def _bumped_rhs(bumps):
    """series._local_rhs with bumps[p, l] added to the local factor at p^l."""
    real = series._local_rhs

    def local_rhs(D):
        local = real(D)
        return lambda p, l: local(p, l) + bumps.get((p, l), 0)

    return local_rhs


def test_verify_prop2(monkeypatch):
    assert series.verify_prop2(-23, 300)["status"] == "pass"
    assert series.verify_prop2(5, 300)["status"] == "pass"
    rep = series.verify_prop2(-7, 1)
    assert rep["status"] == "pass" and rep["cases_run"] == 1
    # a wrong right side's local factor at 5 and at 7: the report names the
    # first differing index. Each entry is twice its local factors, so half
    # a unit at p = 5 moves the entry at m = 5 by one
    monkeypatch.setattr(series, "_local_rhs",
                        _bumped_rhs({(5, 1): Fraction(1, 2), (7, 1): 1}))
    rep = series.verify_prop2(-23, 300)
    want = series.coeffs_A(-23, 5)[4]
    assert rep["status"] == "fail" and rep["cases_run"] == 300
    assert rep["first_failure"] == {"inputs": {"disc": -23, "m": 5},
                                    "expected": want, "actual": want + 1}


def _without_elapsed(rep):
    return {k: v for k, v in rep.items() if k != "elapsed_ms"}


def test_verify_prop2_matches_the_entrywise_oracle():
    # every odd discriminant |D| <= 400, 1 and -3 included
    for D in range(-399, 401, 4):
        for N in (1, 2, 3, 4, 8, 9, 16, 97, 300):
            assert _without_elapsed(series.verify_prop2(D, N)) \
                == oracles.prop2_entrywise(D, N), (D, N)


# odd discriminants whose primes include 3, 5 and 7, some with p^2 | D;
# -255255 = -3 5 7 11 13 17
INJECTION_DISCS = (-3, 5, -15, 21, -23, -27, 45, -1575, 405, -255255)


@st.composite
def _injections(draw, D, N):
    """One or two wrong prime-power values, (side, p, l, delta): on the
    left at A(D, p^l), on the right at the local factor's value at p^l;
    at p = 2, at an odd p with l >= 2, at a p dividing D, or at one of
    the three largest primes up to N."""
    primes = [p for p in range(2, N + 1) if arith.is_prime(p)]
    at_p = st.one_of(
        st.tuples(st.just(2), st.integers(0, 11)),
        st.tuples(st.sampled_from((3, 5, 7, 11)), st.integers(2, 6)),
        st.tuples(st.sampled_from(sorted(arith.factorize(abs(D)))), st.integers(1, 6)),
        st.tuples(st.sampled_from(primes[-3:]), st.just(1)))
    one = st.tuples(st.sampled_from(("left", "right")), at_p,
                    st.sampled_from((-2, -1, 1, 2)))
    return [(side, p, l, delta) for side, (p, l), delta
            in draw(st.lists(one, min_size=1, max_size=2))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INJECTION_DISCS), st.sampled_from((50, 97, 200, 1000)), st.data())
def test_verify_prop2_names_the_oracles_first_failure(D, N, data):
    bumps = {"left": {}, "right": {}}
    for side, p, l, delta in data.draw(_injections(D, N)):
        bumps[side][p, l] = bumps[side].get((p, l), 0) + delta
    real_pp = arith._count_sqrt_pp

    def count_sqrt_pp(d, p, l):
        return real_pp(d, p, l) + bumps["left"].get((p, l), 0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_count_sqrt_pp", count_sqrt_pp)
        mp.setattr(series, "_local_rhs", _bumped_rhs(bumps["right"]))
        got = _without_elapsed(series.verify_prop2(D, N))
        assert got == oracles.prop2_entrywise(D, N)


def test_verify_prop2_builds_no_coefficient_vector(monkeypatch):
    # it walks the primes up to N only: the report is the oracle's, which
    # builds both vectors, with the vector builder unavailable
    cases = [(D, 1000) for D in (-23, -255255)]
    want = [oracles.prop2_entrywise(D, N) for D, N in cases]

    def build(*args):
        raise AssertionError("verify_prop2 built a coefficient vector")

    monkeypatch.setattr(series, "_multiplicative", build)
    with pytest.raises(AssertionError, match="built a coefficient vector"):
        series.coeffs_A(-23, 10)
    assert [_without_elapsed(series.verify_prop2(D, N)) for D, N in cases] == want


def test_local_factors_match_the_definition():
    # -207 = -23 3^2 and 45 = 3^2 5 give p | D with even and with odd k;
    # -255255 = -3 5 7 11 13 17 gives six primes with k = 1
    for D in (-23, -207, 45, -255255):
        chihat_a, local_rhs = series._chihat_a(D), series._local_rhs(D)

        def g(m):
            return arith.field_character(D, arith.m_hat(D, m)) * arith.wmds_coeff(D, m)

        for p in arith.primes_upto(2000):
            pl, l = p, 1
            while pl <= 2000:
                assert chihat_a(p, l) == g(pl), (D, p, l)
                assert local_rhs(p, l) == g(pl) + g(pl // p), (D, p, l)
                pl, l = pl * p, l + 1


def test_verify_prop2_reads_chi_once_per_prime_power(monkeypatch):
    # the right side's two terms at p^l share one chi_D(p), so kronecker
    # runs once per p^l <= N with p prime to D (D squarefree, so no
    # kronecker at p | D)
    import sympy

    calls = []
    real = arith.kronecker

    def kronecker(D, n):
        calls.append(n)
        return real(D, n)

    monkeypatch.setattr(arith, "kronecker", kronecker)
    N = 16000
    for D, want in ((-23, 1918), (-255255, 1893)):
        calls.clear()
        assert series.verify_prop2(D, N)["status"] == "pass"
        # each p prime to D, once per power p^l <= N
        per_power = [p for p in sympy.primerange(N + 1) if D % p
                     for l in range(1, N.bit_length()) if p ** l <= N]
        assert sorted(calls) == per_power and len(per_power) == want, D


def test_verify_prop2_nonfundamental_odd():
    # holds for any odd discriminant, squarefree or not
    for D in (45, 117, -27, -75, 225):
        assert series.verify_prop2(D, 200)["status"] == "pass"


def test_verify_ptilde2():
    rep = series.verify_ptilde2(-23, 6)
    assert rep["status"] == "pass" and rep["ratio"] == 2
    assert series.verify_ptilde2(5, 6)["status"] == "pass"
    assert series.verify_ptilde2(-3, 1)["status"] == "pass"
    for D in (-7, 17, -15, 9):
        assert series.verify_ptilde2(D, 5)["status"] == "pass"


def test_verify_ptilde2_stops_at_first_failure(monkeypatch):
    # a wrong count modulo 16, the third case (moduli 4, 8, 16, ...)
    real = arith.count_sqrt_brute
    monkeypatch.setattr(arith, "count_sqrt_brute",
                        lambda d, m: real(d, m) + (m == 16))
    rep = series.verify_ptilde2(-23, 6)
    assert rep["status"] == "fail"
    assert rep["cases_run"] == 3
    assert list(rep)[-1] == "ratio" and rep["ratio"] is None
    assert rep["first_failure"] == {"inputs": {"disc": -23, "modulus": 16},
                                    "expected": 4, "actual": 5}


def test_shintani_Z_first_term():
    z = series.shintani_Z(2.0, 2.0, 1, 1)
    assert z.xi1 == 2.0   # A(1, 4) = 2
    assert z.xi2 == 0.0   # -1 is not a square mod 4
    assert z.value == 2.0


def test_shintani_Z_monotone_in_cutoffs():
    prev = 0.0
    for amax in (5, 10, 20):
        z = series.shintani_Z(2.0, 2.0, amax, 20)
        assert z.xi1.real >= 0 and z.xi2.real >= 0
        assert z.xi1.imag == 0 and z.xi2.imag == 0
        assert z.value.real >= prev
        prev = z.value.real


def test_shintani_Z_matches_per_pair_count():
    # reference: one count_sqrt_mod per (sign, a, d), factoring 4a every time
    # thin shapes build one short row per discriminant; the wide ones build
    # rows of 300, at d = 0 (mod 4) too: ±4, ±8, ±12 and ±16 at dmax = 17
    for s, w, amax, dmax in ((2.0, 2.0, 1, 1), (2.0, 3.0, 37, 23),
                             (complex(1.5, 2.0), complex(0.7, -1.3), 30, 41),
                             (2.0, 2.0, 1, 300), (3.0, complex(1.5, -0.5), 2, 150),
                             (complex(2.5, 1.0), 2.0, 300, 2), (2.0, 1.5, 300, 17)):
        xi = []
        for sign in (1, -1):
            terms = []
            for a in range(1, amax + 1):
                for d in range(1, dmax + 1):
                    cnt = arith.count_sqrt_mod(sign * d, 4 * a)
                    if cnt:
                        terms.append(cnt * a ** (-s) * d ** (-w))
            xi.append(complex(fsum(t.real for t in terms), fsum(t.imag for t in terms)))
        want = (s, w, amax, dmax, xi[0] + xi[1], xi[0], xi[1])
        assert tuple(series.shintani_Z(s, w, amax, dmax)) == want


def test_shintani_Z_sieves_once_and_factors_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored or counted one pair at a time")

    real, built = arith.primes_upto, []

    def sieve(N):
        built.append(N)
        return real(N)

    monkeypatch.setattr(arith, "factorize", refuse)
    monkeypatch.setattr(arith, "count_sqrt_mod", refuse)
    monkeypatch.setattr(arith, "primes_upto", sieve)
    series.shintani_Z(2.0, 2.0, 30, 41)
    assert built == [30]
    for bad in (float("nan"), float("inf"), complex(1, float("-inf"))):
        with pytest.raises(ValueError, match="must be finite"):
            series.shintani_Z(bad, 2.0, 30, 41)
        with pytest.raises(ValueError, match="must be finite"):
            series.shintani_Z(2.0, bad, 30, 41)
    assert built == [30]


def test_shintani_Z_size_cap():
    for amax, dmax in ((series.SHINTANI_CAP + 1, 1), (1001, 1000), (10**5, 10**5)):
        with pytest.raises(ValueError, match="amax \\* dmax must be at most"):
            series.shintani_Z(2.0, 2.0, amax, dmax)


def test_shintani_restricted_slice_matches_convolution():
    # for d = 1 mod 4 each inner a-sum can be rewritten through the
    # squarefree-convolution coefficients; the two paths must agree
    s = w = 3.0
    amax, dmax = 40, 49
    direct = 0.0
    conv = 0.0
    for d in range(1, dmax + 1, 4):
        ca = series.coeffs_A(d, amax)
        cr = series.coeffs_rhs(d, amax)
        direct += sum(c * a ** -s for a, c in enumerate(ca, start=1)) * d ** -w
        conv += sum(c * a ** -s for a, c in enumerate(cr, start=1)) * d ** -w
    assert direct == conv


def test_wmds_Z_examples():
    assert series.wmds_Z(2.0, 3.0, 1, [5]) == 5.0 ** -3
    two_terms = series.wmds_Z(2.0, 3.0, 2, [5])
    assert two_terms == 5.0 ** -3 - 2.0 ** -2 * 5.0 ** -3
    # an empty Dset has no terms: rejected, not summed to 0
    with pytest.raises(ValueError, match="must not be empty"):
        series.wmds_Z(2.0, 3.0, 100, [])
    with pytest.raises(ValueError):
        series.wmds_Z(2.0, 3.0, 10, [8])
    with pytest.raises(ValueError, match="mmax must be in"):
        series.wmds_Z(2.0, 3.0, series.N_CAP + 1, [5])


def test_wmds_Z_checks_every_disc_before_the_sieve(monkeypatch):
    def sieve(N):
        raise AssertionError("sieve built before Dset was checked")

    monkeypatch.setattr(arith, "primes_upto", sieve)
    with pytest.raises(ValueError, match="odd discriminant"):
        series.wmds_Z(2.0, 3.0, series.N_CAP, [5, 8])
    # the patched sieve is the one wmds_Z calls
    with pytest.raises(AssertionError, match="sieve built"):
        series.wmds_Z(2.0, 3.0, 10, [5])


def test_wmds_Z_matches_per_m_sum():
    # the per-m definition, summed the same way, gives the same floats
    s, w, mmax, Dset = 1.5 + 2j, 0.5 - 1j, 300, [5, -23, 45, -27, 405, -1575]
    terms = []
    for D in Dset:
        for m in range(1, mmax + 1):
            chi = arith.field_character(D, arith.m_hat(D, m))
            a = arith.wmds_coeff(D, m)
            if chi * a:
                terms.append(chi * a * m ** (-s) * abs(D) ** (-w))
    want = complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))
    assert series.wmds_Z(s, w, mmax, Dset) == want
