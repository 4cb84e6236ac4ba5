"""Dirichlet-series layer: coefficient vectors for both sides of the
zeta(s)/zeta(2s) identity, its exact coefficient-wise verification, the
2-adic generating-function lemma, and truncated double-sum evaluation of
the Shintani and double Dirichlet series.
"""

from cmath import isfinite
from contextlib import contextmanager
from math import fsum
from operator import mul
from typing import NamedTuple

from . import arith
from .limits import LMAX_CAP, N_CAP, SHINTANI_CAP
from .report import report, run


def _require_odd_disc(D):
    if D % 2 == 0 or not arith.is_discriminant(D):
        raise ValueError("D must be an odd discriminant")


def _require_size(name, N):
    if not 1 <= N <= N_CAP:
        raise ValueError(f"{name} must be in [1, {N_CAP}]")


def _multiplicative(primes, f, local):
    # f[m - 1] *= g(m) for m = 1..N, N = len(f), in place, for the
    # multiplicative g with g(p^l) = local(p, l) over primes, the primes up to
    # N. A prime p <= sqrt(N) multiplies its stride m = p, 2p, ... by a factor
    # list that holds g(p^l) where p^l || m; a larger p divides each of its
    # multiples once, so g(p) is the whole factor there
    N = len(f)
    for p in primes:
        v = local(p, 1)
        if p * p <= N:
            fac = [v] * (N // p)            # fac[j - 1] for m = j p
            q, l = p, 2
            while q * p <= N:               # p^l | m at every q-th entry, q = p^(l-1)
                fac[q - 1::q] = [local(p, l)] * (N // (q * p))
                q, l = q * p, l + 1
            f[p - 1::p] = map(mul, f[p - 1::p], fac)
        elif v != 1:
            for i in range(p - 1, N, p):
                f[i] *= v
    return f


def _local_A(D):
    # local(p, l) for _row_A (coeffs_A, shintani_Z): 4m has two more factors
    # of 2 than m
    def local(p, l):
        return arith._count_sqrt_pp(D, p, l + 2 if p == 2 else l)

    return local


def coeffs_A(D, N):
    """[A(D, 4m) for m = 1..N], 1 <= N <= N_CAP.

    A(D, a) is multiplicative in the modulus a, so A(D, 4m) is A(D, 2^(l+2))
    for 2^l || m times A(D, p^l) over the odd p^l || m; odd m carry A(D, 4).
    Built over the primes up to N.
    """
    _require_odd_disc(D)
    _require_size("N", N)
    return _row_A(arith.primes_upto(N), N, D)


def _row_A(primes, N, D):
    # [A(D, 4m) for m = 1..N], any integer D, primes the primes up to N: odd
    # m carry A(D, 4)
    row = [arith._count_sqrt_pp(D, 2, 2), 1] * (N // 2 + 1)
    del row[N:]
    return _multiplicative(primes, row, _local_A(D))


def _local_char(D, p):
    # (k, chi) with k = v_p(D), for chi_D(m^) a(D, m) = chi^l a(D, p^l) at
    # m = p^l: chi_D is completely multiplicative and m^ drops the primes of
    # d0, which are those of odd k, so chi = 1 there. For even k,
    # chi = chi_D(p) = (D p^-k / p): D = d0 f^2 with f odd, so D p^-k is d0
    # times a square prime to p, and D = d0 (mod 8) settles p = 2. D is never
    # factored.
    if D % p:
        return 0, arith.kronecker(D, p)
    k = arith.valuation(D, p)
    return k, 1 if k % 2 else arith.kronecker(D // p ** k, p)


def _weighted(p, l, k, chi):
    # chi^l a(D, p^l) for p^k || D; a(D, p^l) = 1 when p does not divide D
    return chi ** l * arith._a_pp(p, k, l) if k else chi ** l


def _chihat_a(D):
    # local(p, l) for the multiplicative chi_D(m^) a(D, m)
    def local(p, l):
        return _weighted(p, l, *_local_char(D, p))

    return local


def _local_rhs(D):
    # local(p, l) for coeffs_rhs over 2: zeta(s)/zeta(2s) has local factor
    # 1 + p^-s, so the value at p^l is g(p^l) + g(p^(l-1)) for the
    # character-weighted g(m) = chi_D(m^) a(D, m), and g(p^0) = g(1) = 1.
    # Both terms share one k and one chi; a(D, p^l) = 1 when p does not
    # divide D, so g(p^l) is chi^l there
    def local(p, l):
        k, chi = _local_char(D, p)
        if not k:
            return chi ** l + chi ** (l - 1)
        return _weighted(p, l, k, chi) + _weighted(p, l - 1, k, chi)

    return local


def coeffs_rhs(D, N):
    """Coefficients of 2 zeta(s)/zeta(2s) * sum chi_D(m^) a(D, m) m^-s,
    1 <= N <= N_CAP: twice an Euler product (see _local_rhs), built from
    prime-power values over the primes up to N.
    """
    _require_odd_disc(D)
    _require_size("N", N)
    return _multiplicative(arith.primes_upto(N), [2] * N, _local_rhs(D))


def verify_prop2(D, N):
    """coeffs_A(D, N) == coeffs_rhs(D, N), decided from the Euler factors,
    1 <= N <= N_CAP.

    At m = 1 the entries are A(D, 4) and 2. Past that both vectors are
    Euler products, so if they agree at 1 and at every prime power
    p^l <= N they agree at every m <= N, and the first m where they differ
    is 1 or a prime power. The failure names it with the two vector
    entries there; cases_run is N, every index decided. Only the primes
    up to N are walked, and no coefficient vector is built.
    """
    _require_size("N", N)
    _require_odd_disc(D)

    def check():
        a4 = arith._count_sqrt_pp(D, 2, 2)
        # the smallest differing m so far (N + 1 for none) and its two entries
        m, lhs, rhs = (1, a4, 2) if a4 != 2 else (N + 1, None, None)
        local_rhs = _local_rhs(D)
        for p in arith.primes_upto(N):
            if p >= m:
                break
            # odd m carry A(D, 4); 4m has two more factors of 2 than m
            carry, shift = (1, 2) if p == 2 else (a4, 0)
            pl, l = p, 1
            while pl < m:
                left = carry * arith._count_sqrt_pp(D, p, l + shift)
                right = 2 * local_rhs(p, l)
                if left != right:
                    m, lhs, rhs = pl, left, right
                pl, l = pl * p, l + 1
        return N, None if m > N else {
            "inputs": {"disc": D, "m": m}, "expected": lhs, "actual": rhs}

    return report("prop2", check)


# -- 2-adic lemma ------------------------------------------------------------

def verify_ptilde2(D, lmax):
    """Check the dyadic case tables by brute force, then the constant-2
    generating-function ratio symbolically (as rational functions in 2^-s).
    Requires 0 <= lmax <= LMAX_CAP.
    """
    _require_odd_disc(D)
    if not 0 <= lmax <= LMAX_CAP:
        raise ValueError(f"lmax must be in [0, {LMAX_CAP}]")
    rep = run("ptilde2", _ptilde2_cases(D, lmax))
    return {**rep, "ratio": 2 if rep["first_failure"] is None else None}


def _ptilde2_cases(D, lmax):
    from . import poly

    a4 = arith.count_sqrt_brute(D, 4)
    want_a4 = 2 if D % 8 in (1, 5) else 0
    yield None if a4 == want_a4 else {
        "inputs": {"disc": D, "modulus": 4}, "expected": want_a4, "actual": a4}
    tail = 4 if D % 8 == 1 else 0
    for l in range(1, lmax + 1):
        got = arith.count_sqrt_brute(D, 2 ** (l + 2))
        yield None if got == tail else {
            "inputs": {"disc": D, "modulus": 2 ** (l + 2)}, "expected": tail, "actual": got}

    # ratio as rational functions in T = 2^-s:
    #   lhs = a4 + tail*T/(1-T),  reference = (1-T^2)/(1-T) * 1/(1-chi*T)
    # constant-2 identity <=> lhs_num * ref_den == 2 * lhs_den * ref_num
    chi = arith.kronecker(D, 2)
    lhs_num = [a4, tail - a4]                    # a4(1-T) + tail*T
    lhs_den = [1, -1]                            # 1 - T
    ref_num = [1, 0, -1]                         # 1 - T^2
    ref_den = poly.mul([1, -1], [1, -chi])       # (1-T)(1-chi*T)
    left = poly.mul(lhs_num, ref_den)            # 4 coefficients, as right has
    right = [2 * v for v in poly.mul(lhs_den, ref_num)]
    yield None if left == right else {
        "inputs": {"disc": D}, "expected": "ratio identically 2",
        "actual": {"left": left, "right": right}}


# -- truncated double sums ---------------------------------------------------

class TruncatedDoubleSum(NamedTuple):
    s: complex
    w: complex
    amax: int
    dmax: int
    value: complex
    xi1: complex
    xi2: complex


def _complex_fsum(terms):
    # correctly rounded: math.fsum over the real and the imaginary parts
    try:
        out = complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))
    except ValueError:
        # fsum refuses an inf and a -inf term, which overflowing products make
        out = complex("nan")
    if not isfinite(out):
        raise OverflowError("the sum is not a finite float")
    return out


@contextmanager
def _float_sum(s, w):
    # a term or a sum outside the float range is an input error (exit 2)
    if not (isfinite(s) and isfinite(w)):
        raise ValueError("s and w must be finite")
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"the sum leaves the float range: {exc}") from None


def shintani_Z(s, w, amax, dmax):
    """Partial sum of Z(s, w) = xi1 + xi2 over a <= amax, d <= dmax
    (both cutoffs at least 1, amax * dmax <= SHINTANI_CAP)."""
    if amax < 1 or dmax < 1:
        raise ValueError("amax and dmax must be at least 1")
    if amax * dmax > SHINTANI_CAP:
        raise ValueError(f"amax * dmax must be at most {SHINTANI_CAP}")
    # fsum is correctly rounded, so the order of the terms does not matter. One
    # row a -> A(±d, 4a) per ±d, none at ±d = 2, 3 (mod 4), which is no square
    # mod 4; xi1 is summed before the terms of xi2 are built. d^-w is taken
    # once per row, the same float as once per term
    with _float_sum(s, w):
        primes = arith.primes_upto(amax)
        xi1, xi2 = (_complex_fsum([cnt * a ** (-s) * dw
                                   for d in range(1, dmax + 1) if sign * d % 4 < 2
                                   for dw in [d ** (-w)]
                                   for a, cnt in enumerate(_row_A(primes, amax, sign * d), 1)
                                   if cnt])
                    for sign in (1, -1))
        # fsum of two floats is their sum, checked to be finite
        return TruncatedDoubleSum(s, w, amax, dmax, _complex_fsum([xi1, xi2]), xi1, xi2)


def wmds_Z(s, w, mmax, Dset):
    """Partial sum of the quadratic double Dirichlet series over the
    explicit discriminant list Dset (nonempty) and m <= mmax, 1 <= mmax <= N_CAP."""
    _require_size("mmax", mmax)
    if not Dset:
        raise ValueError("Dset must not be empty")
    for D in Dset:
        _require_odd_disc(D)
    primes = arith.primes_upto(mmax)
    with _float_sum(s, w):
        return _complex_fsum([chi_a * m ** (-s) * abs(D) ** (-w) for D in Dset
                              for m, chi_a in enumerate(
                                  _multiplicative(primes, [1] * mmax, _chihat_a(D)), 1)
                              if chi_a])
