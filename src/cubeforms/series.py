"""Dirichlet-series layer: coefficient vectors for both sides of the
zeta(s)/zeta(2s) identity, its exact coefficient-wise verification, the
2-adic generating-function lemma, and truncated double-sum evaluation of
the Shintani and double Dirichlet series.
"""

import time
from math import fsum
from typing import NamedTuple

from . import arith, poly
from .report import report

# verify_ptilde2 brute-forces modulo 2^(lmax + 2), so its time doubles per step
LMAX_CAP = 20


def _require_odd_disc(D):
    if D % 2 == 0 or not arith.is_discriminant(D):
        raise ValueError("D must be an odd discriminant")


def coeffs_A(D, N):
    """[A(D, 4m) for m = 1..N]."""
    _require_odd_disc(D)
    return [arith.count_sqrt_mod(D, 4 * m) for m in range(1, N + 1)]


def _chihat_a(D, N):
    # chi_D(m^) a(D, m) for m = 1..N
    return [arith.field_character(D, arith.m_hat(D, m)) * arith.wmds_coeff(D, m)
            for m in range(1, N + 1)]


def coeffs_rhs(D, N):
    """Coefficients of 2 zeta(s)/zeta(2s) * sum chi_D(m^) a(D, m) m^-s.

    Dirichlet convolution of the squarefree indicator with the
    character-weighted multiplicative coefficients, times 2.
    """
    _require_odd_disc(D)
    chihat_a = _chihat_a(D, N)
    out = [0] * N
    for d in range(1, N + 1):
        if not arith.is_squarefree(d):
            continue
        for m in range(d, N + 1, d):
            out[m - 1] += chihat_a[m // d - 1]
    return [2 * v for v in out]


def verify_prop2(D, N):
    """Entrywise comparison of the two coefficient vectors up to N >= 1."""
    if N < 1:
        raise ValueError("N must be at least 1")
    t0 = time.monotonic()
    lhs = coeffs_A(D, N)
    rhs = coeffs_rhs(D, N)
    failure = None
    for m in range(1, N + 1):
        if lhs[m - 1] != rhs[m - 1]:
            failure = {
                "inputs": {"disc": D, "m": m},
                "expected": lhs[m - 1],
                "actual": rhs[m - 1],
            }
            break
    return report("prop2", t0, N, failure)


# -- 2-adic lemma ------------------------------------------------------------

def verify_ptilde2(D, lmax):
    """Check the dyadic case tables by brute force, then the constant-2
    generating-function ratio symbolically (as rational functions in 2^-s).
    Requires 0 <= lmax <= LMAX_CAP.
    """
    t0 = time.monotonic()
    _require_odd_disc(D)
    if not 0 <= lmax <= LMAX_CAP:
        raise ValueError(f"lmax must be in [0, {LMAX_CAP}]")
    failure = None
    cases = 0

    a4 = arith.count_sqrt_brute(D, 4)
    want_a4 = 2 if D % 8 in (1, 5) else 0
    cases += 1
    if a4 != want_a4:
        failure = {"inputs": {"disc": D, "modulus": 4},
                   "expected": want_a4, "actual": a4}
    tail = 4 if D % 8 == 1 else 0
    for l in range(1, lmax + 1):
        cases += 1
        got = arith.count_sqrt_brute(D, 2 ** (l + 2))
        if got != tail and failure is None:
            failure = {"inputs": {"disc": D, "modulus": 2 ** (l + 2)},
                       "expected": tail, "actual": got}

    # ratio as rational functions in T = 2^-s:
    #   lhs = a4 + tail*T/(1-T),  reference = (1-T^2)/(1-T) * 1/(1-chi*T)
    # constant-2 identity <=> lhs_num * ref_den == 2 * lhs_den * ref_num
    chi = arith.kronecker(D, 2)
    lhs_num = poly.trim([a4, tail - a4])         # a4(1-T) + tail*T
    lhs_den = [1, -1]                            # 1 - T
    ref_num = [1, 0, -1]                         # 1 - T^2
    ref_den = poly.mul([1, -1], [1, -chi])       # (1-T)(1-chi*T)
    left = poly.trim(poly.mul(lhs_num, ref_den))
    right = poly.trim([2 * v for v in poly.mul(lhs_den, ref_num)])
    cases += 1
    if left != right and failure is None:
        failure = {"inputs": {"disc": D},
                   "expected": "ratio identically 2",
                   "actual": {"left": left, "right": right}}
    return report("ptilde2", t0, cases, failure,
                  ratio=2 if failure is None else None)


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
    return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))


def shintani_Z(s, w, amax, dmax):
    """Partial sum of Z(s, w) = xi1 + xi2 over a <= amax, d <= dmax
    (both cutoffs at least 1)."""
    if amax < 1 or dmax < 1:
        raise ValueError("amax and dmax must be at least 1")
    xi = []
    for sign in (1, -1):
        terms = []
        for a in range(1, amax + 1):
            for d in range(1, dmax + 1):
                cnt = arith.count_sqrt_mod(sign * d, 4 * a)
                if cnt:
                    terms.append(cnt * a ** (-s) * d ** (-w))
        xi.append(_complex_fsum(terms))
    return TruncatedDoubleSum(s, w, amax, dmax, xi[0] + xi[1], xi[0], xi[1])


def wmds_Z(s, w, mmax, Dset):
    """Partial sum of the quadratic double Dirichlet series over the
    explicit discriminant list Dset and m <= mmax (mmax at least 1)."""
    if mmax < 1:
        raise ValueError("mmax must be at least 1")
    terms = []
    for D in Dset:
        _require_odd_disc(D)
        for m in range(1, mmax + 1):
            a = arith.wmds_coeff(D, m)
            if a == 0:
                continue
            chi = arith.field_character(D, arith.m_hat(D, m))
            if chi == 0:
                continue
            terms.append(chi * a * m ** (-s) * abs(D) ** (-w))
    return _complex_fsum(terms)
