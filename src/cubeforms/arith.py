"""Exact integer arithmetic: quadratic congruence counts, Kronecker symbols,
double-Dirichlet-series coefficients, discriminant predicates, class numbers.

All functions are pure and operate on plain Python integers.
"""

from bisect import bisect_right
from itertools import compress
from math import gcd, isqrt

# no composite below MR_LIMIT passes all 13 bases (Sorenson and Webster, 2015);
# 12 bases pass 318665857834031151167461 = 399165290221 * 798330580441
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981

# factorize trial-divides up to here: about 0.06 s on a 2-core VM when nothing
# below it divides n
TRIAL_BOUND = 2 * 10 ** 6


def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= MR_LIMIT (about 3.3e24)."""
    if n < 2:
        return False
    if n >= MR_LIMIT:
        raise ValueError(f"primality is certified only below {MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Factor n >= 1 by trial division up to TRIAL_BOUND; returns
    {prime: exponent}. A cofactor above TRIAL_BOUND^2 must be a prime that
    is_prime certifies (below MR_LIMIT), else ValueError: a product of two
    primes above the bound is not factored."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= TRIAL_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    # every prime below f is divided out, so n < f^2 is 1 or a prime
    if f * f <= n and not (n < MR_LIMIT and is_prime(n)):
        raise ValueError(f"cannot factor: the cofactor {n} has no prime factor "
                         f"up to {TRIAL_BOUND} and is not a certified prime")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# the largest sieve built so far, (N, the primes up to N): rebound whole by
# primes_upto, never mutated, so a reader sees an old pair or a new one
_kept = (1, [])


def primes_upto(N):
    """The primes p <= N in increasing order, as a new list. The largest
    sieve built so far is kept, so any N up to it is cut from that list,
    and only a larger N sieves again."""
    global _kept
    top, primes = _kept
    if N > top:
        top, primes = _kept = N, _sieve(N)
    return primes[:bisect_right(primes, N)]


def _sieve(N):
    # the primes up to N >= 2: a sieve of Eratosthenes on a bytearray, one
    # byte per odd integer up to N. sieve[i] stands for 2i + 1; an odd p
    # crosses out its odd multiples from p^2 on, which are 2p apart, so p
    # indices apart
    size = (N + 1) // 2
    sieve = bytearray([1]) * size
    sieve[0] = 0
    for i in range(1, (isqrt(N) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return [2, *compress(range(1, N + 1, 2), sieve)]


def valuation(n, p):
    """Largest e with p^e | n (n != 0)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def squarefree_part(D):
    """D0 in the decomposition D = D0 * D1^2 with D0 squarefree (sign kept)."""
    if D == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if D < 0 else 1
    out = 1
    for p, e in factorize(abs(D)).items():
        if e % 2:
            out *= p
    return sign * out


def is_squarefree(n):
    return abs(squarefree_part(n)) == abs(n)


def is_discriminant(D):
    return D != 0 and D % 4 in (0, 1)


def is_fundamental(D):
    """Fundamental discriminant test; D = 1 is excluded by convention."""
    if D == 1 or not is_discriminant(D):
        return False
    if D % 4 == 1:
        return is_squarefree(D)
    k = D // 4
    return k % 4 in (2, 3) and is_squarefree(k)


def count_sqrt_brute(d, a):
    """Brute-force #{x mod a : x^2 = d (mod a)}; the independent oracle."""
    if a < 1:
        raise ValueError("modulus must be positive")
    d %= a
    return sum(1 for x in range(a) if (x * x - d) % a == 0)


def _count_unit_sqrt(d0, p, j):
    # solutions of x^2 = d0 (mod p^j) with p coprime to d0, j >= 1
    if p == 2:
        if j == 1:
            return 1
        if j == 2:
            return 2 if d0 % 4 == 1 else 0
        return 4 if d0 % 8 == 1 else 0
    return 2 if pow(d0 % p, (p - 1) // 2, p) == 1 else 0


def _count_sqrt_pp(d, p, l):
    # exact count modulo p^l, any prime p, any integer d
    if l == 0:
        return 1
    d %= p ** l
    if d % p:
        return _count_unit_sqrt(d, p, l)
    if d == 0:
        return p ** (l // 2)
    k = valuation(d, p)
    if k % 2:
        return 0
    return p ** (k // 2) * _count_unit_sqrt(d // p ** k, p, l - k)


def count_sqrt_mod(d, a):
    """A(d, a) = #{x mod a : x^2 = d (mod a)}, by CRT over prime powers."""
    if a < 1:
        raise ValueError("modulus must be positive")
    out = 1
    for p, l in factorize(a).items():
        out *= _count_sqrt_pp(d, p, l)
        if out == 0:
            return 0
    return out


def count_sqrt_prime_power(d, p, l):
    """A(d, p^l) for odd prime p via the closed-form case analysis.

    Writing d = d0 * p^k with p coprime to d0: p^floor(l/2) when k >= l,
    zero when k < l is odd, and 2 p^(k/2) or 0 (by the residue character
    of d0 mod p) when k < l is even.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if l < 0:
        raise ValueError("exponent must be non-negative")
    return _count_sqrt_pp(d, p, l)


def kronecker(D, n):
    """Kronecker symbol (D/n), by binary reciprocity (Cohen, Algorithm 1.4.10)."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    if not (D | n) & 1:
        return 0
    result = 1
    if n < 0:
        n = -n
        if D < 0:
            result = -1
    # each run of v twos shifts out at once; (D/2)^v is -1 when v is odd
    # and D = 3, 5 (mod 8)
    v = (n & -n).bit_length() - 1
    if v:
        n >>= v
        if v & 1 and D & 7 in (3, 5):
            result = -result
    # now n odd positive: Jacobi symbol with reciprocity, which flips the
    # sign when D = n = 3 (mod 4)
    D %= n
    while D:
        v = (D & -D).bit_length() - 1
        if v:
            D >>= v
            if v & 1 and n & 7 in (3, 5):
                result = -result
        if D & n & 2:
            result = -result
        D, n = n % D, D
    return result if n == 1 else 0


def field_character(D, n):
    """chi_D(n): the Kronecker symbol of the fundamental discriminant of
    Q(sqrt(D)), which is d0 or 4 d0 for the squarefree part d0 of D."""
    d0 = squarefree_part(D)
    return kronecker(d0 if d0 % 4 == 1 else 4 * d0, n)


def _a_pp(p, k, l):
    # prime-power coefficient: min(p^(k/2), p^(l/2)) for even min(k, l), else 0
    m = min(k, l)
    if m % 2:
        return 0
    return p ** (m // 2)


def wmds_coeff(D, m):
    """a(D, m): product of the prime-power coefficients over p^k||D, p^l||m."""
    if m < 1:
        raise ValueError("m must be positive")
    if not is_discriminant(D):
        raise ValueError("D must be a discriminant")
    out = 1
    for p, l in factorize(m).items():
        out *= _a_pp(p, valuation(D, p), l)
        if out == 0:
            return 0
    return out


def m_hat(D, m):
    """Largest divisor of m coprime to the squarefree part of D."""
    if m < 1:
        raise ValueError("m must be positive")
    return coprime_part(m, abs(squarefree_part(D)))


def coprime_part(n, k):
    """Largest divisor of n >= 1 that is coprime to k."""
    g = gcd(n, k)
    while g > 1:
        n //= g
        g = gcd(n, k)
    return n


def class_number(D):
    """h(D) for a negative fundamental discriminant, by form enumeration."""
    from . import qforms

    return len(qforms.enumerate_class_group(D))
