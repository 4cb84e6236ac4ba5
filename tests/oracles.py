"""Reference constructions the tests check the library against: the
slice matrices of a cube, projectivity read from the three associated
forms, the 4x4 determinant by the Leibniz formula, the stabilizer order
of a form, the reduced forms of a class group by a scan over every b, the
orbit count B(D, m, n) as a sum over divisors, truncated power series as
plain lists, and Prop. 2 by whole coefficient vectors.
The library itself needs none of them."""

from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt

from cubeforms import arith, cubes, qforms, series


def slices(A):
    """The three pairs (M_i, N_i) of opposite 2x2 faces."""
    out = []
    for mi, ni in cubes._SLICES:
        M = ((A[mi[0]], A[mi[1]]), (A[mi[2]], A[mi[3]]))
        N = ((A[ni[0]], A[ni[1]]), (A[ni[2]], A[ni[3]]))
        out.append((M, N))
    return tuple(out)


def is_projective(A):
    """True when all three associated forms are primitive."""
    return all(qforms.is_primitive(cubes.qform(A, i)) for i in (1, 2, 3))


def _perms4():
    out = []
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        out.append((perm, (-1) ** inversions))
    return out


_PERMS = _perms4()


def det4(M):
    total = 0
    for perm, sign in _PERMS:
        p = sign
        for i, j in enumerate(perm):
            p *= M[i][j]
        total += p
    return total


def stabilizer_order(Q):
    """Order of the SL2 stabilizer modulo +-1 (3 for disc -3, 2 for -4)."""
    D = qforms.disc(Q)
    if D == -3:
        return 3
    if D == -4:
        return 2
    return 1


def class_group_by_b_scan(D):
    """The reduced primitive forms of a negative discriminant D, in
    enumerate_class_group's order: a ascending, then b descending from a to
    -a + 1. It tests all 2a values of b against b^2 = D (mod 4a), where the
    library lists the roots of that congruence only."""
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(a, -a, -1):
            if (b * b - D) % (4 * a) == 0:
                c = (b * b - D) // (4 * a)
                if (a < c or a == c and b >= 0) and gcd(gcd(a, b), c) == 1:
                    out.append(qforms.Form(a, b, c))
    return out


def orbit_count_by_divisors(D, m, n):
    """B(D, m, n) as a Fraction: the sum over d | gcd(D1, m, n) of
    d A(D/d^2, 4m/d) A(D/d^2, 4n/d), over 4, for D = D0 D1^2 with D0
    squarefree. It factors D and sums over divisors, where count_orbits
    takes an Euler product over the primes of 4mn."""
    D1 = 1
    for p, e in arith.factorize(abs(D)).items():
        D1 *= p ** (e // 2)
    g = gcd(gcd(D1, m), n)
    total = sum(d * arith.count_sqrt_mod(D // (d * d), abs(4 * m // d))
                * arith.count_sqrt_mod(D // (d * d), abs(4 * n // d))
                for d in range(1, g + 1) if g % d == 0)
    return Fraction(total, 4)


# -- truncated power series: lists of the coefficients of q^0 .. q^order ----
# (the ring the local functions are defined in, written out with no call
# into cubeforms.poly, so that a local function checked against it is
# checked against code it does not share)

def one_minus(c, k, order):
    """1 - c q^k."""
    out = [Fraction(1)] + [Fraction(0)] * order
    if k <= order:
        out[k] -= c
    return out


def add(*terms):
    return [sum(cs, Fraction(0)) for cs in zip(*terms)]


def scale(c, s):
    return [c * x for x in s]


def shift(s, k):
    """q^k s, truncated to the length of s."""
    return ([Fraction(0)] * k + s)[:len(s)]


def _terms(s):
    return [(j, c) for j, c in enumerate(s) if c]


def mul(*factors):
    """The product, truncated to the length of the first factor."""
    out = factors[0]
    for f in factors[1:]:
        terms = _terms(f)
        out = [sum((out[i - j] * c for j, c in terms if j <= i), Fraction(0))
               for i in range(len(out))]
    return out


def inverse(s):
    """1/s for s[0] != 0, by the recurrence s_0 y_k = [k = 0] - sum_{j >= 1} s_j y_(k-j)."""
    tail = _terms(s)[1:]
    y = []
    for k in range(len(s)):
        y.append((Fraction(k == 0) - sum(c * y[k - j] for j, c in tail if j <= k)) / s[0])
    return y


# -- Prop. 2 by whole vectors --------------------------------------------------

def prop2_entrywise(D, N):
    """verify_prop2's report without elapsed_ms, from an entrywise comparison
    of the two whole coefficient vectors: the first differing index m, with
    the left entry expected and the right one actual."""
    lhs, rhs = series.coeffs_A(D, N), series.coeffs_rhs(D, N)
    m = next((m for m, (a, b) in enumerate(zip(lhs, rhs), 1) if a != b), None)
    failure = None if m is None else {
        "inputs": {"disc": D, "m": m}, "expected": lhs[m - 1], "actual": rhs[m - 1]}
    return {"suite": "prop2", "status": "pass" if failure is None else "fail",
            "cases_run": N, "first_failure": failure}
