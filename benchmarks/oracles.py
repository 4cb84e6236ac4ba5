"""Independent reference computations used to check the library's outputs.

Nothing here imports cubeforms: each function is written from the
definitions, so a bug in the library cannot also hide in its check.
"""

import hashlib
from fractions import Fraction
from math import gcd, isqrt


def is_squarefree(n):
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def omega(n):
    """Number of distinct prime factors of |n|."""
    n, k, p = abs(n), 0, 2
    while p * p <= n:
        if n % p == 0:
            k += 1
            while n % p == 0:
                n //= p
        p += 1
    return k + (n > 1)


def is_odd_fundamental(D):
    """D = 1 (mod 4), D != 1 and squarefree: an odd fundamental discriminant."""
    return D % 4 == 1 and D != 1 and is_squarefree(D)


def sqrt_count(d, a):
    """#{x mod a : x^2 = d (mod a)} by enumeration."""
    return sum(1 for x in range(a) if (x * x - d) % a == 0)


def window_solutions(D, m):
    """x in [0, 2|m| - 1] with x^2 = D (mod 4m)."""
    return [x for x in range(2 * abs(m)) if (x * x - D) % (4 * m) == 0]


def class_number(D):
    """Number of reduced primitive forms (a, b, c) with b^2 - 4ac = D < 0."""
    h = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and a == c) or gcd(gcd(a, b), c) != 1:
                continue
            h += 1
    return h


def _face_form(M, N):
    # -det(M u - N v) expanded as (u^2, uv, v^2) coefficients
    (m11, m12), (m21, m22) = M
    (n11, n12), (n21, n22) = N
    return (-(m11 * m22 - m12 * m21),
            m11 * n22 + n11 * m22 - m12 * n21 - n12 * m21,
            -(n11 * n22 - n12 * n21))


def cube_forms(A):
    """(Q1, Q2, Q3) of the cube (a, b, c, d, e, f, g, h), front face
    [[a, b], [c, d]], back face [[e, f], [g, h]]."""
    a, b, c, d, e, f, g, h = A
    return (_face_form(((a, b), (c, d)), ((e, f), (g, h))),
            _face_form(((a, e), (c, g)), ((b, f), (d, h))),
            _face_form(((a, e), (b, f)), ((c, g), (d, h))))


def form_disc(Q):
    return Q[1] * Q[1] - 4 * Q[0] * Q[2]


def cube_invariants(A):
    """(D, m, n, x, y) with x, y reduced into their translation windows,
    or None when D, m or n vanishes."""
    Q1, Q2, _ = cube_forms(A)
    D, m, n = form_disc(Q1), Q1[0], Q2[0]
    if not (D and m and n):
        return None
    return D, m, n, Q1[1] % (2 * abs(m)), Q2[1] % (2 * abs(n))


def cube_error(A, D, m, n, x, y):
    """None when A has disc D, Q1 = (m, x, s) and Q2 = (n, y, t); else why not."""
    Q1, Q2, Q3 = cube_forms(A)
    if not form_disc(Q1) == form_disc(Q2) == form_disc(Q3) == D:
        return f"disc of {list(A)} is not {D}"
    if Q1 != (m, x, (x * x - D) // (4 * m)):
        return f"Q1 of {list(A)} is {Q1}, not ({m}, {x}, *)"
    if Q2 != (n, y, (y * y - D) // (4 * n)):
        return f"Q2 of {list(A)} is {Q2}, not ({n}, {y}, *)"
    return None


def json_fraction(q):
    """A Fraction as the CLI renders it: an int, or the string 'p/q'."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def digest(values):
    """Short stable digest of a sequence of ints or Fractions."""
    text = ",".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
