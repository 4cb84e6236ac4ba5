"""Binary quadratic forms au^2 + buv + cv^2: SL2 action, reduction of
definite forms, Gauss composition, class-group enumeration.
"""

from math import gcd, isqrt
from typing import NamedTuple

from . import arith
from .limits import DISC_CAP


class Form(NamedTuple):
    a: int
    b: int
    c: int


def disc(Q):
    a, b, c = Q
    return b * b - 4 * a * c


def is_primitive(Q):
    return gcd(gcd(Q[0], Q[1]), Q[2]) == 1


def evaluate(Q, u, v):
    a, b, c = Q
    return a * u * u + b * u * v + c * v * v


def act(g, Q):
    """Substitution action: (g.Q)(u, v) = Q(g11 u + g21 v, g12 u + g22 v)."""
    (g11, g12), (g21, g22) = g
    if g11 * g22 - g12 * g21 != 1:
        raise ValueError("matrix must have determinant 1")
    a = evaluate(Q, g11, g12)
    c = evaluate(Q, g21, g22)
    b = evaluate(Q, g11 + g21, g12 + g22) - a - c
    return Form(a, b, c)


def reduce(Q):
    """The unique reduced representative of a positive-definite form."""
    a, b, c = Q
    D = disc(Q)
    if D >= 0:
        raise ValueError("only definite forms (negative discriminant)")
    if a <= 0:
        raise ValueError("leading coefficient must be positive")
    while True:
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        # translate b into (-a, a]
        b2 = b % (2 * a)
        if b2 > a:
            b2 -= 2 * a
        if b2 != b:
            b, c = b2, (b2 * b2 - D) // (4 * a)
            continue
        # b in (-a, a], and b >= 0 if a = c: reduced
        return Form(a, b, c)


def principal_form(D):
    if not arith.is_discriminant(D):
        raise ValueError("not a discriminant")
    if D % 4 == 1:
        return Form(1, 1, (1 - D) // 4)
    return Form(1, 0, -D // 4)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(Q1, Q2):
    """Gauss composition of primitive definite forms of equal discriminant.

    Dirichlet composition (Cohen, Alg. 5.4.7): with s = (b1 + b2)/2 and
    e = gcd(a1, a2, s) = u a1 + v a2 + w s, the product is
    (a1 a2/e^2, B, C) with B = b2 + 2 (a2/e)(v (s - b2) - w c2) mod 2A.
    """
    D = disc(Q1)
    if disc(Q2) != D:
        raise ValueError("discriminants must match")
    if not (is_primitive(Q1) and is_primitive(Q2)):
        raise ValueError("forms must be primitive")
    a1, b1, _ = reduce(Form(*Q1))
    a2, b2, c2 = reduce(Form(*Q2))
    s = (b1 + b2) // 2  # b1, b2 share the parity of D
    d, _, v = _xgcd(a1, a2)
    # e < 0 can occur when s < 0; A and B are unchanged if e, v, w all flip sign
    e, x, w = _xgcd(d, s)
    v *= x
    A = a1 * a2 // (e * e)
    B = (b2 + 2 * (a2 // e) * (v * (s - b2) - w * c2)) % (2 * A)
    C = (B * B - D) // (4 * A)
    return reduce(Form(A, B, C))


def solutions_in_window(D, m):
    """The b of the forms (m, b, .) of discriminant D, one per class mod 2|m|:
    all x in [0, 2|m| - 1] with x^2 = D (mod 4m); [] for m = 0."""
    if m == 0:
        return []
    M = 4 * abs(m)
    r = D % M
    # x^2 = D (mod 4) forces x = D (mod 2)
    return [x for x in range(D % 2, M // 2, 2) if x * x % M == r]


def enumerate_class_group(D):
    """The reduced primitive forms of fundamental D < 0, |D| <= DISC_CAP."""
    if D >= 0:
        raise ValueError("only negative discriminants")
    if -D > DISC_CAP:
        raise ValueError(f"|D| must be at most DISC_CAP = {DISC_CAP}")
    if not arith.is_fundamental(D):
        raise ValueError("only fundamental discriminants")
    out = []
    for a in range(1, isqrt(-D // 3) + 1):
        # b in (-a, a] descending, positive b before its negative (conventional
        # listing); reduced means a < c, or a = c and b >= 0
        for b in sorted((x - 2 * a if x > a else x for x in solutions_in_window(D, a)),
                        reverse=True):
            c = (b * b - D) // (4 * a)
            if (a < c or a == c and b >= 0) and gcd(gcd(a, b), c) == 1:
                out.append(Form(a, b, c))
    return out
