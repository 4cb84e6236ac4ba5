"""2x2x2 integer cubes: slicings, associated quadratic forms, discriminant,
the triple SL2 action, Borel relative invariants and characters, the
constructive existence lemma, orbit counting and the composition-law check.

A cube (a, b, c, d, e, f, g, h) has front face [[a, b], [c, d]] and back
face [[e, f], [g, h]].
"""

from math import gcd
from typing import NamedTuple

from . import arith, qforms
from .qforms import Form, solutions_in_window
from .limits import CASES_CAP, CLASS_CAP, MN_CAP
from .report import run


class Cube(NamedTuple):
    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    g: object
    h: object


class CubeInvariants(NamedTuple):
    D: int
    m: int
    n: int
    x: int
    y: int


class BorelElement(NamedTuple):
    b1: tuple  # lower-triangular 2x2, rows ((r1, 0), (u1, s1))
    b2: tuple  # lower-triangular 2x2
    g3: tuple  # invertible 2x2


ZERO = Cube(0, 0, 0, 0, 0, 0, 0, 0)

# entry indices of (M, N) for each of the three slicings
_SLICES = (
    ((0, 1, 2, 3), (4, 5, 6, 7)),
    ((0, 4, 2, 6), (1, 5, 3, 7)),
    ((0, 4, 1, 5), (2, 6, 3, 7)),
)


def _det2(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def qform(A, i):
    """Associated form Q_i(u, v) = -det(M_i u - N_i v), expanded in the
    entries m_k of M_i and n_k of N_i (row-major)."""
    (p0, p1, p2, p3), (q0, q1, q2, q3) = _SLICES[i - 1]
    m0, m1, m2, m3 = A[p0], A[p1], A[p2], A[p3]
    n0, n1, n2, n3 = A[q0], A[q1], A[q2], A[q3]
    return Form(m1 * m2 - m0 * m3,
                m0 * n3 + m3 * n0 - m1 * n2 - m2 * n1,
                n1 * n2 - n0 * n3)


def disc(A):
    a, b, c, d, e, f, g, h = A
    return (-a * h + b * g + c * f - d * e) ** 2 - 4 * (a * d - b * c) * (e * h - f * g)


def _act_slots(A, gs):
    # the i-th of the three matrices gs acts on the i-th slicing, by row
    # combination of the stacked pair (M_i; N_i)
    vals = list(A)
    for ((g11, g12), (g21, g22)), (mi, ni) in zip(gs, _SLICES):
        for pm, pn in zip(mi, ni):
            m, n = vals[pm], vals[pn]
            vals[pm] = g11 * m + g12 * n
            vals[pn] = g21 * m + g22 * n
    return Cube(*vals)


def act(g1, g2, g3, A):
    """Triple action: g_i transforms the i-th slicing; the slots commute."""
    for g in (g1, g2, g3):
        if _det2(g) != 1:
            raise ValueError("slot matrices must have determinant 1")
    return _act_slots(A, (g1, g2, g3))


def borel_invariants(A):
    """(D, m, n) = (disc(A), Q_1(1, 0), Q_2(1, 0))."""
    a, b, c, d, e, f, g, h = A
    return disc(A), -(a * d - b * c), -(a * g - c * e)


def characters(g):
    """(chi1, chi2, chi3) of a Borel element."""
    d1, d2, d3 = _det2(g.b1), _det2(g.b2), _det2(g.g3)
    r1 = g.b1[0][0]
    r2 = g.b2[0][0]
    chi1 = (d1 * d2 * d3) ** 2
    chi2 = r1 * r1 * d2 * d3
    chi3 = d1 * r2 * r2 * d3
    return chi1, chi2, chi3


def borel_act(g, A):
    """Rational Borel-triple action; D, m, n transform by the characters."""
    if g.b1[0][1] != 0 or g.b2[0][1] != 0:
        raise ValueError("b1, b2 must be lower triangular")
    for M in (g.b1, g.b2, g.g3):
        if _det2(M) == 0:
            raise ValueError("singular slot matrix")
    return _act_slots(A, g)


def construct_cube(D, m, n, x, y):
    """Build a cube with disc D, Q_1 = (m, x, s), Q_2 = (n, y, t), a = 0.

    Follows the constructive proof: c = |gcd(m, n, (x+y)/2)|, b = m/c,
    e = n/c, f = -(x+y)/(2c), then h by CRT so that f | s + e h and
    f | t + b h, finally g = (s + e h)/f and d = (t + b h)/f.
    """
    _check_mn(m, n)
    if not 0 <= x <= 2 * abs(m) - 1:
        raise ValueError("x out of range [0, 2|m| - 1]")
    if not 0 <= y <= 2 * abs(n) - 1:
        raise ValueError("y out of range [0, 2|n| - 1]")
    if (x * x - D) % (4 * m):
        raise ValueError("congruence x^2 = D (mod 4m) fails")
    if (y * y - D) % (4 * n):
        raise ValueError("congruence y^2 = D (mod 4n) fails")
    s = (x * x - D) // (4 * m)
    t = (y * y - D) // (4 * n)
    half = (x + y) // 2
    c = abs(gcd(gcd(m, n), half))
    b = m // c
    e = n // c
    f = -(half // c)
    if f == 0:
        # only x = y = 0; then b s = e t with gcd(b, e) = 1, so e | s and
        # b h = -t for h = -s/e: validated input always meets this
        h, r = divmod(-s, e)
        _postcondition(r == 0 and b * h == -t, "e | s and b h = -t")
        d = g = 0
    else:
        # f = f1 f2 with f1 the largest divisor of |f| prime to e; e is a
        # unit mod f1 and b mod f2, since gcd(b, e, f) = 1
        f1 = arith.coprime_part(abs(f), e)
        f2 = abs(f) // f1
        h1 = -s * pow(e, -1, f1) % f1
        h2 = -t * pow(b, -1, f2) % f2
        h = h1 + f1 * ((h2 - h1) * pow(f1, -1, f2) % f2)
        g = (s + e * h) // f
        d = (t + b * h) // f
        _postcondition((s + e * h) % f == 0 and (t + b * h) % f == 0,
                       "f divides s + e h and t + b h")
    A = Cube(0, b, c, d, e, f, g, h)
    _postcondition(disc(A) == D, "disc(A) = D")
    _postcondition(qform(A, 1) == (m, x, s), "Q_1 = (m, x, s)")
    _postcondition(qform(A, 2) == (n, y, t), "Q_2 = (n, y, t)")
    return A


def _check_mn(m, n):
    if m == 0 or n == 0:
        raise ValueError("m and n must be nonzero")
    if abs(m) > MN_CAP or abs(n) > MN_CAP:
        raise ValueError(f"|m| and |n| must be at most {MN_CAP}")


def _postcondition(ok, what):
    # raised, not asserted: python -O strips assert statements
    if not ok:
        raise RuntimeError(f"construct_cube postcondition failed: {what}")


def invariant_tuple(A):
    """(D, m, n, x, y) with x, y normalized into their translation windows."""
    D, m, n = borel_invariants(A)
    if D == 0 or m == 0 or n == 0:
        raise ValueError("degenerate cube (vanishing invariant)")
    x = qform(A, 1).b % (2 * abs(m))
    y = qform(A, 2).b % (2 * abs(n))
    return CubeInvariants(D, m, n, x, y)


def count_orbits(D, m, n):
    """B(D, m, n), the number of Borel-triple integral orbits, as an int.

    B is a quarter of the sum over d | gcd(m, n) with d^2 | D of
    d A(D/d^2, 4m/d) A(D/d^2, 4n/d). That sum is a multiple of 4: every
    term at p = 2 holds two counts A(x, 2^l) with l >= 2, and such a count
    is even, since x -> -x pairs the roots and its two fixed points 0 and
    2^(l-1) are roots together or not at all. RuntimeError if 4 does not
    divide it.
    """
    _check_mn(m, n)
    if not arith.is_discriminant(D):
        raise ValueError("D must be a discriminant")
    # the sum over d | gcd(m, n) with d^2 | D is a product over p | 2mn of
    # local sums over p^k || d, since A(x u^2, p^l) = A(x, p^l) for a unit u;
    # the test p^2k | D never factors D
    fm = arith.factorize(abs(4 * m))
    fn = arith.factorize(abs(4 * n))
    sqrt_pp = arith._count_sqrt_pp
    total = 1
    for p, i in fm.items():
        j = fn.get(p, 0)
        local = sqrt_pp(D, p, i) * sqrt_pp(D, p, j)
        for k in range(1, min(i, j) - 2 * (p == 2) + 1):
            q = p ** k
            if D % (q * q):
                break
            x = D // (q * q)
            local += q * sqrt_pp(x, p, i - k) * sqrt_pp(x, p, j - k)
        if local == 0:
            return 0
        total *= local
    # a prime of 4n that 4m lacks has the one term k = 0, A(D, p^j)
    for p, j in fn.items():
        if p not in fm:
            local = sqrt_pp(D, p, j)
            if local == 0:
                return 0
            total *= local
    # raised, not asserted: python -O strips assert statements
    if total % 4:
        raise RuntimeError(f"count_orbits: 4 does not divide the local product {total}")
    return total // 4


def random_borel_element(rng):
    """Random invertible Borel element, entries p/q with |p| <= 9, 1 <= q <= 9."""
    # imported here, so that only the Borel suite loads fractions
    from fractions import Fraction

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        r1, r2 = entry(), entry()
        s1, s2 = entry(), entry()
        u1, u2 = entry(), entry()
        g3 = ((entry(), entry()), (entry(), entry()))
        if r1 * s1 != 0 and r2 * s2 != 0 and _det2(g3) != 0:
            return BorelElement(((r1, 0), (u1, s1)), ((r2, 0), (u2, s2)), g3)


def verify_characters(seed=0, cases=10000):
    """Seeded random check that D, m, n scale by chi1, chi2, chi3 on
    `cases` random cubes with entries in [-9, 9], cases <= CASES_CAP."""
    import random

    if cases > CASES_CAP:
        raise ValueError(f"cases must be at most {CASES_CAP}")
    rng = random.Random(seed)

    def case(i):
        A = Cube(*(rng.randint(-9, 9) for _ in range(8)))
        g = random_borel_element(rng)
        chi1, chi2, chi3 = characters(g)
        D0, m0, n0 = borel_invariants(A)
        D1, m1, n1 = borel_invariants(borel_act(g, A))
        if (D1, m1, n1) != (chi1 * D0, chi2 * m0, chi3 * n0):
            return {
                "inputs": {"cube": list(A), "case": i},
                "expected": [str(chi1 * D0), str(chi2 * m0), str(chi3 * n0)],
                "actual": [str(D1), str(m1), str(n1)],
            }

    return run("characters", map(case, range(cases)))


def verify_composition_law(D):
    """Check the cube composition law at discriminant D < 0 odd fundamental
    with class number at most CLASS_CAP: the cube the constructive lemma
    builds for each pair of form classes maps to that pair, with
    [Q1][Q2][Q3] principal, so [A] -> ([Q1], [Q2]) is a bijection."""
    if not (D < 0 and D % 2):
        raise ValueError("D must be a negative odd fundamental discriminant")
    # checks DISC_CAP before is_fundamental, which factors D by trial division
    classes = qforms.enumerate_class_group(D)
    h = len(classes)
    if h > CLASS_CAP:
        raise ValueError(f"class number {h} is above {CLASS_CAP}: "
                         "the suite would build h^2 cubes")
    one = qforms.principal_form(D)

    def case(Q1, Q2):
        A = construct_cube(D, Q1.a, Q2.a, Q1.b % (2 * Q1.a), Q2.b % (2 * Q2.a))
        forms = [qform(A, i) for i in (1, 2, 3)]
        r1, r2, r3 = (qforms.reduce(Q) for Q in forms)
        if not (all(qforms.is_primitive(Q) for Q in forms)
                and r1 == Q1
                and r2 == Q2
                and qforms.compose(qforms.compose(r1, r2), r3) == one):
            return {
                "inputs": {"disc": D, "class1": list(Q1), "class2": list(Q2)},
                "expected": "projective cube with [Q1][Q2][Q3] principal",
                "actual": {"Q1": list(r1), "Q2": list(r2), "Q3": list(r3)},
            }

    rep = run("composition", (case(Q1, Q2) for Q1 in classes for Q2 in classes),
              disc=D, class_number=h)
    # the cases that passed, h^2 on a pass
    return {**rep, "cube_classes": rep["cases_run"] - (rep["first_failure"] is not None)}
