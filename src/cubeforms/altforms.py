"""Pairs of 4x4 alternating forms: Pfaffian (normalized so that the
standard symplectic matrix has Pfaffian +1), associated quadratic form,
fusion from cubes, the twisted SL2 x SL4 action and relative invariants.
"""

from typing import NamedTuple

from . import qforms
from .qforms import Form
from .limits import CASES_CAP
from .report import run


class AltFormPair(NamedTuple):
    first: tuple   # 4x4 alternating matrix, rows as tuples
    second: tuple


def alt_matrix(r, a, b, c, d, l):
    """Alternating matrix with upper triangle (r, a, b; c, d; l)."""
    return ((0, r, a, b),
            (-r, 0, c, d),
            (-a, -c, 0, l),
            (-b, -d, -l, 0))


def pair_from_coeffs(r1, a, b, c, d, l1, r2, e, f, g, h, l2):
    return AltFormPair(alt_matrix(r1, a, b, c, d, l1),
                       alt_matrix(r2, e, f, g, h, l2))


def is_alternating(M):
    """M = -M^t: zero diagonal, and each entry below it the negative of its
    mirror above."""
    return (M[0][0] == M[1][1] == M[2][2] == M[3][3] == 0
            and M[0][1] == -M[1][0] and M[0][2] == -M[2][0]
            and M[0][3] == -M[3][0] and M[1][2] == -M[2][1]
            and M[1][3] == -M[3][1] and M[2][3] == -M[3][2])


def pfaffian(M):
    """Pfaffian with Pfaff([[0, I], [-I, 0]]) = 1; in the coordinate
    pattern (r, a, b, c, d, l) this is ad - bc - rl."""
    if not is_alternating(M):
        raise ValueError("matrix must be alternating")
    return M[0][2] * M[1][3] - M[0][3] * M[1][2] - M[0][1] * M[2][3]


def _combine(M, N, cm, cn):
    return tuple(tuple(cm * M[i][j] + cn * N[i][j] for j in range(4))
                 for i in range(4))


def qform_F(F):
    """Q_F(u, v) = -Pfaff(M u - N v) = -Pfaff(M) u^2 + B(M, N) uv - Pfaff(N) v^2,
    where B is the polarization of the Pfaffian."""
    M, N = F
    # pfaffian checks that M and N are alternating, hence M u - N v is too
    ca, cc = -pfaffian(M), -pfaffian(N)
    cb = (M[0][2] * N[1][3] + N[0][2] * M[1][3] - M[0][3] * N[1][2]
          - N[0][3] * M[1][2] - M[0][1] * N[2][3] - N[0][1] * M[2][3])
    return Form(ca, cb, cc)


def disc(F):
    return qforms.disc(qform_F(F))


def fuse(A):
    """Fusion of a cube into a pair of alternating forms; Q_F = Q_1."""
    a, b, c, d, e, f, g, h = A
    return pair_from_coeffs(0, a, b, c, d, 0, 0, e, f, g, h, 0)


def _mat4_mul(X, Y):
    return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(4))
                       for j in range(4)) for i in range(4))


def _transpose(X):
    return tuple(tuple(X[j][i] for j in range(4)) for i in range(4))


def _congruence(g, M):
    return _mat4_mul(_mat4_mul(g, M), _transpose(g))


def act_24(g1, g, F):
    """(g1, g).(M, N) = (s gMg^t + t gNg^t, u gMg^t + v gNg^t)."""
    (s, t), (u, v) = g1
    M = _congruence(g, F.first)
    N = _congruence(g, F.second)
    return AltFormPair(_combine(M, N, s, t), _combine(M, N, u, v))


def invariants_W(F):
    """(disc, P0, P1) = (disc Q_F, r2, -Pfaff(M)) for F with r1 = 0."""
    if F.first[0][1] != 0:
        raise ValueError("F must lie in W (vanishing r1 entry)")
    return disc(F), F.second[0][1], -pfaffian(F.first)


def verify_fusion(seed=0, cases=10000):
    """Seeded random check that Q_fuse(A) = Q_1(A) with disc preserved, on
    `cases` random cubes with entries in [-50, 50], cases <= CASES_CAP."""
    import random

    from . import cubes

    if cases > CASES_CAP:
        raise ValueError(f"cases must be at most {CASES_CAP}")
    rng = random.Random(seed)

    def case(i):
        A = cubes.Cube(*(rng.randint(-50, 50) for _ in range(8)))
        Q, Q1, D = qform_F(fuse(A)), cubes.qform(A, 1), cubes.disc(A)
        if Q != Q1 or qforms.disc(Q) != D:
            return {
                "inputs": {"cube": list(A), "case": i},
                "expected": {"Q": list(Q1), "disc": D},
                "actual": {"Q": list(Q), "disc": qforms.disc(Q)},
            }

    return run("fusion", map(case, range(cases)))
