"""Reference constructions the tests check the library against: the
slice matrices of a cube, projectivity read from the three associated
forms, and the 4x4 determinant by the Leibniz formula. The library itself
needs none of them."""

from itertools import permutations

from cubeforms import cubes, qforms


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
