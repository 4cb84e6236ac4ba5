"""Dense polynomials as coefficient lists, constant term first: exact
products, trimming, and expansion of a quotient as a truncated power series.
"""

from fractions import Fraction


def mul(p, q):
    """The product of two polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def trim(p):
    """p without trailing zero coefficients (the zero polynomial is [0])."""
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def expand(num, den, order):
    """Coefficients of q^0 .. q^order of the power series num/den, as
    Fractions. Requires den[0] != 0."""
    if den[0] == 0:
        raise ValueError("constant term of the denominator must be nonzero")
    c0 = Fraction(den[0])
    tail = [(j, d) for j, d in enumerate(den[1:order + 1], 1) if d]
    out = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j, d in tail:
            if j > k:
                break
            acc -= d * out[k - j]
        out.append(acc / c0)
    return out
