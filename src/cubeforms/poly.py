"""Dense polynomials as coefficient lists, constant term first: exact
products and expansion of a quotient as a truncated power series.
"""

from fractions import Fraction
from math import gcd, lcm


def mul(p, q):
    """The product of two polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def expand(num, den, order):
    """Coefficients of q^0 .. q^order of the power series num/den, as
    Fractions. The coefficients may be ints or Fractions. Requires
    den[0] != 0."""
    if den[0] == 0:
        raise ValueError("constant term of the denominator must be nonzero")
    num = num[:order + 1]
    # one common multiple of every denominator makes num and den integral,
    # and one common divisor of all their coefficients keeps them small
    scale = lcm(*(c.denominator for c in num), *(c.denominator for c in den))
    num = [c.numerator * (scale // c.denominator) for c in num]
    den = [c.numerator * (scale // c.denominator) for c in den]
    content = gcd(*num, *den)
    num = [c // content for c in num]
    d0, *rest = [c // content for c in den]
    # y_k = d0^(k+1) * (coefficient k) is an integer:
    #   y_k = d0^k num_k - sum_{j >= 1} d0^(j-1) den_j y_(k-j)
    tail = [(j, d * d0 ** (j - 1)) for j, d in enumerate(rest[:order], 1) if d]
    y, out = [], []
    power = 1
    for k in range(order + 1):
        acc = num[k] * power if k < len(num) else 0
        for j, w in tail:
            if j > k:
                break
            acc -= w * y[k - j]
        y.append(acc)
        power *= d0
        out.append(Fraction(acc, power))
    return out
