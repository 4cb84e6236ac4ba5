"""Non-archimedean local computations as exact truncated power series in
the formal variable q (semantics q = p^(-1/2)): the Macdonald spherical
function, congruence-count weighted local integrals, and the split/inert
base-change over adjoint L-factor ratios.
"""

from fractions import Fraction
from functools import reduce
from math import prod

from . import arith, poly
from .limits import ORDER_CAP
from .report import run


class TruncatedSeries:
    """What every local function returns: the exact rational coefficients of
    q^0 .. q^order. Products and inverses of units truncate to `order`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        self.coeffs = coeffs[: order + 1] + [Fraction(0)] * (order + 1 - len(coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.order != self.order:
            raise ValueError("truncation orders differ")
        return TruncatedSeries(poly.mul(self.coeffs, other.coeffs), self.order)

    def inverse(self):
        return TruncatedSeries(poly.expand([1], self.coeffs, self.order), self.order)

    def is_constant(self, value):
        return self.coeffs[0] == value and all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs!r}, order={self.order})"


def _ratio(num, den, order):
    """The series prod(num)/prod(den) to `order`. num and den are lists of
    integer polynomials, each read as itself over its constant term (so
    v - u q stands for 1 - (u/v) q). Each side is scaled by the other's
    constant term and multiplied out exactly before the one expansion,
    which divides out their common content."""
    n0 = prod(f[0] for f in num)
    d0 = prod(f[0] for f in den)
    return TruncatedSeries(poly.expand(reduce(poly.mul, num, [d0]),
                                       reduce(poly.mul, den, [n0]), order), order)


def _check_alpha(alpha):
    """(u, v) with alpha = u/v in lowest terms, v > 0."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha * alpha == 1:
        raise ValueError("alpha^2 = 1 is rejected (degenerate parameter)")
    return alpha.numerator, alpha.denominator


def macdonald(alpha, p, n, order=None):
    """Spherical function value sigma(p^n) as an exact series in q.

    sigma(p^n) = q^n/(1+q^2) * ( a^n (1 - a^-2 q^2)/(1 - a^-2)
                               + a^-n (1 - a^2 q^2)/(1 - a^2) ),
    which with a = u/v is q^n (p0 + p2 q^2) / [w (1+q^2)] on integers.
    """
    u, v = _check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be non-negative")
    if order is None:
        order = n + 2
    p0 = u ** (2 * n + 2) - v ** (2 * n + 2)
    p2 = u * u * v ** (2 * n) - u ** (2 * n) * v * v
    w = (u * u - v * v) * (u * v) ** n
    return TruncatedSeries(poly.expand([0] * n + [p0, 0, p2], [w, 0, w], order), order)


def local_A_integral(D, p, alpha, lmax):
    """Sum over l of A(D, p^l) sigma(p^l), truncated at order lmax.

    Requires p odd and coprime to 2D (unramified place): the congruence
    count is 1 at l = 0 and then c = 2 (split) or 0 (inert) for all l >= 1.
    Summing the geometric series in b q over l gives one rational function,

        1/(1+q^2) * sum_b c_b (1 - q^2/b^2) (1 + (c-1) b q)/(1 - b q),

    expanded once; the terms l > lmax are divisible by q^(lmax+1). With
    alpha = u/v it is N / [(u^2 - v^2)(1 + q^2)(v - uq)(u - vq)], where

        N = (u^2 - v^2 q^2)(v - (1-c) u q)(u - vq)
            - (v^2 - u^2 q^2)(u - (1-c) v q)(v - uq).
    """
    if p == 2 or not arith.is_prime(p):
        raise ValueError("p must be an odd prime")
    if D % p == 0:
        raise ValueError("ramified place (p divides D) is out of scope")
    if not arith.is_discriminant(D):
        raise ValueError("D must be a discriminant")
    u, v = _check_alpha(alpha)
    s = -1 if arith.kronecker(D, p) == 1 else 1     # 1 - c
    first = reduce(poly.mul, [[u * u, 0, -v * v], [v, -s * u], [u, -v]])
    second = reduce(poly.mul, [[v * v, 0, -u * u], [u, -s * v], [v, -u]])
    num = [x - y for x, y in zip(first, second)]
    # the sum is 1 at q = 0 (only l = 0 contributes), so reading N and the
    # denominator over their constant terms accounts for u^2 - v^2
    return _ratio([num], [[1, 0, 1], [v, -u], [u, -v]], lmax)


def _lfactor_ratio(alpha, eta, order):
    """zeta_p(2) L_p(1/2, pi_E) / (L_p(1, eta) L_p(1, Ad)) at a = u/v, where
    zeta_p(2) is 1/(1-q^4), L_p(1, eta) is 1/(1-eta q^2), L_p(1, Ad) is
    1/[(1-a^2 q^2)(1-q^2)(1-q^2/a^2)] and L_p(1/2, pi_E) is
    1/[(1-aq)(1-eta aq)(1-q/a)(1-eta q/a)]: eta = 1 at a split place,
    -1 at an inert one."""
    u, v = _check_alpha(alpha)
    return _ratio([[1, 0, -eta], [v * v, 0, -u * u], [1, 0, -1], [u * u, 0, -v * v]],
                  [[1, 0, 0, 0, -1], [v * v, -(1 + eta) * u * v, eta * u * u],
                   [u * u, -(1 + eta) * u * v, eta * v * v]], order)


def lfactor_ratio_split(alpha, order):
    """(1-q^2)/(1-q^4) * L_p(1/2, pi_E) / L_p(1, Ad), split base change."""
    return _lfactor_ratio(alpha, 1, order)


def lfactor_ratio_inert(alpha, order):
    """(1+q^2)/(1-q^4) * L_p(1/2, pi_E) / L_p(1, Ad); identically 1."""
    return _lfactor_ratio(alpha, -1, order)


def split_product_form(alpha, order):
    """The intermediate closed form of the split computation:
    (1-q^2)(1+aq)(1+q/a) / [(1+q^2)(1-aq)(1-q/a)]."""
    u, v = _check_alpha(alpha)
    return _ratio([[1, 0, -1], [v, u], [u, v]],
                  [[1, 0, 1], [v, -u], [u, -v]], order)


def verify_local_identities(alphas=(2, Fraction(3, 2), 5, Fraction(7, 3)),
                            order=40):
    """Split (p = 3, D = -23) and inert (p = 3, D = 5) local integral
    identities at truncation `order`, 0 <= order <= ORDER_CAP."""
    if not 0 <= order <= ORDER_CAP:
        raise ValueError(f"order must be in [0, {ORDER_CAP}]")

    def case(alpha):
        split_int = local_A_integral(-23, 3, alpha, order)
        split_ratio = lfactor_ratio_split(alpha, order)
        middle = split_product_form(alpha, order)
        inert_int = local_A_integral(5, 3, alpha, order)
        inert_ratio = lfactor_ratio_inert(alpha, order)
        if not (split_int == split_ratio == middle
                and inert_int.is_constant(1) and inert_ratio.is_constant(1)):
            return {
                "inputs": {"alpha": str(Fraction(alpha)), "order": order},
                "expected": "split chain equal, inert chain constant 1",
                "actual": {
                    "split_integral": [str(c) for c in split_int.coeffs[:6]],
                    "split_ratio": [str(c) for c in split_ratio.coeffs[:6]],
                    "inert_integral": [str(c) for c in inert_int.coeffs[:6]],
                },
            }

    return run("local", map(case, alphas))
