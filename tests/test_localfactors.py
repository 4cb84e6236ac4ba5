from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforms import arith
from cubeforms import localfactors as lf
from oracles import add, inverse, mul, one_minus, scale, shift

F = Fraction


def series(coeffs, order):
    return lf.TruncatedSeries(coeffs, order)


def one_plus_q2(order):
    return series([1, 0, 1], order)


class TestTruncatedSeries:
    def test_construction_pads_and_truncates(self):
        s = series([1, 2, 3, 4], 2)
        assert s.coeffs == [1, 2, 3]
        assert series([5], 3).coeffs == [5, 0, 0, 0]

    def test_ring_ops(self):
        a = series([1, 1], 4)
        b = series([1, -1], 4)
        assert (a * b).coeffs == [1, 0, -1, 0, 0]
        assert (a * series([0, 0, 0, 1], 4)).coeffs == [0, 0, 0, 1, 1]   # truncated
        # a series is a value: it multiplies only by a series
        with pytest.raises(TypeError):
            3 * a
        with pytest.raises(TypeError):
            a * F(1, 2)
        # the list oracle's ring operations on the same values
        assert mul(a.coeffs, b.coeffs) == [1, 0, -1, 0, 0]
        assert add(a.coeffs, b.coeffs) == [2, 0, 0, 0, 0]
        assert add(a.coeffs, scale(-1, b.coeffs)) == [0, 2, 0, 0, 0]
        assert scale(3, a.coeffs) == [3, 3, 0, 0, 0]
        assert one_minus(-1, 0, 4) == [2, 0, 0, 0, 0]
        assert one_minus(2, 5, 4) == [1, 0, 0, 0, 0]   # q^5 is beyond the order

    def test_inverse(self):
        g = series(one_minus(1, 1, 6), 6)          # 1 - q
        inv = g.inverse()
        assert inv.coeffs == [1] * 7                # geometric series
        assert inverse(g.coeffs) == [1] * 7
        assert (g * inv).is_constant(1)
        h = series([2, 3, F(1, 2)], 5)
        assert (h * h.inverse()).is_constant(1)
        assert h.inverse().coeffs == inverse(h.coeffs)

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError):
            series([0, 1], 3).inverse()

    def test_shift_and_eq(self):
        s = series([1, 2], 4)
        assert shift(s.coeffs, 2) == [0, 0, 1, 2, 0]
        assert shift(s.coeffs, 4) == [0, 0, 0, 0, 1]
        assert s == series([1, 2, 0], 4)
        assert s != series([1, 2], 5)
        assert s != [1, 2, 0, 0, 0]

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="orders differ"):
            series([1], 3) * series([1], 4)


ORDER = 6
small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _form(coeffs, multiplier):
    # the same values as TruncatedSeries holds them, coefficient k being
    # ys[k] / base^(k+1), over base = multiplier * lcm of the denominators
    base = multiplier * lcm(*(c.denominator for c in coeffs))
    ys = [int(c * base ** (k + 1)) for k, c in enumerate(coeffs)]
    return lf.TruncatedSeries._from_scaled((ys, base), len(coeffs) - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fractions, min_size=ORDER + 1, max_size=ORDER + 1),
       st.lists(small_fractions, min_size=ORDER + 1, max_size=ORDER + 1),
       st.sampled_from((1, -1, 3, -7, 60)), st.sampled_from((1, -1, 2, -5)),
       st.integers(0, ORDER), st.sampled_from(("same", "last", "other")),
       st.sampled_from((0, 1, F(-3, 4))))
def test_integer_forms_decide_like_fraction_lists(a, b, m, m_other, cut, kind, c):
    # b is a copy of a, a copy changed only at q^ORDER, or other values;
    # a negative multiplier gives a negative base, as a negative alpha does
    if kind == "same":
        b = list(a)
    elif kind == "last":
        b = a[:-1] + [a[-1] + 1]
    x, y = _form(a, m), _form(b, m_other)
    assert x.coeffs == a and y.coeffs == b
    assert (x == y) is (a == b)
    assert (x != y) is (a != b)
    assert x.is_constant(c) is (a == [c] + [0] * ORDER)
    constant = [c] + [F(0)] * ORDER
    assert _form(constant, m).is_constant(c)
    off = list(constant)
    off[max(cut, 1)] = a[0] or 1        # one nonzero term past q^0
    assert not _form(off, m).is_constant(c)
    assert (_form(constant, m) == x) is (a == constant)
    # the public constructor pads and truncates, and keeps every value
    for given_coeffs in (a[:cut], a + b):
        want = (given_coeffs + [0] * (ORDER + 1))[:ORDER + 1]
        s = lf.TruncatedSeries(given_coeffs, ORDER)
        assert s.coeffs == want
        assert all(type(v) is Fraction for v in s.coeffs)
        assert (s == x) is (want == a)
        assert s == _form(want, m_other)


def test_macdonald_n0_is_one():
    for alpha in (2, F(3, 2), 5):
        assert lf.macdonald(alpha, 3, 0, order=10).is_constant(1)


def test_macdonald_n1():
    for alpha in (2, F(3, 2), F(7, 3)):
        got = lf.macdonald(alpha, 3, 1, order=10) * one_plus_q2(10)
        want = series([0, alpha + F(1, 1) / alpha], 10)
        assert got == want


def test_macdonald_alpha2_n2_direct_substitution():
    # q^2 (4(1 - q^2/4)/(3/4) + (1/4)(1 - 4q^2)/(-3)) = q^2 (21/4 - q^2)
    got = lf.macdonald(2, 5, 2, order=10) * one_plus_q2(10)
    assert got == series([0, 0, F(21, 4), 0, -1], 10)


def test_macdonald_hecke_recursion():
    order = 16
    for alpha in (2, F(3, 2), 5, F(7, 3)):
        sig = [lf.macdonald(alpha, 3, n, order=order) for n in range(12)]
        lam = alpha + F(1, 1) / alpha
        for n in range(1, 11):
            rhs = add(scale(lam, shift(sig[n].coeffs, 1)),
                      scale(-1, shift(sig[n - 1].coeffs, 2)))
            assert sig[n + 1].coeffs == rhs


def test_macdonald_rejects_degenerate():
    for bad in (0, 1, -1):
        with pytest.raises(ValueError):
            lf.macdonald(bad, 3, 1)
    with pytest.raises(ValueError):
        lf.macdonald(2, 3, -1)


def test_local_A_integral_cases():
    assert lf.local_A_integral(5, 3, 2, 10).is_constant(1)      # inert
    assert lf.local_A_integral(-23, 3, 2, 0).is_constant(1)     # only l = 0
    split = lf.local_A_integral(-23, 3, 2, 10)
    assert not split.is_constant(1)
    assert split.coeffs[0] == 1


def _integral_by_terms(D, p, alpha, lmax):
    # the defining sum, one Macdonald series per level l <= lmax, each
    # weighted by the congruence count A(D, p^l)
    counts = [(l, arith.count_sqrt_prime_power(D, p, l)) for l in range(lmax + 1)]
    return add(*(scale(count, lf.macdonald(alpha, p, l, order=lmax).coeffs)
                 for l, count in counts if count))


def test_local_A_integral_matches_term_by_term_sum():
    places = [(-23, 3), (-23, 13), (5, 3), (-7, 3)]   # split, split, inert, inert
    for D, p in places:
        for alpha in (2, F(3, 2), F(-7, 3), F(12345, 67891)):
            for lmax in range(31):
                assert lf.local_A_integral(D, p, alpha, lmax).coeffs == \
                    _integral_by_terms(D, p, alpha, lmax), (D, p, alpha, lmax)


def test_local_A_integral_rejections():
    with pytest.raises(ValueError):
        lf.local_A_integral(-23, 2, 2, 5)     # p = 2
    with pytest.raises(ValueError):
        lf.local_A_integral(-23, 9, 2, 5)     # not prime
    with pytest.raises(ValueError):
        lf.local_A_integral(-15, 3, 2, 5)     # ramified
    with pytest.raises(ValueError):
        lf.local_A_integral(-23, 5, 1, 5)     # alpha^2 = 1
    for D in (-23, 5):
        with pytest.raises(ValueError):
            lf.local_A_integral(D, 3, 2, -1)  # negative order


def test_lfactor_ratios():
    for alpha in (2, F(3, 2), 5, F(7, 3)):
        assert lf.lfactor_ratio_split(alpha, 0).coeffs == [1]
        assert lf.lfactor_ratio_inert(alpha, 40).is_constant(1)
        split = lf.lfactor_ratio_split(alpha, 40)
        assert split == lf.split_product_form(alpha, 40)
        assert split == lf.local_A_integral(-23, 3, alpha, 40)
    assert lf.lfactor_ratio_inert(7, 80).is_constant(1)


def test_lfactor_building_blocks():
    # a series the library builds, times its inverse
    split = lf.lfactor_ratio_split(F(3, 2), 12)
    assert (split.inverse() * split).is_constant(1)

    # every L-factor times its docstring denominator is its docstring numerator
    for alpha in (2, F(3, 2), F(-7, 3), F(12345, 67891)):
        for order in (0, 1, 5, 17):
            def om(c, k):
                return one_minus(c, k, order)

            a, b = alpha, 1 / F(alpha)
            plus_q2 = om(-1, 2)
            split_den = mul(om(a, 1), om(a, 1), om(b, 1), om(b, 1))
            inert_den = mul(om(a ** 2, 2), om(b ** 2, 2))
            adjoint_den = mul(om(a ** 2, 2), om(1, 2), om(b ** 2, 2))
            cases = [
                (lf.lfactor_ratio_split, mul(om(1, 4), split_den),
                 mul(om(1, 2), adjoint_den)),
                (lf.lfactor_ratio_inert, mul(om(1, 4), inert_den),
                 mul(plus_q2, adjoint_den)),
                (lf.split_product_form, mul(plus_q2, om(a, 1), om(b, 1)),
                 mul(om(1, 2), om(-a, 1), om(-b, 1))),
            ]
            for fn, den, num in cases:
                assert mul(fn(alpha, order).coeffs, den) == num, (fn.__name__, alpha, order)


def _oracle_series(alpha, order):
    # every function built from 1 - c q^k series and the list oracle's
    # inverse, with the local integral as its defining sum over
    # b = alpha, 1/alpha:
    # 1/(1+q^2) sum_b c_b (1 - q^2/b^2)(1 + (c-1) b q)/(1 - b q)
    def om(c, k):
        return one_minus(c, k, order)

    a, b = alpha, 1 / alpha
    split_den = mul(om(a, 1), om(a, 1), om(b, 1), om(b, 1))
    inert_den = mul(om(a ** 2, 2), om(b ** 2, 2))
    adjoint_den = mul(om(a ** 2, 2), om(1, 2), om(b ** 2, 2))
    plus_q2 = om(-1, 2)
    out = {
        "lfactor_ratio_split": mul(om(1, 2), adjoint_den, inverse(mul(om(1, 4), split_den))),
        "lfactor_ratio_inert": mul(plus_q2, adjoint_den, inverse(mul(om(1, 4), inert_den))),
        "split_product_form": mul(om(1, 2), om(-a, 1), om(-b, 1),
                                  inverse(mul(plus_q2, om(a, 1), om(b, 1)))),
    }
    for D, p in LOCAL_PLACES:
        c = arith.count_sqrt_prime_power(D, p, 1)
        total = add(*(scale(cx, mul(om(1 / x ** 2, 2), om((1 - c) * x, 1), inverse(om(x, 1))))
                      for x, cx in ((a, 1 / (1 - b ** 2)), (b, 1 / (1 - a ** 2)))))
        out[("local_A_integral", D, p)] = mul(total, inverse(plus_q2))
    return out


LOCAL_PLACES = [(-23, 3), (-23, 13), (5, 3), (-7, 3)]   # split, split, inert, inert

HEIGHT = 10 ** 6
nonunit_alphas = st.builds(lambda s, u, v: s * F(u, v), st.sampled_from((-1, 1)),
                           st.integers(1, HEIGHT), st.integers(1, HEIGHT)
                           ).filter(lambda a: a * a != 1)


@settings(max_examples=60, deadline=None)
@given(nonunit_alphas, st.integers(0, 40))
def test_local_functions_match_one_minus_oracle(alpha, order):
    for key, want in _oracle_series(alpha, order).items():
        if isinstance(key, tuple):
            name, D, p = key
            got = lf.local_A_integral(D, p, alpha, order)
        else:
            name = key
            got = getattr(lf, name)(alpha, order)
        assert got.coeffs == want, (key, alpha, order)
        assert all(type(c) is Fraction for c in got.coeffs), (name, alpha, order)


def _macdonald_by_weights(alpha, n, order):
    # sigma(p^n) = q^n/(1+q^2) * sum_b c_b b^n (1 - q^2/b^2) over b = alpha,
    # 1/alpha with c_b = 1/(1 - b^-2), in Fractions; 1/(1+q^2) = sum (-1)^k q^2k
    weights = [(b, 1 / (1 - b ** -2)) for b in (alpha, 1 / alpha)]
    p0 = sum(c * b ** n for b, c in weights)
    p2 = -sum(c * b ** (n - 2) for b, c in weights)
    out = [F(0)] * (order + 1)
    for k in range((order - n) // 2 + 1):
        out[n + 2 * k] = (-1) ** k * p0 - (k > 0) * (-1) ** k * p2
    return out


@settings(max_examples=200, deadline=None)
@given(nonunit_alphas, st.integers(0, 12), st.integers(0, 30))
def test_macdonald_matches_weight_formula(alpha, n, order):
    got = lf.macdonald(alpha, 3, n, order)
    assert got.coeffs == _macdonald_by_weights(alpha, n, order)
    assert all(type(c) is Fraction for c in got.coeffs)


def test_orbit_count_wprime():
    # the W' orbit count at p^l is the number of square roots of D mod p^l
    assert arith.count_sqrt_prime_power(-23, 3, 0) == 1
    assert arith.count_sqrt_prime_power(-23, 3, 1) == 2
    assert arith.count_sqrt_prime_power(5, 3, 1) == 0
    with pytest.raises(ValueError):
        arith.count_sqrt_prime_power(-23, 2, 1)


def test_verify_local_identities_suite():
    for order in (0, 25):
        rep = lf.verify_local_identities(order=order)
        assert rep["status"] == "pass"
        assert rep["cases_run"] == 4
        assert rep["first_failure"] is None
    for order in (-1, lf.ORDER_CAP + 1):
        with pytest.raises(ValueError, match=f"order must be in \\[0, {lf.ORDER_CAP}\\]"):
            lf.verify_local_identities(order=order)
    # no alpha, no case: a suite never passes vacuously
    with pytest.raises(ValueError, match="no cases"):
        lf.verify_local_identities(alphas=())


def test_verify_local_identities_stops_at_first_failure(monkeypatch):
    # a wrong split ratio at alpha = 5, the third default alpha
    real = lf.lfactor_ratio_split

    def wrong_at_5(alpha, order):
        s = real(alpha, order).coeffs
        return lf.TruncatedSeries([s[0] + (alpha == 5)] + s[1:], order)

    monkeypatch.setattr(lf, "lfactor_ratio_split", wrong_at_5)
    rep = lf.verify_local_identities(order=10)
    assert rep["status"] == "fail"
    assert rep["cases_run"] == 3
    assert list(rep)[-1] == "elapsed_ms"
    fail = rep["first_failure"]
    assert list(fail) == ["inputs", "expected", "actual"]
    assert fail["inputs"] == {"alpha": "5", "order": 10}


@pytest.mark.parametrize("n", [0, 1, 12, 40])
def test_verify_local_identities_decides_q_to_the_order(monkeypatch, n):
    # a middle series off from the true one at q^n only: the suite must see
    # it at order n, and at order n - 1 it is truncated away
    real = lf.split_product_form

    def off_at_n(alpha, order):
        coeffs = real(alpha, max(order, n)).coeffs[:]
        coeffs[n] += 1
        return lf.TruncatedSeries(coeffs, order)

    monkeypatch.setattr(lf, "split_product_form", off_at_n)
    rep = lf.verify_local_identities(order=n)
    assert rep["status"] == "fail"
    assert rep["cases_run"] == 1
    assert rep["first_failure"]["inputs"] == {"alpha": "2", "order": n}
    if n:
        rep = lf.verify_local_identities(order=n - 1)
        assert rep["status"] == "pass"
        assert rep["cases_run"] == 4
