"""Acceptance suite: one test per criterion, exact comparisons throughout
(zero tolerance), each printing a single PASS/FAIL line with its runtime
against the stated wall-clock budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import numpy as np

from cubeforms import altforms, arith, cubes, localfactors, qforms, series

import oracles


@contextmanager
def criterion(num, name, limit_s=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL "
              f"after {time.monotonic() - t0:.2f}s")
        raise
    elapsed = time.monotonic() - t0
    budget = f" (limit {limit_s:g}s)" if limit_s is not None else ""
    print(f"criterion {num:2d} ({name}): PASS in {elapsed:.2f}s{budget}")
    if limit_s is not None:
        assert elapsed < limit_s, f"time budget exceeded: {elapsed:.2f}s"


def fundamental_odd(bound):
    return [D for D in range(-bound + 1, bound)
            if D % 2 and arith.is_fundamental(D)]


def test_criterion_01_prime_power_solution_law():
    with criterion(1, "prime-power solution law", 5):
        for p in (3, 5, 7, 11, 13):
            tables = []
            for l in range(7):
                M = p ** l
                x = np.arange(M, dtype=np.int64)
                tables.append(np.bincount((x * x) % M, minlength=M))
            for d0 in [d for d in range(-10, 11) if d and d % p]:
                for k in range(7):
                    d = d0 * p ** k
                    for l in range(7):
                        brute = int(tables[l][d % p ** l])
                        assert arith.count_sqrt_prime_power(d, p, l) == brute, \
                            (d0, p, k, l)


def test_criterion_02_dirichlet_series_identity():
    with criterion(2, "zeta-ratio coefficient identity", 60):
        for D in fundamental_odd(201):
            assert series.coeffs_A(D, 5000) == series.coeffs_rhs(D, 5000), D


def test_criterion_03_dyadic_lemma():
    with criterion(3, "dyadic case tables and ratio 2", 5):
        checked = 0
        for D in range(-399, 400, 2):
            if not arith.is_discriminant(D):
                continue
            rep = series.verify_ptilde2(D, 6)
            assert rep["status"] == "pass" and rep["ratio"] == 2, D
            checked += 1
        assert checked == 200


def test_criterion_04_cube_construction():
    with criterion(4, "cube construction postconditions", 120):
        for D in fundamental_odd(301):
            sols = {m: cubes.solutions_in_window(D, m)
                    for m in range(-20, 21) if m}
            for m, xs in sols.items():
                for n, ys in sols.items():
                    for x in xs:
                        for y in ys:
                            A = cubes.construct_cube(D, m, n, x, y)
                            assert A.a == 0
                            assert gcd(gcd(A.b, A.e), A.f) == 1
                            assert cubes.disc(A) == D
                            s = cubes.qform(A, 1)
                            t = cubes.qform(A, 2)
                            assert (s.a, s.b) == (m, x)
                            assert (t.a, t.b) == (n, y)


def test_criterion_05_orbit_count():
    with criterion(5, "orbit count formula"):
        for D in fundamental_odd(301):
            sols = {m: cubes.solutions_in_window(D, m)
                    for m in range(-20, 21) if m}
            counts = {m: arith.count_sqrt_mod(D, abs(4 * m))
                      for m in sols}
            for m, xs in sols.items():
                for n, ys in sols.items():
                    expect = Fraction(counts[m] * counts[n], 4)
                    assert cubes.count_orbits(D, m, n) == expect, (D, m, n)
                    tuples = {cubes.invariant_tuple(cubes.construct_cube(D, m, n, x, y))
                              for x in xs for y in ys}
                    assert len(tuples) == expect, (D, m, n)


def test_criterion_06_composition_law():
    with criterion(6, "cube composition law", 10):
        for D in (-7, -15, -23, -31):
            rep = cubes.verify_composition_law(D)
            assert rep["status"] == "pass", rep["first_failure"]
            assert rep["cube_classes"] == rep["class_number"] ** 2


def test_criterion_07_fusion_compatibility():
    with criterion(7, "fusion compatibility", 5):
        rep = altforms.verify_fusion(seed=0, cases=10000)
        assert rep["status"] == "pass", rep["first_failure"]
        assert rep["cases_run"] == 10000


def test_criterion_08_borel_characters():
    with criterion(8, "relative-invariant characters"):
        rep = cubes.verify_characters(seed=0, cases=10000)
        assert rep["status"] == "pass", rep["first_failure"]
        assert rep["cases_run"] == 10000


def test_criterion_09_local_identities():
    with criterion(9, "split/inert local identities", 5):
        alphas = (2, Fraction(3, 2), 5, Fraction(7, 3))
        for alpha in alphas:
            split = localfactors.local_A_integral(-23, 3, alpha, 40)
            assert split == localfactors.lfactor_ratio_split(alpha, 40)
            inert = localfactors.local_A_integral(5, 3, alpha, 40)
            assert inert.is_constant(1)
            assert localfactors.lfactor_ratio_inert(alpha, 40).is_constant(1)


def test_criterion_10_pfaffian_contract():
    with criterion(10, "pfaffian normalization"):
        J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
        assert altforms.pfaffian(J) == 1
        assert altforms.pfaffian(altforms.alt_matrix(1, 1, 2, 3, 4, 5)) == -7
        rng = random.Random(0)
        for _ in range(10000):
            r, a, b, c, d, l = (rng.randint(-50, 50) for _ in range(6))
            M = altforms.alt_matrix(r, a, b, c, d, l)
            pf = altforms.pfaffian(M)
            assert pf == a * d - b * c - r * l
            assert pf * pf == oracles.det4(M)
