import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubeforms import arith, cubes, qforms
from cubeforms.cubes import Cube

import oracles

IDENT = ((1, 0), (0, 1))
GENS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)))


def random_sl2(rng, words=6):
    g = IDENT
    for _ in range(words):
        h = rng.choice(GENS)
        g = tuple(tuple(sum(g[i][k] * h[k][j] for k in range(2))
                        for j in range(2)) for i in range(2))
    return g


def test_slices():
    A = Cube(1, 2, 3, 4, 5, 6, 7, 8)
    (M1, N1), (M2, N2), (M3, N3) = oracles.slices(A)
    assert M1 == ((1, 2), (3, 4)) and N1 == ((5, 6), (7, 8))
    assert M2 == ((1, 5), (3, 7)) and N2 == ((2, 6), (4, 8))
    assert M3 == ((1, 5), (2, 6)) and N3 == ((3, 7), (4, 8))
    assert oracles.slices(cubes.ZERO) == tuple(
        ((((0, 0), (0, 0)), ((0, 0), (0, 0)))) for _ in range(3))


def test_qform_examples():
    A = Cube(0, 1, 1, 0, 1, 0, 0, -1)
    assert cubes.qform(A, 1) == (1, 0, 1)
    for i in (1, 2, 3):
        assert cubes.qform(cubes.ZERO, i) == (0, 0, 0)
    B = Cube(0, 1, 1, -6, 1, -1, -6, 0)
    assert cubes.qform(B, 1) == (1, 1, 6)


def test_qform_matches_displayed_polynomials():
    rng = random.Random(2)
    for _ in range(300):
        a, b, c, d, e, f, g, h = (rng.randint(-9, 9) for _ in range(8))
        A = Cube(a, b, c, d, e, f, g, h)
        assert cubes.qform(A, 1) == (-(a * d - b * c),
                                     -(-a * h + b * g + c * f - d * e),
                                     -(e * h - f * g))
        assert cubes.qform(A, 2) == (-(a * g - c * e),
                                     -(-a * h - b * g + c * f + d * e),
                                     -(b * h - d * f))
        assert cubes.qform(A, 3) == (-(a * f - b * e),
                                     -(-a * h + b * g - c * f + d * e),
                                     -(c * h - d * g))


def _qform_by_slices(A, i):
    # the evaluation qform replaced: three 2x2 determinants of the slicing
    M, N = oracles.slices(A)[i - 1]
    ca, cc = -cubes._det2(M), -cubes._det2(N)
    MN = ((M[0][0] - N[0][0], M[0][1] - N[0][1]),
          (M[1][0] - N[1][0], M[1][1] - N[1][1]))
    return (ca, -cubes._det2(MN) - ca - cc, cc)


def _rand_fraction_cube(rng, bound=9):
    return Cube(*(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                  for _ in range(8)))


def test_qform_matches_determinant_oracle():
    import sympy

    # the cube as a tensor T[i][j][k]: face i, row j, column k; the slicing
    # i fixes the i-th index, M at 0 and N at 1
    syms = sympy.symbols("a b c d e f g h")
    T = [[[syms[4 * i + 2 * j + k] for k in (0, 1)] for j in (0, 1)] for i in (0, 1)]
    pairs = (
        [sympy.Matrix(2, 2, lambda j, k: T[t][j][k]) for t in (0, 1)],
        [sympy.Matrix(2, 2, lambda j, i: T[i][j][t]) for t in (0, 1)],
        [sympy.Matrix(2, 2, lambda k, i: T[i][t][k]) for t in (0, 1)],
    )
    u, v = sympy.symbols("u v")
    A = Cube(*syms)
    for i, (M, N) in enumerate(pairs, 1):
        Q = sympy.Poly(-(M * u - N * v).det(), u, v)
        want = (Q.coeff_monomial(u ** 2), Q.coeff_monomial(u * v), Q.coeff_monomial(v ** 2))
        got = cubes.qform(A, i)
        assert all(sympy.expand(x - y) == 0 for x, y in zip(got, want))


def test_qform_matches_slice_evaluation():
    rng = random.Random(61)
    for k in range(4000):
        A = (Cube(*(rng.randint(-50, 50) for _ in range(8))) if k % 2
             else _rand_fraction_cube(rng))
        for i in (1, 2, 3):
            assert cubes.qform(A, i) == _qform_by_slices(A, i)


def test_disc():
    assert cubes.disc(Cube(0, 1, 1, 0, 1, 0, 0, -1)) == -4
    assert cubes.disc(cubes.ZERO) == 0
    assert cubes.disc(Cube(0, 1, 1, -6, 1, -1, -6, 0)) == -23


def test_disc_equals_form_discs():
    rng = random.Random(4)
    for _ in range(300):
        A = Cube(*(rng.randint(-9, 9) for _ in range(8)))
        D = cubes.disc(A)
        for i in (1, 2, 3):
            assert qforms.disc(cubes.qform(A, i)) == D


def test_act_examples():
    A = Cube(0, 1, 1, 0, 1, 0, 0, -1)
    assert cubes.act(IDENT, IDENT, IDENT, A) == A
    g = ((1, 0), (1, 1))
    assert cubes.act(g, IDENT, IDENT, A) == Cube(0, 1, 1, 0, 1, 1, 1, -1)


def test_act_preserves_disc_and_classes():
    rng = random.Random(9)
    for _ in range(300):
        A = Cube(*(rng.randint(-9, 9) for _ in range(8)))
        g1, g2, g3 = (random_sl2(rng) for _ in range(3))
        B = cubes.act(g1, g2, g3, A)
        assert cubes.disc(B) == cubes.disc(A)
        # slot j != i leaves Q_i unchanged as a polynomial only up to
        # SL2-equivalence; check class invariance on definite forms
        for i in (1, 2, 3):
            Qa, Qb = cubes.qform(A, i), cubes.qform(B, i)
            if qforms.disc(Qa) < 0 and Qa.a > 0 and Qb.a > 0:
                assert qforms.reduce(Qa) == qforms.reduce(Qb)


def test_slot_actions_commute():
    rng = random.Random(13)
    for _ in range(100):
        A = Cube(*(rng.randint(-9, 9) for _ in range(8)))
        g1, g2, g3 = (random_sl2(rng) for _ in range(3))
        one = ((1, 0), (0, 1))
        B = cubes._act_slots(cubes._act_slots(cubes._act_slots(
            A, (one, one, g3)), (one, g2, one)), (g1, one, one))
        assert B == cubes.act(g1, g2, g3, A)


def test_borel_invariants():
    assert cubes.borel_invariants(Cube(0, 1, 1, -6, 1, -1, -6, 0)) == (-23, 1, 1)
    assert cubes.borel_invariants(cubes.ZERO) == (0, 0, 0)
    assert cubes.borel_invariants(Cube(0, 1, 1, 0, 1, 0, 0, -1)) == (-4, 1, 1)


def test_borel_act_characters():
    rng = random.Random(17)
    A = Cube(*(Fraction(rng.randint(-9, 9)) for _ in range(8)))
    g = cubes.BorelElement(((1, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))
    assert cubes.borel_act(g, A) == A
    g = cubes.BorelElement(((2, 0), (0, 1)), ((1, 0), (0, 1)), ((1, 0), (0, 1)))
    assert cubes.characters(g)[1] == 4
    D0, m0, n0 = cubes.borel_invariants(A)
    _, m1, _ = cubes.borel_invariants(cubes.borel_act(g, A))
    assert m1 == 4 * m0
    # det-1 lower-triangular parts fix D
    g = cubes.BorelElement(((Fraction(1, 2), 0), (3, 2)),
                           ((Fraction(-1, 3), 0), (1, -3)), ((2, 1), (1, 1)))
    assert cubes.characters(g)[0] == 1
    assert cubes.borel_invariants(cubes.borel_act(g, A))[0] == D0


def test_borel_act_rejects_bad_elements():
    A = cubes.ZERO
    with pytest.raises(ValueError):
        cubes.borel_act(cubes.BorelElement(((1, 1), (0, 1)), IDENT, IDENT), A)
    with pytest.raises(ValueError):
        cubes.borel_act(cubes.BorelElement(IDENT, IDENT, ((1, 1), (1, 1))), A)


def test_verify_characters_suite():
    rep = cubes.verify_characters(seed=1, cases=500)
    assert rep["status"] == "pass"
    assert rep["cases_run"] == 500


def test_verify_characters_counts_cases_to_first_failure(monkeypatch):
    characters = cubes.characters

    def wrong_chi1(g):
        chi1, chi2, chi3 = characters(g)
        return chi1 + 1, chi2, chi3

    monkeypatch.setattr(cubes, "characters", wrong_chi1)
    rep = cubes.verify_characters(seed=1, cases=500)
    assert rep["status"] == "fail"
    # the suite stops at case 0 and counts only the cases it ran
    assert rep["first_failure"]["inputs"]["case"] == 0
    assert rep["cases_run"] == 1


def test_is_projective():
    A = Cube(0, 1, 1, -6, 1, -1, -6, 0)
    assert oracles.is_projective(A)
    assert not oracles.is_projective(Cube(*(2 * v for v in A)))
    assert not oracles.is_projective(cubes.ZERO)


def test_construct_cube_examples():
    A = cubes.construct_cube(-23, 1, 1, 1, 1)
    assert A == Cube(0, 1, 1, -6, 1, -1, -6, 0)
    assert cubes.qform(A, 1) == (1, 1, 6) and cubes.qform(A, 2) == (1, 1, 6)
    with pytest.raises(ValueError, match="x\\^2 = D"):
        cubes.construct_cube(-23, 1, 1, 0, 1)
    A = cubes.construct_cube(-4, 1, 1, 0, 0)
    assert cubes.qform(A, 1) == (1, 0, 1) and cubes.qform(A, 2) == (1, 0, 1)
    # f splits into a part prime to e and a part sharing e's primes
    assert cubes.construct_cube(-23, 1, 39, 1, 35) == Cube(0, 1, 1, -1, 39, -18, -22, 10)
    assert cubes.construct_cube(-23, 1, 58, 1, 95) == Cube(0, 1, 1, -1, 58, -48, -11, 9)


def test_factorize_calls_of_construct_cube_and_count_orbits(monkeypatch):
    calls = []
    factorize = arith.factorize

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counted)
    cubes.construct_cube(-23, 1, 39, 1, 35)
    cubes.construct_cube(-23, 1, 58, 1, 95)
    assert calls == []
    assert cubes.count_orbits(-3 * 4 ** 3 * 5 ** 2, 60, -40) == 72
    assert sorted(calls) == [160, 240]


def test_construct_cube_postconditions_small():
    for D in (-23, -7, 5, -15, 45, -24, 8):
        for m in list(range(-6, 0)) + list(range(1, 7)):
            for n in list(range(-6, 0)) + list(range(1, 7)):
                for x in cubes.solutions_in_window(D, m):
                    for y in cubes.solutions_in_window(D, n):
                        A = cubes.construct_cube(D, m, n, x, y)
                        assert A.a == 0
                        assert gcd(gcd(A.b, A.e), A.f) == 1
                        assert cubes.disc(A) == D
                        assert cubes.qform(A, 1)[:2] == (m, x)
                        assert cubes.qform(A, 2)[:2] == (n, y)


def test_invariant_tuple():
    A = Cube(0, 1, 1, -6, 1, -1, -6, 0)
    assert cubes.invariant_tuple(A) == (-23, 1, 1, 1, 1)
    assert cubes.invariant_tuple(Cube(0, 1, 1, 0, 1, 0, 0, -1)) == (-4, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        cubes.invariant_tuple(cubes.ZERO)


def test_invariant_tuple_stable_under_discrete_borel():
    lower = ((1, 0), (1, 1))
    rng = random.Random(23)
    A = cubes.construct_cube(-23, 2, 3, 1, 1)
    t = cubes.invariant_tuple(A)
    for g1 in (IDENT, lower):
        for g2 in (IDENT, lower):
            for g3 in (IDENT, lower, ((1, 0), (-1, 1))):
                assert cubes.invariant_tuple(cubes.act(g1, g2, g3, A)) == t
    # longer random words in the discrete Borel triple
    for _ in range(50):
        B = A
        for _ in range(rng.randint(1, 6)):
            k1, k2, k3 = (rng.randint(-3, 3) for _ in range(3))
            B = cubes.act(((1, 0), (k1, 1)), ((1, 0), (k2, 1)), ((1, 0), (k3, 1)), B)
        assert cubes.invariant_tuple(B) == t


def test_count_orbits():
    assert cubes.count_orbits(-23, 1, 1) == 1
    assert cubes.count_orbits(-23, 2, 3) == 4
    assert cubes.count_orbits(5, 1, 1) == 1
    with pytest.raises(ValueError):
        cubes.count_orbits(-23, 0, 1)


def test_m_and_n_are_capped(monkeypatch):
    cap = cubes.MN_CAP
    assert cubes.count_orbits(-23, cap, -cap) == 0

    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", no_factoring)
    for m, n in ((cap + 1, 1), (1, -cap - 1), (10 ** 18 + 3, 10 ** 18 + 3)):
        with pytest.raises(ValueError, match=str(cap)):
            cubes.count_orbits(-23, m, n)
        with pytest.raises(ValueError, match=str(cap)):
            cubes.construct_cube(-23, m, n, 1, 1)


def test_orbit_count_cap_is_within_trial_division():
    # count_orbits factors 4m and 4n: inside MN_CAP every cofactor that trial
    # division leaves is a prime, so factorize never rejects them
    assert 4 * cubes.MN_CAP <= arith.TRIAL_BOUND ** 2


def test_count_orbits_matches_enumeration():
    for D in (-23, -7, 5, -15):
        for m in (-4, -2, -1, 1, 2, 3, 4, 6):
            for n in (-3, -1, 1, 2, 5):
                count = cubes.count_orbits(D, m, n)
                tuples = set()
                for x in cubes.solutions_in_window(D, m):
                    for y in cubes.solutions_in_window(D, n):
                        tuples.add(cubes.invariant_tuple(cubes.construct_cube(D, m, n, x, y)))
                assert count == len(tuples)
                assert count == Fraction(arith.count_sqrt_mod(D, abs(4 * m))
                                         * arith.count_sqrt_mod(D, abs(4 * n)), 4)


def test_count_orbits_matches_D1_formula():
    for D in (-12, -27, -48, -75, -108, 45, 72, 225, -3 * 4**3 * 5**2):
        for m in (-12, -6, 1, 2, 3, 5, 10, 20, 60):
            for n in (-15, -4, 1, 2, 6, 30, 40):
                assert cubes.count_orbits(D, m, n) == oracles.orbit_count_by_divisors(D, m, n)


@st.composite
def orbit_triples(draw):
    # D = D0 f^2 with D0 = 0 or 1 (mod 4), so non-fundamental D of both
    # parities; m and n share a factor c, which often meets f
    D0 = 4 * draw(st.integers(-2500, 2500)) + draw(st.sampled_from((0, 1)))
    assume(D0 != 0)
    f, c = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    m, n = (c * draw(st.integers(-10 ** 4 // c, 10 ** 4 // c).filter(bool))
            for _ in range(2))
    return D0 * f * f, m, n


@settings(max_examples=300, deadline=None)
@given(orbit_triples())
@example((-3 * 4 ** 3 * 5 ** 2, 60, -40))
@example((-4 * 9 ** 2 * 7 ** 2, 2 * 3 ** 3 * 7, -(2 ** 3) * 3 ** 2 * 7 ** 2))
@example((5 * 2 ** 8, 2 ** 6, 2 ** 7))
def test_count_orbits_is_the_integer_divisor_sum(triple):
    D, m, n = triple
    got = cubes.count_orbits(D, m, n)
    assert type(got) is int
    assert got == oracles.orbit_count_by_divisors(D, m, n)


def test_solutions_in_window_edges():
    # one root window: the cube cells and the class groups call the same function
    assert cubes.solutions_in_window is qforms.solutions_in_window
    assert cubes.solutions_in_window(-23, 0) == []
    for D in range(-50, 51):
        for m in range(1, 13):
            want = [x for x in range(2 * m) if (x * x - D) % (4 * m) == 0]
            assert cubes.solutions_in_window(D, m) == want, (D, m)
            assert cubes.solutions_in_window(D, -m) == want, (D, -m)


def test_verify_composition_law():
    for D, h in ((-7, 1), (-15, 2), (-23, 3), (-31, 3)):
        rep = cubes.verify_composition_law(D)
        assert rep["status"] == "pass"
        assert rep["class_number"] == h
        assert rep["cube_classes"] == h * h
    with pytest.raises(ValueError):
        cubes.verify_composition_law(-4)


def test_verify_composition_law_stops_at_first_failure(monkeypatch):
    # a group law that is wrong whenever a factor is not principal; at
    # D = -23 the classes are [(1, 1, 6), (2, 1, 3), (2, -1, 3)], so the
    # pair (principal, (2, 1, 3)) at index 1 is the first to fail
    one, wrong = qforms.principal_form(-23), qforms.Form(2, 1, 3)
    real = qforms.compose
    monkeypatch.setattr(qforms, "compose",
                        lambda f, g: real(f, g) if f == g == one else wrong)
    rep = cubes.verify_composition_law(-23)
    assert rep["status"] == "fail"
    assert rep["cases_run"] == 2
    assert list(rep) == ["suite", "status", "cases_run", "first_failure", "elapsed_ms",
                         "disc", "class_number", "cube_classes"]
    assert (rep["disc"], rep["class_number"], rep["cube_classes"]) == (-23, 3, 1)
    fail = rep["first_failure"]
    assert list(fail) == ["inputs", "expected", "actual"]
    assert fail["inputs"] == {"disc": -23, "class1": [1, 1, 6], "class2": [2, 1, 3]}


def test_verify_composition_law_class_number_cap(monkeypatch):
    monkeypatch.setattr(cubes, "CLASS_CAP", 2)
    assert cubes.verify_composition_law(-15)["cube_classes"] == 4     # h = 2
    with pytest.raises(ValueError, match="class number 3 is above 2"):
        cubes.verify_composition_law(-23)
