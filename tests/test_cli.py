import ast
import csv
import io
import json
import os
import subprocess
import sys
from itertools import takewhile
from math import fsum
from pathlib import Path

import pytest

from cubeforms import altforms, arith, cli, cubes, limits, localfactors, qforms, series

REPORT_KEYS = ["suite", "status", "cases_run", "first_failure", "elapsed_ms"]


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classnum_json(capsys):
    code, out, _ = run(capsys, "classnum", "--disc", "-23")
    assert code == 0
    assert json.loads(out) == {"disc": -23, "h": 3}


def test_classnum_invalid_disc(capsys):
    code, out, err = run(capsys, "classnum", "--disc", "-27")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_sqrtcount(capsys):
    code, out, _ = run(capsys, "sqrtcount", "--d", "5", "--mod", "4")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_sqrtcount_large_modulus(capsys):
    # a prime modulus near 10^18 answers; two primes above the trial bound exit 2
    code, out, _ = run(capsys, "sqrtcount", "--d", "5", "--mod", str(10 ** 18 + 3))
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, out, err = run(capsys, "sqrtcount", "--d", "5",
                         "--mod", str((10 ** 9 + 7) * (10 ** 9 + 9)))
    assert code == 2
    assert out == "" and "cannot factor" in err


# one valid argv per leaf command
LEAVES = (
    ("classnum", "--disc", "-23"),
    ("sqrtcount", "--d", "5", "--mod", "4"),
    ("cube", "construct", "--disc", "-23", "--m", "1", "--n", "1", "--x", "1", "--y", "1"),
    ("cube", "invariants", "--cube", "0,1,1,-6,1,-1,-6,0"),
    ("cube", "orbits", "--disc", "-23", "--m", "2", "--n", "3"),
    ("verify", "prop2", "--disc", "-23", "--limit", "200"),
    ("verify", "ptilde2", "--disc", "-23"),
    ("verify", "composition", "--disc", "-23"),
    ("verify", "local", "--order", "15"),
    ("verify", "fusion", "--cases", "50"),
    ("verify", "characters", "--cases", "50"),
    ("zeta", "shintani", "--s", "1.5+2j", "--w", "2", "--amax", "5", "--dmax", "7"),
    ("zeta", "wmds", "--s", "2", "--w", "0.5-1j", "--mmax", "10", "--dset", "5,-23"),
)


def _csv_cell(cell):
    # CSV prints None as an empty cell, nested values as JSON, the rest with str()
    if cell == "":
        return None
    try:
        return json.loads(cell)
    except ValueError:
        return cell


def assert_csv_and_json_agree(capsys, argv, want_code):
    code, jout, _ = run(capsys, *argv)
    assert code == want_code, argv
    code, cout, _ = run(capsys, "--format", "csv", *argv)
    assert code == want_code, argv
    header, row = csv.reader(io.StringIO(cout))
    crec = {k: _csv_cell(v) for k, v in zip(header, row)}
    jrec = json.loads(jout)
    assert list(crec) == list(jrec), argv
    timed = ("elapsed_ms",)    # the two runs are timed separately
    assert ({k: v for k, v in crec.items() if k not in timed}
            == {k: v for k, v in jrec.items() if k not in timed}), argv
    return jrec


def test_csv_and_json_agree(capsys):
    for argv in LEAVES:
        assert_csv_and_json_agree(capsys, argv, 0)


def test_every_command_has_a_test_argv():
    # so that no command skips test_csv_and_json_agree
    assert set(cli.COMMANDS) == {tuple(takewhile(lambda w: not w.startswith("--"), argv))
                                 for argv in LEAVES}


def _complex_json(z):
    return {"re": z.real, "im": z.imag}


# the whole record of each non-suite leaf of LEAVES, keys in order: the CSV
# header is that order. Keyed commands print their inputs, then their result.
# The zeta sums are floats from complex powers, so they come from the library
SHINTANI = series.shintani_Z(1.5 + 2j, 2, 5, 7)
RECORDS = {
    "classnum": {"disc": -23, "h": 3},
    "sqrtcount": {"d": 5, "mod": 4, "count": 2},
    "cube construct": {"cube": [0, 1, 1, -6, 1, -1, -6, 0], "Q1": [1, 1, 6], "Q2": [1, 1, 6],
                       "Q3": [1, 11, 36], "disc": -23},
    "cube invariants": {"disc": -23, "m": 1, "n": 1, "x": 1, "y": 1},
    "cube orbits": {"disc": -23, "m": 2, "n": 3, "orbits": 4},
    "zeta shintani": {"s": {"re": 1.5, "im": 2.0}, "w": {"re": 2.0, "im": 0.0},
                      "amax": 5, "dmax": 7, "value": _complex_json(SHINTANI.value),
                      "xi1": _complex_json(SHINTANI.xi1), "xi2": _complex_json(SHINTANI.xi2)},
    "zeta wmds": {"s": {"re": 2.0, "im": 0.0}, "w": {"re": 0.5, "im": -1.0}, "mmax": 10,
                  "dset": [5, -23],
                  "value": _complex_json(series.wmds_Z(2, 0.5 - 1j, 10, [5, -23]))},
}


@pytest.mark.parametrize("leaf", RECORDS)
def test_whole_records_are_pinned(capsys, leaf):
    argv, = (argv for argv in LEAVES if " ".join(argv).startswith(leaf + " --"))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert list(json.loads(out).items()) == list(RECORDS[leaf].items())


def test_failing_suite_exits_1_with_its_report(capsys):
    # one wrong library function per verify suite; every failure report is
    # plain JSON (ints, strings, lists, dicts), the same in JSON and CSV
    local_rhs, count_sqrt_brute = series._local_rhs, arith.count_sqrt_brute
    chars, qform_F = cubes.characters, altforms.qform_F
    failures = (
        (("verify", "characters", "--cases", "5"), [],
         cubes, "characters", lambda g: tuple(2 * c for c in chars(g))),
        (("verify", "fusion", "--cases", "5"), [],
         altforms, "qform_F", lambda F: qforms.Form(*(c + 1 for c in qform_F(F)))),
        (("verify", "composition", "--disc", "-23"), ["disc", "class_number", "cube_classes"],
         qforms, "compose", lambda Q1, Q2: qforms.Form(1, 1, 7)),
        (("verify", "local", "--order", "15"), [],
         localfactors, "split_product_form", localfactors.lfactor_ratio_inert),
        (("verify", "prop2", "--disc", "-23", "--limit", "200"), [],
         series, "_local_rhs", lambda D: lambda p, l: local_rhs(D)(p, l) + (p == 5)),
        (("verify", "ptilde2", "--disc", "-23"), ["ratio"],
         arith, "count_sqrt_brute", lambda d, m: count_sqrt_brute(d, m) + (m == 16)),
    )
    for argv, extras, module, name, wrong in failures:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, name, wrong)
            rec = assert_csv_and_json_agree(capsys, argv, 1)
        assert list(rec) == REPORT_KEYS + extras, argv
        assert rec["status"] == "fail", argv
        failure = rec["first_failure"]
        assert list(failure) == ["inputs", "expected", "actual"], argv
        assert failure["expected"] != failure["actual"], argv


def test_cube_construct(capsys):
    code, out, _ = run(capsys, "cube", "construct", "--disc", "-23",
                       "--m", "1", "--n", "1", "--x", "1", "--y", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["cube"] == [0, 1, 1, -6, 1, -1, -6, 0]
    assert rec["Q1"] == [1, 1, 6] and rec["disc"] == -23


def test_cube_construct_congruence_failure(capsys):
    code, out, err = run(capsys, "cube", "construct", "--disc", "-23",
                         "--m", "1", "--n", "1", "--x", "0", "--y", "1")
    assert code == 2
    assert out == ""
    assert "congruence" in err


def test_construct_postcondition_failure_exits_3(capsys, monkeypatch):
    # a wrong discriminant must surface as an internal error, also under -O
    monkeypatch.setattr(cubes, "disc", lambda A: 0)
    with pytest.raises(RuntimeError, match="disc"):
        cubes.construct_cube(-23, 1, 1, 1, 1)
    code, out, err = run(capsys, "cube", "construct", "--disc", "-23",
                         "--m", "1", "--n", "1", "--x", "1", "--y", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "disc" in err


def test_cube_invariants(capsys):
    code, out, _ = run(capsys, "cube", "invariants",
                       "--cube", "0,1,1,-6,1,-1,-6,0")
    assert code == 0
    assert json.loads(out) == {"disc": -23, "m": 1, "n": 1, "x": 1, "y": 1}


def test_cube_invariants_bad_literal(capsys):
    code, _, _ = run(capsys, "cube", "invariants", "--cube", "1,2,3")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("cube", "invariants", "--cube=1,2,3,4,5,6,7,x"),
     "argument --cube: cube entry is not an integer: 'x'"),
    (("zeta", "wmds", "--s", "2", "--w", "2", "--dset", "5,x"),
     "argument --dset: discriminant entry is not an integer: 'x'"),
], ids=["cube", "dset"])
def test_non_integer_entry_is_named(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err and "_parse" not in err


def test_cube_orbits(capsys):
    code, out, _ = run(capsys, "cube", "orbits", "--disc", "-23",
                       "--m", "2", "--n", "3")
    assert code == 0
    assert json.loads(out)["orbits"] == 4


def test_cube_orbits_does_not_factor_the_discriminant(capsys, monkeypatch):
    # 10^18 + 3 is prime: trial division of D would not finish
    real = arith.factorize

    def factorize(n):
        if n > 10**12:
            raise AssertionError(f"factorize({n}) called")
        return real(n)

    monkeypatch.setattr(arith, "factorize", factorize)
    D = -(10**18 + 3)
    assert cubes.count_orbits(D, 1, 1) == 1
    code, out, _ = run(capsys, "cube", "orbits", "--disc", str(D), "--m", "1", "--n", "1")
    assert code == 0
    assert json.loads(out) == {"disc": D, "m": 1, "n": 1, "orbits": 1}


def test_orbit_count_not_divisible_by_4_exits_3(capsys, monkeypatch):
    # with every A(x, 2^l) = 1 the local product is odd: an internal error,
    # also under python -O
    real = arith._count_sqrt_pp
    monkeypatch.setattr(arith, "_count_sqrt_pp",
                        lambda d, p, l: 1 if p == 2 else real(d, p, l))
    with pytest.raises(RuntimeError, match="4 does not divide"):
        cubes.count_orbits(-23, 1, 1)
    argv = ["cube", "orbits", "--disc", "-23", "--m", "1", "--n", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "4 does not divide" in err
    assert in_fresh_interpreter(
        "from cubeforms import arith, cli\n"
        "real = arith._count_sqrt_pp\n"
        "arith._count_sqrt_pp = lambda d, p, l: 1 if p == 2 else real(d, p, l)\n"
        f"print((sys.flags.optimize, cli.run({argv!r})))", "-O") == (1, 3)


def test_prop2_does_not_factor_the_discriminant(capsys, monkeypatch):
    # chi_D(p) comes from the p-part of D, so a prime |D| near 10^18 answers at once
    real = arith.factorize

    def factorize(n):
        if n > 10**12:
            raise AssertionError(f"factorize({n}) called")
        return real(n)

    monkeypatch.setattr(arith, "factorize", factorize)
    D = -(10**18 + 3)
    assert series.verify_prop2(D, 10)["status"] == "pass"
    assert series.coeffs_rhs(D, 10) == series.coeffs_A(D, 10)
    # D is prime and fundamental: chi_D(m^) a(D, m) = (D/m) for m <= 10
    terms = [arith.kronecker(D, m) * m ** -2.0 * abs(D) ** -2.0 for m in range(1, 11)]
    assert series.wmds_Z(2.0, 2.0, 10, [D]) == complex(fsum(t for t in terms if t))
    code, out, _ = run(capsys, "verify", "prop2", "--disc", str(D), "--limit", "10")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, "zeta", "wmds", "--s", "2", "--w", "2",
                       "--mmax", "10", "--dset", str(D))
    assert code == 0
    assert json.loads(out)["dset"] == [D]


def test_verify_subcommands_pass(capsys):
    checks = (
        (("verify", "prop2", "--disc", "-23", "--limit", "200"), []),
        (("verify", "ptilde2", "--disc", "-23"), ["ratio"]),
        (("verify", "composition", "--disc", "-23"),
         ["disc", "class_number", "cube_classes"]),
        (("verify", "local", "--order", "15"), []),
        (("verify", "fusion", "--cases", "500"), []),
        (("verify", "characters", "--cases", "200"), []),
    )
    for argv, extras in checks:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        rec = json.loads(out)
        assert list(rec) == REPORT_KEYS + extras, argv
        assert rec["status"] == "pass"
        assert rec["first_failure"] is None
        assert rec["cases_run"] >= 1 and rec["elapsed_ms"] >= 0
    code, out, _ = run(capsys, "--format", "csv", "verify", "composition",
                       "--disc", "-23")
    assert code == 0
    header = next(csv.reader(io.StringIO(out)))
    assert header == REPORT_KEYS + ["disc", "class_number", "cube_classes"]


@pytest.mark.parametrize("argv", [
    ("verify", "prop2", "--disc", "-23", "--limit", "0"),
    ("verify", "prop2", "--disc", "-23", "--limit", "-5"),
    ("verify", "prop2", "--disc", "-23", "--limit", "1000001"),
    ("verify", "fusion", "--cases", "0"),
    ("verify", "fusion", "--cases", "-3"),
    ("verify", "characters", "--cases", "0"),
    # above limits.CASES_CAP: 10^8 cases would run for hours
    ("verify", "fusion", "--cases", "100001"),
    ("verify", "characters", "--cases", "100000000"),
    ("verify", "ptilde2", "--disc", "-23", "--lmax", "-1"),
    ("verify", "ptilde2", "--disc", "-23", "--lmax", "21"),
    ("verify", "ptilde2", "--disc", "-23", "--lmax", "40"),
    ("zeta", "shintani", "--s", "2", "--w", "2", "--amax", "0"),
    ("zeta", "shintani", "--s", "2", "--w", "2", "--dmax", "-1"),
    ("zeta", "shintani", "--s", "2", "--w", "2", "--amax", "100000", "--dmax", "100000"),
    ("zeta", "shintani", "--s", "2", "--w", "2", "--amax", "1000001", "--dmax", "1"),
    ("verify", "local", "--order", "-1"),
    ("verify", "local", "--order", "1001"),
    ("zeta", "wmds", "--s", "2", "--w", "3", "--mmax", "0", "--dset", "5"),
    ("zeta", "wmds", "--s", "2", "--w", "3", "--mmax", "1000001", "--dset", "5"),
    ("classnum", "--disc", "-1000000000003"),
    # |m|, |n| above limits.MN_CAP: a prime near 10^18 would hang trial division
    ("cube", "orbits", "--disc", "-23", "--m", "1000000000000000003",
     "--n", "1000000000000000003"),
    ("cube", "orbits", "--disc", "-23", "--m", "1", "--n", "-1000000000001"),
    ("cube", "construct", "--disc", "-4000000000003", "--m", "1000000000001",
     "--n", "1", "--x", "1", "--y", "1"),
    # |D| above limits.DISC_CAP: rejected before is_fundamental factors D
    ("verify", "composition", "--disc", "-1000000000000000003"),
], ids=" ".join)
def test_out_of_range_sizes_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_cases_cap_is_checked_before_any_case(monkeypatch):
    def no_case(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(cubes, "random_borel_element", no_case)
    monkeypatch.setattr(altforms, "fuse", no_case)
    for suite in (cubes.verify_characters, altforms.verify_fusion):
        with pytest.raises(ValueError, match=f"at most {limits.CASES_CAP}"):
            suite(cases=limits.CASES_CAP + 1)


@pytest.mark.parametrize("argv, message", [
    (("zeta", "shintani", "--s", "-1000", "--w", "2"), "float range"),
    (("zeta", "wmds", "--s", "-1000", "--w", "2", "--mmax", "100", "--dset", "5"),
     "float range"),
    # every term finite, the products or the sum not
    (("zeta", "shintani", "--s", "-160", "--w", "-160", "--amax", "10", "--dmax", "10"),
     "float range"),
    (("zeta", "wmds", "--s", "-300", "--w", "-10", "--mmax", "10", "--dset", "5,-23"),
     "float range"),
    # terms of both signs overflow to inf and -inf, which math.fsum refuses
    (("zeta", "wmds", "--s", "-100", "--w", "-200", "--mmax", "10", "--dset", "5,-23"),
     "float range"),
    (("zeta", "shintani", "--s", "nan", "--w", "2"), "must be finite"),
    (("zeta", "shintani", "--s", "2", "--w", "inf"), "must be finite"),
    (("zeta", "wmds", "--s", "2", "--w", "1-infj", "--dset", "5"), "must be finite"),
    (("zeta", "wmds", "--s", "nan", "--w", "2", "--dset", "5"), "must be finite"),
    (("zeta", "wmds", "--s", "2", "--w", "2", "--dset", ","), "must not be empty"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_zeta_rejects_nonfinite_overflowing_and_empty_sums(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_verify_reports_are_seed_deterministic(capsys):
    _, a, _ = run(capsys, "verify", "fusion", "--cases", "300", "--seed", "7")
    _, b, _ = run(capsys, "verify", "fusion", "--cases", "300", "--seed", "7")
    ra, rb = json.loads(a), json.loads(b)
    del ra["elapsed_ms"], rb["elapsed_ms"]
    assert ra == rb


def test_zeta_shintani(capsys):
    code, out, _ = run(capsys, "zeta", "shintani", "--s", "2", "--w", "2",
                       "--amax", "1", "--dmax", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["xi1"]["re"] == 2.0 and rec["xi2"]["re"] == 0.0
    assert rec["value"]["re"] == 2.0


def test_zeta_wmds(capsys):
    code, out, _ = run(capsys, "zeta", "wmds", "--s", "2", "--w", "3",
                       "--mmax", "1", "--dset", "5")
    assert code == 0
    assert json.loads(out)["value"]["re"] == 5.0 ** -3


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag(capsys):
    code, _, _ = run(capsys, "classnum")
    assert code == 2


def test_help_lists_every_command_and_each_bound(capsys):
    for group in ((), ("cube",), ("verify",), ("zeta",)):
        code, out, _ = run(capsys, *group, "--help")
        assert code == 0
        for argv in LEAVES:
            if argv[:len(group)] == group:
                assert argv[len(group)] in out, argv
    bounds = (
        (("classnum",), limits.DISC_CAP),
        (("cube", "construct"), limits.MN_CAP),
        (("cube", "orbits"), limits.MN_CAP),
        (("verify", "prop2"), limits.N_CAP),
        (("zeta", "wmds"), limits.N_CAP),
        (("verify", "ptilde2"), limits.LMAX_CAP),
        (("zeta", "shintani"), limits.SHINTANI_CAP),
        (("verify", "local"), limits.ORDER_CAP),
        (("verify", "fusion"), limits.CASES_CAP),
        (("verify", "characters"), limits.CASES_CAP),
    )
    for argv, cap in bounds:
        code, out, _ = run(capsys, *argv, "--help")
        assert code == 0
        assert str(cap) in out.split(), argv


def in_fresh_interpreter(code, *flags):
    """The last line `code` prints, as a Python literal, when it runs in a new
    interpreter, started with `flags`, that defines loaded(): the cubeforms
    modules imported so far."""
    prelude = ("import sys\n"
               "def loaded():\n"
               "    return sorted(n.split('.')[1] for n in sys.modules\n"
               "                  if n.startswith('cubeforms.'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_each_command_imports_only_its_own_modules():
    # without bytecode caching a process compiles every module it imports
    assert in_fresh_interpreter(
        "import cubeforms\n"
        "before = loaded()\n"
        "print((before, cubeforms.arith.count_sqrt_mod(5, 4)))") == ([], 2)
    # qforms never imports fractions, so classnum loads none
    assert in_fresh_interpreter(
        "from cubeforms import cli\n"
        "cli.run(['classnum', '--disc', '-23'])\n"
        "print((loaded(), 'fractions' not in sys.modules))") == (
            ["arith", "cli", "limits", "qforms"], True)
    # series imports poly only for verify ptilde2, so prop2 loads no fractions
    assert in_fresh_interpreter(
        "from cubeforms import cli\n"
        "cli.run(['verify', 'prop2', '--disc', '-23', '--limit', '100'])\n"
        "print((loaded(), 'fractions' not in sys.modules))") == (
            ["arith", "cli", "limits", "report", "series"], True)
    # cubes imports fractions only to draw a Borel element, so the cube
    # commands and verify composition load no fractions, decimal or numbers
    for argv in (["cube", "construct", "--disc", "-23", "--m", "2", "--n", "3",
                  "--x", "1", "--y", "1"],
                 ["cube", "invariants", "--cube", "0,1,1,-6,1,-1,-6,0"],
                 ["cube", "orbits", "--disc", "-23", "--m", "2", "--n", "3"],
                 ["verify", "composition", "--disc", "-23"]):
        assert in_fresh_interpreter(
            "from cubeforms import cli\n"
            f"code = cli.run({argv!r})\n"
            "print((code, loaded(), [name for name in ('fractions', 'decimal', 'numbers')\n"
            "                        if name in sys.modules]))") == (
                0, ["arith", "cli", "cubes", "limits", "qforms", "report"], []), argv
    assert in_fresh_interpreter(
        "from cubeforms import cli\n"
        "cli.run(['verify', 'nosuch'])\n"
        "print(loaded())") == ["cli", "limits"]
