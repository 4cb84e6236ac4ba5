import csv
import io
import json

import pytest

from cubeforms import cli, cubes


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


def test_csv_and_json_agree(capsys):
    code, jout, _ = run(capsys, "classnum", "--disc", "-23")
    assert code == 0
    code, cout, _ = run(capsys, "--format", "csv", "classnum", "--disc", "-23")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(cout)))
    jrec = json.loads(jout)
    assert {k: int(v) for k, v in row.items()} == jrec


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


def test_cube_orbits(capsys):
    code, out, _ = run(capsys, "cube", "orbits", "--disc", "-23",
                       "--m", "2", "--n", "3")
    assert code == 0
    assert json.loads(out)["orbits"] == 4


REPORT_KEYS = ["suite", "status", "cases_run", "first_failure", "elapsed_ms"]


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
], ids=" ".join)
def test_out_of_range_sizes_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


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
