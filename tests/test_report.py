import pytest

from cubeforms import report


def test_run_stops_at_first_failure():
    failure = {"inputs": 2, "expected": 0, "actual": 1}
    cases = iter([None, None, failure, None])
    rep = report.run("demo", cases, extra=7)
    assert list(rep) == ["suite", "status", "cases_run", "first_failure",
                         "elapsed_ms", "extra"]
    assert rep["status"] == "fail" and rep["cases_run"] == 3
    assert rep["first_failure"] is failure
    # the case after the failure is never pulled
    assert list(cases) == [None]
    assert report.run("demo", [None])["status"] == "pass"


def test_run_rejects_no_cases():
    with pytest.raises(ValueError, match="no cases"):
        report.run("demo", [])
