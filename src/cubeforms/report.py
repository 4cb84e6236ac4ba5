"""The report shape and the case loop shared by every verification suite."""

import time


def report(suite, check, **extra):
    """Suite report with keys suite, status, cases_run, first_failure and
    elapsed_ms, then `extra` in the order given.

    `check()` returns (cases_run, failure) and is what elapsed_ms times;
    `failure` is None on a pass, otherwise a dict describing the first
    failing case.
    """
    t0 = time.monotonic()
    cases_run, failure = check()
    return {
        "suite": suite,
        "status": "pass" if failure is None else "fail",
        "cases_run": cases_run,
        "first_failure": failure,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
        **extra,
    }


def run(suite, cases, **extra):
    """Report on `cases`, an iterable with one result per case: None for a
    pass, otherwise the failure dict. Stops at the first failure, counts
    only the cases it ran, and raises ValueError when there is no case, so
    that no suite passes vacuously."""
    return report(suite, lambda: _first_failure(suite, cases), **extra)


def _first_failure(suite, cases):
    cases_run, failure = 0, None
    for cases_run, failure in enumerate(cases, 1):
        if failure is not None:
            break
    if cases_run == 0:
        raise ValueError(f"suite {suite} has no cases to run")
    return cases_run, failure
