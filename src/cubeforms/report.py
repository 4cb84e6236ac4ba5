"""The report shape shared by every verification suite."""

import time


def report(suite, t0, cases_run, failure, **extra):
    """Suite report with keys suite, status, cases_run, first_failure and
    elapsed_ms, then `extra` in the order given.

    `t0` is the suite's `time.monotonic()` start; `failure` is None on a
    pass, otherwise a dict describing the first failing case.
    """
    return {
        "suite": suite,
        "status": "pass" if failure is None else "fail",
        "cases_run": cases_run,
        "first_failure": failure,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
        **extra,
    }
