"""Benchmark harness for cubeforms: one workload, one seed, one process.

    python3 benchmarks/run.py --workload dirichlet --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src. The
workload is a closed loop with one client: each unit starts when the
previous one has returned. Units run until the time spent inside them
reaches --seconds (finishing the current round), and every output is
checked exactly, outside the unit timers.

--trace 0 prints the end-to-end metrics, with timings scaled to a
reference host speed measured during the run (speed_probe(); the raw
values are kept beside them; see NOTES.md). --trace 1 wraps the library's
public functions (tracing.py), runs the units traced, replays the same
units untraced to get the tracing overhead, and prints the per-layer
metrics. Progress lines go first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. A full result file
with provenance is written to benchmarks/out/. The exit code is 0 only
when every check passed.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 9                        # set-ups per run; setup_s is their median
LADDER = (50, 75, 90, 95, 99, 99.9)   # candidate tail percentiles
TAIL_BEYOND = 10                      # samples a tail percentile needs beyond it
CLI_REPS = 7                          # runs behind each cli.interpreter_ms / cli.import_ms
SPEED_REF_S = 0.002                   # speed_probe() time at the reference host speed
PROBE_EVERY_S = 0.1                   # wall time between speed probes
END_TO_END = ("setup_s", "cases_per_s", "unit_p50_ms", "unit_tail_ms", "peak_rss_mb")
MODULES = ("arith", "qforms", "cubes", "altforms", "series", "localfactors", "cli")


def import_library():
    """A fresh import of cubeforms (cached modules dropped first)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "cubeforms"]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("cubeforms." + m) for m in MODULES})


def set_up(cls, seed, with_library):
    """SETUP_REPS timed set-ups; the last is kept. A set-up is a fresh
    import, seeded input generation and a warm-up call; without the
    library (cli, untraced) it is input generation only, and the warm-up
    query runs untimed afterwards."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = import_library() if with_library else None
        wl = cls(lib, seed)
        if with_library:
            wl.warm_up()
        times.append(time.perf_counter() - t0)
    if not with_library:
        wl.warm_up()
    return wl, lib, times


def speed_probe():
    """Seconds taken by fixed pure-Python work that runs no cubeforms code
    (an int loop, Fraction sums, dict inserts and a sort)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(13_000):
        x += i * i % 7
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 97 + 1, i)
    d = {}
    for i in range(2_700):
        d[i * 7919 % 10007] = (i, str(i))
    sorted(d.values(), key=lambda v: -v[0])
    return time.perf_counter() - t0


def run_units(wl, seconds, tracer=None):
    """Run rounds until unit time reaches `seconds`; check every output.
    Between units, outside the timers, speed_probe() runs every PROBE_EVERY_S."""
    lat, units, failures, rates, probes = [], [], [], [], []
    cases = busy = 0
    r = 0
    last_probe = time.perf_counter()
    while busy < seconds and not (tracer and tracer.full()):
        round_cases, round_busy = cases, busy
        for unit in wl.round(r):
            t0 = time.perf_counter()
            try:
                out = tracer.run_unit(unit.kind, unit.run) if tracer else unit.run()
                error = None
            except Exception as exc:  # a unit that raises is a failed operation
                error = f"{unit.kind} raised {exc!r}"
            dt = time.perf_counter() - t0
            lat.append(dt)
            busy += dt
            if tracer:
                units.append(unit)  # replayed untraced for the overhead ratio
            if error is None:
                try:
                    n, error = unit.check(out)
                    cases += n
                except Exception as exc:
                    error = f"{unit.kind} output unreadable: {exc!r}"
            if error:
                failures.append(error)
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                last_probe = time.perf_counter()
        rates.append((cases - round_cases) / (busy - round_busy))
        r += 1
    if not probes:
        probes.append(speed_probe())
    return SimpleNamespace(lat=lat, units=units, failures=failures, cases=cases, busy=busy,
                           rates=rates, probes=probes)


def replay(units):
    """Unit time of the same units again, untraced and unchecked."""
    busy, lat = 0.0, []
    for unit in units:
        t0 = time.perf_counter()
        unit.run()
        lat.append(time.perf_counter() - t0)
        busy += lat[-1]
    return busy, lat


def tail(lat):
    """(percentile, value, samples beyond): the highest LADDER percentile
    (nearest rank) with at least TAIL_BEYOND samples beyond it; the
    maximum when there is none."""
    values = sorted(lat)
    for p in reversed(LADDER):
        k = max(1, math.ceil(p / 100 * len(values)))
        if len(values) - k >= TAIL_BEYOND:
            return p, values[k - 1], len(values) - k
    return 100, values[-1], 0


def git_commit():
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubeforms").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": git_commit(), "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def end_to_end(m, setup_times, rss_who):
    """End-to-end metrics. Times are scaled to the reference host speed:
    raw * speed (rates raw / speed), with speed = SPEED_REF_S / median
    speed_probe() time of the run; the raw value is kept beside it."""
    speed = SPEED_REF_S / statistics.median(m.probes)
    p, tail_s, beyond = tail(m.lat)
    n = len(m.lat)
    rss = resource.getrusage(rss_who).ru_maxrss / 1024  # KiB on Linux
    raw = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times),
                    f"median of {len(setup_times)} set-ups"),
        "cases_per_s": (statistics.median(m.rates), "1/s", len(m.rates),
                        f"median of {len(m.rates)} rounds; {m.cases} cases in "
                        f"{m.busy:.3f} s of unit time"),
        "unit_p50_ms": (statistics.median(m.lat) * 1e3, "ms", n, f"median of {n} units"),
        "unit_tail_ms": (tail_s * 1e3, "ms", n, f"p{p:g}, {beyond} units beyond it, of {n}"),
    }
    out = {}
    for name, (value, unit, samples, note) in raw.items():
        scaled = value / speed if unit == "1/s" else value * speed
        out[name] = {"value": scaled, "unit": unit, "raw": value, "samples": samples,
                     "note": f"raw {value:.6g}; {note}"}
    out["unit_tail_ms"].update(percentile=p, beyond=beyond)
    out["peak_rss_mb"] = {"value": rss, "unit": "MiB", "samples": 1, "note": "ru_maxrss of the " +
                          ("children" if rss_who == resource.RUSAGE_CHILDREN else "process")}
    out["error_rate"] = {"value": len(m.failures) / n, "unit": "ratio", "samples": n,
                         "note": f"{len(m.failures)} failed of {n} attempted"}
    out["host_speed"] = {"value": speed, "unit": "ratio", "samples": len(m.probes),
                         "note": f"{SPEED_REF_S} s / median speed_probe() time"}
    return out


def per_layer(tracer, traced, untraced_busy, extra):
    """Per-layer metrics from the spans and counters of the traced units."""
    stats = tracer.per_function()
    c = tracer.counts
    units = len(traced.lat)
    out = {}

    def put(name, value, unit, samples=units):
        out[name] = {"value": value, "unit": unit, "samples": samples}

    def share(num, den):  # 0.0 when the base is 0: the layer was not exercised
        return num / den if den else 0.0

    for layer, functions in tracing.TRACED.items():
        total, spans = 0.0, 0
        for fn in functions:
            calls, self_s = stats.get(f"{layer}.{fn}", (0, 0.0))
            put(f"{layer}.{fn}.calls", calls, "count")
            put(f"{layer}.{fn}.self_s", self_s, "s", calls)
            total += self_s
            spans += calls
        put(f"{layer}.self_s", total, "s", spans)
    factorize_calls = out["arith.factorize.calls"]["value"]
    sqrt_calls = out["arith.count_sqrt_mod.calls"]["value"]
    put("arith.factorize.distinct_share",
        share(len(tracer.factorize_args), factorize_calls), "ratio", factorize_calls)
    put("arith.count_sqrt_mod.zero_share",
        share(c["count_sqrt_mod.zero"], sqrt_calls), "ratio", sqrt_calls)
    put("cubes.solutions_in_window.hit_share",
        share(c["solutions_in_window.hits"], c["solutions_in_window.scanned"]), "ratio",
        out["cubes.solutions_in_window.calls"]["value"])
    put("series.coeffs_computed", c["coeffs_computed"], "count")
    put("localfactors.mul.coeff_products", c["mul.coeff_products"], "count")
    for name in ("interpreter_ms", "import_ms"):
        put("cli." + name, extra.get(name, 0.0), "ms", CLI_REPS if extra else 0)
    put("cli.run_ms", extra.get("run_ms", 0.0), "ms", units if extra else 0)
    put("trace.overhead_ratio", traced.busy / untraced_busy, "ratio")
    return out


def median_wall_ms(argv, env):
    """Median wall time (ms) of CLI_REPS runs of a command, one at a time."""
    times = []
    for _ in range(CLI_REPS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cli_start_costs(env):
    interpreter = median_wall_ms([sys.executable, "-c", "pass"], env)
    imported = median_wall_ms([sys.executable, "-c", "import cubeforms.cli"], env)
    return {"interpreter_ms": interpreter, "import_ms": imported - interpreter}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "cubeforms" / "__init__.py").is_file():
        print(f"error: no cubeforms package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    cls = workloads.WORKLOADS[args.workload]
    is_cli = args.workload == "cli"
    # users of the CLI pay the import on every query, so its set-up is input generation only
    wl, lib, setup_times = set_up(cls, args.seed, with_library=args.trace == 1 or not is_cli)
    prov = provenance(args)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {prov['git_commit']}  python {prov['python']}  nproc {prov['nproc']}",
          flush=True)

    if args.trace == 0:
        m = run_units(wl, args.seconds)
        metrics = end_to_end(m, setup_times,
                             resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        report = {k: metrics[k] for k in END_TO_END}
    else:
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            m = run_units(wl, args.seconds, tracer)
        finally:
            tracer.uninstall()
        untraced_busy, untraced_lat = replay(m.units)
        extra = {}
        if is_cli:
            extra = cli_start_costs(wl.env)
            extra["run_ms"] = statistics.median(untraced_lat) * 1e3
        metrics = per_layer(tracer, m, untraced_busy, extra)
        report = metrics
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}.spans.tsv.gz"
        tracer.write(spans_path, {"provenance": prov})
        prov["spans_file"] = str(spans_path.relative_to(ROOT))
        prov["spans"] = len(tracer.start)

    for name, rec in metrics.items():
        print(f"{name:<44} {rec['value']:>14.6g} {rec['unit']:<6} {rec.get('note', '')}")
    for error in m.failures[:10]:
        print("FAIL", error)

    OUT.mkdir(exist_ok=True)
    result = {"provenance": prov, "attempted": len(m.lat), "failed": len(m.failures),
              "failures": m.failures[:100], "metrics": metrics}
    path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": not m.failures, "attempted": len(m.lat),
                      "failed": len(m.failures),
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in report.items()}}), flush=True)
    return 0 if not m.failures else 1


if __name__ == "__main__":
    sys.exit(main())
