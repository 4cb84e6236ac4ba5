"""The four benchmark workloads: dirichlet, cubes, local and cli.

A workload is built from a seed (its set-up: seeded input generation),
then hands out rounds of units. A unit is the smallest call a user makes
in that workload; its `check` turns the unit's output into the number of
exact checks it completed and a failure message (or None). Checks run
outside the unit's timer. Each round has a fixed mix of unit kinds, and
the harness only stops between rounds, so the mix is the same in every
run whatever its length. See NOTES.md for why each workload exists.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import oracles

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SRC = HERE.parent / "src"

ROUNDS = 400  # pre-generated rounds; the schedule repeats after that


class Unit(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (cases, failure or None)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def shuffled_cycle(rng, pool):
    """Endless seeded shuffles of pool, so every item recurs equally often
    and the input mix is nearly the same in every run."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _report_error(rep, suite, cases_run, **extra):
    """None when a verify_* report passed with the expected fields."""
    want = {"suite": suite, "status": "pass", "cases_run": cases_run,
            "first_failure": None, **extra}
    got = {k: rep.get(k) for k in want}
    return None if got == want else f"report {got} != {want}"


# -- dirichlet ---------------------------------------------------------------

N_SHORT = 2000
N_LONG = 16000
OMEGAS = (1, 2, 3, 4)


def dirichlet_pools():
    """Fixed discriminant pools, {omega: [D, ...]}, short and long.

    Odd fundamental D with |D| <= 10^4, grouped by their number of prime
    factors and sampled at a fixed stride. Seeds only choose among these,
    so every (D, N) a run can meet has a digest in reference.json.
    """
    groups = {k: [] for k in OMEGAS}
    for a in range(3, 10001, 2):
        for D in (-a, a):
            if oracles.is_odd_fundamental(D) and oracles.omega(D) in groups:
                groups[oracles.omega(D)].append(D)
    short = {k: v[:: max(1, len(v) // 16)][:16] for k, v in groups.items()}
    long = {k: v[len(v) // 13:: max(1, len(v) // 6)][:6] for k, v in groups.items()}
    return short, long


class Dirichlet:
    """verify_prop2(D, N): 8 short units (two per omega group) and 2 long
    ones per round. One case is one index m checked."""

    def __init__(self, lib, seed):
        ref = load_reference()["dirichlet"]
        if (ref["n_short"], ref["n_long"]) != (N_SHORT, N_LONG):
            raise SystemExit("reference.json was recorded for other N")
        self.lib = lib
        self.digests = {(D, N): d for D, N, d in ref["digests"]}
        short = {int(k): v for k, v in ref["short"].items()}
        long = {int(k): v for k, v in ref["long"].items()}
        rng = random.Random(seed)
        short = {k: shuffled_cycle(rng, v) for k, v in short.items()}
        long = {k: shuffled_cycle(rng, v) for k, v in long.items()}
        self.schedule = []
        for r in range(ROUNDS):
            cells = [(next(short[k]), N_SHORT) for k in OMEGAS for _ in range(2)]
            cells += [(next(long[OMEGAS[(2 * r + i) % 4]]), N_LONG) for i in range(2)]
            rng.shuffle(cells)
            self.schedule.append(cells)
        self.checked = {}

    def warm_up(self):
        D = self.schedule[0][0][0]
        self.lib.series.verify_prop2(D, 200)

    def round(self, r):
        return [self._unit(D, N) for D, N in self.schedule[r % ROUNDS]]

    def _unit(self, D, N):
        series = self.lib.series

        def check(rep):
            return N, _report_error(rep, "prop2", N) or self._check_vectors(D, N)

        return Unit("prop2_short" if N == N_SHORT else "prop2_long",
                    lambda: series.verify_prop2(D, N), check)

    def _check_vectors(self, D, N):
        # once per distinct (D, N): both vectors equal and equal to the record
        if (D, N) not in self.checked:
            lhs = self.lib.series.coeffs_A(D, N)
            rhs = self.lib.series.coeffs_rhs(D, N)
            err = None
            if lhs != rhs:
                err = f"coeffs_A != coeffs_rhs for D={D}, N={N}"
            elif oracles.digest(lhs) != self.digests.get((D, N)):
                err = f"coefficient digest differs from the record for D={D}, N={N}"
            self.checked[(D, N)] = err
        return self.checked[(D, N)]


# -- cubes -------------------------------------------------------------------

WINDOW = 6             # cells (D, m, n) with 0 < |m|, |n| <= WINDOW
CHARACTER_CASES = 100  # cases per verify_characters batch
FUSION_CASES = 400     # cases per verify_fusion batch


def cell_discs():
    return [D for a in range(3, 301, 2) for D in (-a, a) if oracles.is_odd_fundamental(D)]


def composition_pool(count=48, hmin=10, hmax=24, bound=4000):
    """Negative odd fundamental D, |D| <= bound, with hmin <= h(D) <= hmax,
    as [[D, h], ...] at a fixed stride."""
    pool = []
    for a in range(3, bound + 1, 4):
        D = -a
        h = oracles.class_number(D) if oracles.is_odd_fundamental(D) else 0
        if hmin <= h <= hmax:
            pool.append([D, h])
    return pool[:: max(1, len(pool) // count)][:count]


class Cubes:
    """Per round: every cell of one D's window, one composition-law check
    and one batch each of verify_characters and verify_fusion."""

    def __init__(self, lib, seed):
        self.lib = lib
        discs = cell_discs()
        comp = load_reference()["cubes"]["composition"]
        rng = random.Random(seed)
        ms = [m for m in range(-WINDOW, WINDOW + 1) if m]
        self.windows = {D: {m: oracles.window_solutions(D, m) for m in ms} for D in discs}
        discs, comp = shuffled_cycle(rng, discs), shuffled_cycle(rng, comp)
        self.schedule = []
        for _ in range(ROUNDS):
            units = [("cell", next(discs))]
            units += [("composition", *next(comp)),
                      ("characters", rng.randrange(2**32)),
                      ("fusion", rng.randrange(2**32))]
            self.schedule.append((units, rng.randrange(2**32)))

    def warm_up(self):
        self.lib.cubes.verify_composition_law(-23)
        self._cell(-23, 2, 3).run()

    def round(self, r):
        heads, shuffle_seed = self.schedule[r % ROUNDS]
        units = []
        for kind, *args in heads:
            if kind == "cell":
                D = args[0]
                units += [self._cell(D, m, n) for m in self.windows[D] for n in self.windows[D]]
            else:
                units.append(getattr(self, "_" + kind)(*args))
        random.Random(shuffle_seed).shuffle(units)
        return units

    def _cell(self, D, m, n):
        cubes = self.lib.cubes

        def run():
            xs = cubes.solutions_in_window(D, m)
            ys = cubes.solutions_in_window(D, n)
            built = [(x, y, cubes.construct_cube(D, m, n, x, y)) for x in xs for y in ys]
            tuples = [cubes.invariant_tuple(A) for _, _, A in built]
            return xs, ys, built, tuples, cubes.count_orbits(D, m, n)

        def check(out):
            xs, ys, built, tuples, orbits = out
            cases = len(built) + 1
            if xs != self.windows[D][m] or ys != self.windows[D][n]:
                return cases, f"solutions_in_window wrong at D={D}, m={m}, n={n}"
            for (x, y, A), t in zip(built, tuples):
                err = oracles.cube_error(A, D, m, n, x, y)
                if err:
                    return cases, err
                if tuple(t) != oracles.cube_invariants(A):
                    return cases, f"invariant_tuple of {list(A)} is {tuple(t)}"
            if len(set(tuples)) != orbits:
                return cases, (f"{len(set(tuples))} invariant tuples but "
                               f"count_orbits({D}, {m}, {n}) = {orbits}")
            return cases, None

        return Unit("cell", run, check)

    def _composition(self, D, h):
        cubes = self.lib.cubes
        return Unit("composition", lambda: cubes.verify_composition_law(D),
                    lambda rep: (h * h, _report_error(
                        rep, "composition", h * h, disc=D, class_number=h,
                        cube_classes=h * h)))

    def _characters(self, seed):
        cubes = self.lib.cubes
        return Unit("characters",
                    lambda: cubes.verify_characters(seed=seed, cases=CHARACTER_CASES),
                    lambda rep: (CHARACTER_CASES, _report_error(
                        rep, "characters", CHARACTER_CASES)))

    def _fusion(self, seed):
        altforms = self.lib.altforms
        return Unit("fusion",
                    lambda: altforms.verify_fusion(seed=seed, cases=FUSION_CASES),
                    lambda rep: (FUSION_CASES, _report_error(rep, "fusion", FUSION_CASES)))


# -- local -------------------------------------------------------------------

ORDERS = (12, 20, 28)
HEIGHTS = {"small": (1, 9), "medium": (10, 99), "large": (10000, 99999)}
D_SPLIT, D_INERT, P = -23, 5, 3  # verify_local_identities' own defaults


def alpha_pool(per_class=16):
    """{height class: [alpha, ...]}: nonzero alpha with alpha^2 != 1 whose
    reduced numerator and denominator lie in the class's range."""
    rng = random.Random(1510)
    pool = {}
    for name, (lo, hi) in HEIGHTS.items():
        found = []
        while len(found) < per_class:
            q = Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
            if q * q != 1 and lo <= abs(q.numerator) <= hi and lo <= q.denominator <= hi \
                    and q not in found:
                found.append(q)
        pool[name] = found
    return pool


def local_chain(localfactors, alpha, order):
    """(error or None, split-chain coefficients) for one alpha and order."""
    split = localfactors.local_A_integral(D_SPLIT, P, alpha, order).coeffs
    ratio = localfactors.lfactor_ratio_split(alpha, order).coeffs
    middle = localfactors.split_product_form(alpha, order).coeffs
    one = [1] + [0] * order
    if not split == ratio == middle:
        return f"split chain not equal at alpha={alpha}, order={order}", split
    if localfactors.local_A_integral(D_INERT, P, alpha, order).coeffs != one \
            or localfactors.lfactor_ratio_inert(alpha, order).coeffs != one:
        return f"inert chain not identically 1 at alpha={alpha}, order={order}", split
    return None, split


class Local:
    """verify_local_identities for one alpha at one order; per round one
    alpha of each height class at each order. One case is one series
    coefficient checked."""

    def __init__(self, lib, seed):
        ref = load_reference()["local"]
        if tuple(ref["orders"]) != ORDERS:
            raise SystemExit("reference.json was recorded for other orders")
        self.lib = lib
        self.digests = {(a, o): d for a, o, d in ref["digests"]}
        rng = random.Random(seed)
        pool = {k: shuffled_cycle(rng, [Fraction(a) for a in v]) for k, v in ref["alphas"].items()}
        self.schedule = []
        for _ in range(ROUNDS):
            cells = [(next(pool[k]), o) for k in HEIGHTS for o in ORDERS]
            rng.shuffle(cells)
            self.schedule.append(cells)
        self.checked = {}

    def warm_up(self):
        self.lib.localfactors.verify_local_identities(alphas=(2,), order=6)

    def round(self, r):
        return [self._unit(a, o) for a, o in self.schedule[r % ROUNDS]]

    def _unit(self, alpha, order):
        localfactors = self.lib.localfactors

        def check(rep):
            return order + 1, _report_error(rep, "local", 1) or self._check_chain(alpha, order)

        return Unit(f"order{order}",
                    lambda: localfactors.verify_local_identities(alphas=(alpha,), order=order),
                    check)

    def _check_chain(self, alpha, order):
        key = (str(alpha), order)
        if key not in self.checked:
            err, split = local_chain(self.lib.localfactors, alpha, order)
            if err is None and oracles.digest(split) != self.digests.get(key):
                err = f"coefficient digest differs from the record at alpha={alpha}, order={order}"
            self.checked[key] = err
        return self.checked[key]


# -- cli ---------------------------------------------------------------------

CLI_WINDOW = 12


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _expect_record(want):
    """Exit 0 and a JSON record equal to `want`, elapsed_ms ignored."""
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        rec = json.loads(out)
        rec.pop("elapsed_ms", None)
        return None if rec == want else f"record {rec} != {want}"
    return check


def _expect_cube(D, m, n, x, y):
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        rec = json.loads(out)
        A = rec["cube"]
        forms = [list(Q) for Q in oracles.cube_forms(A)]
        want = {"cube": A, "Q1": forms[0], "Q2": forms[1], "Q3": forms[2], "disc": D}
        if rec != want:
            return f"record {rec} != {want}"
        return oracles.cube_error(A, D, m, n, x, y)
    return check


def _expect_rejection(code, out):
    if code != 2 or out:
        return f"exit {code} with output {out!r}, expected exit 2 and no output"
    return None


class Cli:
    """One `python -m cubeforms.cli` process per query, the next query only
    after the previous one exits. Per round: twelve queries, four of them
    heavier verify suites and two invalid. Given a library (the traced run),
    the same queries run in-process through cli.run(argv) instead."""

    def __init__(self, lib, seed):
        self.lib = lib
        self.env = _cli_env()
        ref = load_reference()
        self.comp = ref["cubes"]["composition"]
        self.discs = cell_discs()
        rng = random.Random(seed)
        kinds = ("classnum", "sqrtcount", "construct", "invariants", "orbits",
                 "ptilde2", "composition", "composition", "local", "local",
                 "invalid", "invalid")
        self.schedule = []
        for _ in range(ROUNDS // 10):
            queries = [(k, *getattr(self, "_q_" + k)(rng)) for k in kinds]
            rng.shuffle(queries)
            self.schedule.append(queries)

    def warm_up(self):
        """One query run the way the units run, so the first timed query
        does not pay for writing bytecode caches."""
        self._run(["classnum", "--disc", "-23"])

    def round(self, r):
        return [Unit(kind, lambda argv=argv: self._run(argv),
                     lambda out, check=check: (1, check(*out)))
                for kind, argv, check in self.schedule[r % len(self.schedule)]]

    def _run(self, argv):
        """(exit code, stdout) of one query."""
        if self.lib is not None:
            return self._run_inprocess(argv)
        return self._run_subprocess(argv)

    def _run_subprocess(self, argv):
        proc = subprocess.run([sys.executable, "-m", "cubeforms.cli", *argv],
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def _run_inprocess(self, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.lib.cli.run(argv)
        return code, out.getvalue()

    # query generators: (argv, check(code, stdout) -> failure or None)

    def _pick_cell(self, rng):
        while True:
            D = rng.choice(self.discs)
            m, n = (rng.choice([k for k in range(-CLI_WINDOW, CLI_WINDOW + 1) if k])
                    for _ in range(2))
            xs, ys = oracles.window_solutions(D, m), oracles.window_solutions(D, n)
            if xs and ys:
                return D, m, n, xs, ys

    def _q_classnum(self, rng):
        D, h = rng.choice(self.comp)
        return ["classnum", "--disc", str(D)], _expect_record({"disc": D, "h": h})

    def _q_sqrtcount(self, rng):
        d, a = rng.randint(-500, 500), rng.randint(1, 3000)
        return (["sqrtcount", "--d", str(d), "--mod", str(a)],
                _expect_record({"d": d, "mod": a, "count": oracles.sqrt_count(d, a)}))

    def _q_construct(self, rng):
        D, m, n, xs, ys = self._pick_cell(rng)
        x, y = rng.choice(xs), rng.choice(ys)
        argv = ["cube", "construct", "--disc", str(D), "--m", str(m), "--n", str(n),
                "--x", str(x), "--y", str(y)]
        return argv, _expect_cube(D, m, n, x, y)

    def _q_invariants(self, rng):
        invariants = None
        while invariants is None:
            A = [rng.randint(-9, 9) for _ in range(8)]
            invariants = oracles.cube_invariants(A)
        D, m, n, x, y = invariants
        return (["cube", "invariants", "--cube=" + ",".join(map(str, A))],
                _expect_record({"disc": D, "m": m, "n": n, "x": x, "y": y}))

    def _q_orbits(self, rng):
        D = rng.choice(self.discs)
        m, n = rng.randint(1, CLI_WINDOW) * rng.choice((-1, 1)), rng.randint(1, CLI_WINDOW)
        orbits = Fraction(oracles.sqrt_count(D, 4 * abs(m)) * oracles.sqrt_count(D, 4 * n), 4)
        return (["cube", "orbits", "--disc", str(D), "--m", str(m), "--n", str(n)],
                _expect_record({"disc": D, "m": m, "n": n,
                                "orbits": oracles.json_fraction(orbits)}))

    def _q_ptilde2(self, rng):
        D = rng.choice([d for d in range(-399, 400) if d % 4 == 1 and abs(d) > 1])
        lmax = rng.randint(2, 8)
        return (["verify", "ptilde2", "--disc", str(D), "--lmax", str(lmax)],
                _expect_record({"suite": "ptilde2", "status": "pass", "cases_run": lmax + 2,
                                "first_failure": None, "ratio": 2}))

    def _q_composition(self, rng):
        D, h = rng.choice(self.comp)
        return (["verify", "composition", "--disc", str(D)],
                _expect_record({"suite": "composition", "status": "pass",
                                "cases_run": h * h, "first_failure": None, "disc": D,
                                "class_number": h, "cube_classes": h * h}))

    def _q_local(self, rng):
        order = rng.randint(6, 12)
        return (["verify", "local", "--order", str(order)],
                _expect_record({"suite": "local", "status": "pass", "cases_run": 4,
                                "first_failure": None}))

    def _q_invalid(self, rng):
        """Inputs that already exit 2 at the parent commit: argparse errors
        and the ValueError checks of construct_cube, enumerate_class_group
        and count_sqrt_mod. Unbounded inputs that never finish (a huge
        classnum, ptilde2 with a large lmax) are deliberately absent."""
        D, m, n, xs, ys = self._pick_cell(rng)
        bad_x = [x for x in range(2 * abs(m)) if x not in xs]
        non_fundamental = rng.choice((-9, -25, -49)) * rng.choice((1, 5, 13, 17))
        choices = [
            ["sqrtcount", "--d", str(rng.randint(-50, 50))],
            ["classnum", "--disc", f"x{rng.randint(1, 99)}"],
            ["cube", "invariants", "--cube=" + ",".join(str(rng.randint(-9, 9)) for _ in range(7))],
            ["verify", "nosuch"],
            ["cube", "construct", "--disc", str(D), "--m", str(m), "--n", str(n),
             "--x", str(2 * abs(m) + rng.randint(0, 5)), "--y", str(ys[0])],
            ["classnum", "--disc", str(rng.choice((1, 5, 13, 21, 29)) * rng.randint(1, 50))],
            ["classnum", "--disc", str(non_fundamental)],
            ["sqrtcount", "--d", str(rng.randint(-50, 50)), "--mod", str(rng.randint(-100, 0))],
        ]
        if bad_x:
            choices.append(["cube", "construct", "--disc", str(D), "--m", str(m),
                            "--n", str(n), "--x", str(rng.choice(bad_x)), "--y", str(ys[0])])
        return rng.choice(choices), _expect_rejection


WORKLOADS = {"dirichlet": Dirichlet, "cubes": Cubes, "local": Local, "cli": Cli}
