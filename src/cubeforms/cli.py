"""Command-line front end.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 invalid input, 3 internal error (a library postcondition failed).
Data goes to stdout (JSON or CSV), diagnostics to stderr.

One table, COMMANDS, drives the command tree: build_parser makes one leaf
parser per entry and _call runs it. A leaf imports its library module only
when it runs, so a process compiles only what its command calls: without
bytecode caching, what it imports is what it compiles. The call looks the
library function up on its module, so a function patched there is the one
that runs. A leaf with a result key prints its flag values in flag order,
then its result under the key; a leaf without one prints its result, a
suite report or another record.
"""

import argparse
import importlib
import json
import sys

from . import limits


def _complex(z):
    # json.dumps calls this for what it cannot encode itself
    if not isinstance(z, complex):
        raise TypeError(f"{type(z).__name__} is not JSON serializable")
    return {"re": z.real, "im": z.imag}


def _emit(record, fmt):
    if fmt == "json":
        print(json.dumps(record, default=_complex))
        return
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(record)
    writer.writerow([json.dumps(v, default=_complex)
                     if isinstance(v, (dict, list, tuple, complex)) else v
                     for v in record.values()])


def _int_entry(text, what):
    # for a ValueError argparse would name the parser function, not the entry
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} entry is not an integer: {text!r}") from None


def _parse_cube(text):
    parts = text.split(",")
    if len(parts) != 8:
        raise argparse.ArgumentTypeError("cube literal needs 8 comma-separated integers")
    return [_int_entry(p, "cube") for p in parts]


def _parse_complex(text):
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text}") from exc


def _parse_disc_list(text):
    return [_int_entry(p, "discriminant") for p in text.split(",") if p.strip()]


def _construct(cubes, a):
    A = cubes.construct_cube(a.disc, a.m, a.n, a.x, a.y)
    return {"cube": A, "Q1": cubes.qform(A, 1), "Q2": cubes.qform(A, 2),
            "Q3": cubes.qform(A, 3), "disc": cubes.disc(A)}


def _invariants(cubes, a):
    return dict(zip(("disc", "m", "n", "x", "y"), cubes.invariant_tuple(a.cube)))


_GROUPS = {"cube": "cube operations", "verify": "verification suites",
           "zeta": "truncated double-sum evaluation"}

# flags are (name, type, default, help); a default of None makes the flag required
_MN = f"nonzero, absolute value at most {limits.MN_CAP}"
_SHINTANI = f"at least 1, amax * dmax at most {limits.SHINTANI_CAP}"
_SEEDED = (("seed", int, 0, None), ("cases", int, 10000, f"at most {limits.CASES_CAP}"))
_S_W = (("s", _parse_complex, None, None), ("w", _parse_complex, None, None))

# leaf path: (help, module, call(module, args), flags, result key)
COMMANDS = {
    ("classnum",): (
        "class number of a negative fundamental discriminant", "arith",
        lambda arith, a: arith.class_number(a.disc),
        (("disc", int, None, f"|disc| at most {limits.DISC_CAP}"),), "h"),
    ("sqrtcount",): (
        "A(d, a): solutions of x^2 = d (mod a)", "arith",
        lambda arith, a: arith.count_sqrt_mod(a.d, a.mod),
        (("d", int, None, None), ("mod", int, None, None)), "count"),
    ("cube", "construct"): (
        None, "cubes", _construct,
        (("disc", int, None, None), ("m", int, None, _MN), ("n", int, None, _MN),
         ("x", int, None, None), ("y", int, None, None)), None),
    ("cube", "invariants"): (
        None, "cubes", _invariants,
        (("cube", _parse_cube, None,
          "a,b,c,d,e,f,g,h (front face row-major, then back face)"),), None),
    ("cube", "orbits"): (
        None, "cubes", lambda cubes, a: cubes.count_orbits(a.disc, a.m, a.n),
        (("disc", int, None, None), ("m", int, None, _MN), ("n", int, None, _MN)), "orbits"),
    ("verify", "prop2"): (
        None, "series", lambda series, a: series.verify_prop2(a.disc, a.limit),
        (("disc", int, None, None),
         ("limit", int, 5000, f"indices m checked, 1 to {limits.N_CAP}")), None),
    ("verify", "ptilde2"): (
        None, "series", lambda series, a: series.verify_ptilde2(a.disc, a.lmax),
        (("disc", int, None, None),
         ("lmax", int, 6, f"levels checked modulo 2^(l+2), 0 to {limits.LMAX_CAP}")), None),
    ("verify", "composition"): (
        None, "cubes", lambda cubes, a: cubes.verify_composition_law(a.disc),
        (("disc", int, None, None),), None),
    ("verify", "local"): (
        None, "localfactors",
        lambda localfactors, a: localfactors.verify_local_identities(order=a.order),
        (("order", int, 40, f"series truncation order, 0 to {limits.ORDER_CAP}"),), None),
    ("verify", "fusion"): (
        None, "altforms", lambda altforms, a: altforms.verify_fusion(seed=a.seed, cases=a.cases),
        _SEEDED, None),
    ("verify", "characters"): (
        None, "cubes", lambda cubes, a: cubes.verify_characters(seed=a.seed, cases=a.cases),
        _SEEDED, None),
    ("zeta", "shintani"): (
        None, "series",
        lambda series, a: series.shintani_Z(a.s, a.w, a.amax, a.dmax)._asdict(),
        _S_W + (("amax", int, 100, _SHINTANI), ("dmax", int, 100, _SHINTANI)), None),
    ("zeta", "wmds"): (
        None, "series", lambda series, a: series.wmds_Z(a.s, a.w, a.mmax, a.dset),
        _S_W + (("mmax", int, 100, f"largest m summed, 1 to {limits.N_CAP}"),
                ("dset", _parse_disc_list, None, "comma-separated odd discriminants")), "value"),
}


def build_parser():
    """The command tree: one leaf parser per COMMANDS entry, which records
    its path in `leaf`."""
    ap = argparse.ArgumentParser(
        prog="cubeforms",
        description="Exact computations on quadratic forms, 2x2x2 cubes, "
                    "alternating-form pairs and local L-factors.")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    subparsers = {(): ap.add_subparsers(dest="command", required=True)}
    for path, (leaf_help, _, _, flags, _) in COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:
            subparsers[group] = subparsers[()].add_parser(
                group[0], help=_GROUPS[group[0]]).add_subparsers(
                    dest=group[0] + "_command", required=True)
        # help=None would still list the leaf, with an empty line, under its group
        p = subparsers[group].add_parser(path[-1], **({"help": leaf_help} if leaf_help else {}))
        for name, type_, default, flag_help in flags:
            p.add_argument("--" + name, type=type_, default=default,
                           required=default is None, help=flag_help)
        p.set_defaults(leaf=path)
    return ap


def _call(args):
    """The record of the leaf that `args` names."""
    _, module, call, flags, key = COMMANDS[args.leaf]
    result = call(importlib.import_module("." + module, __package__), args)
    if key is None:
        return result
    return {**{name: getattr(args, name) for name, *_ in flags}, key: result}


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        record = _call(args)
        _emit(record, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    # only suite reports carry a status
    return 1 if record.get("status") == "fail" else 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
