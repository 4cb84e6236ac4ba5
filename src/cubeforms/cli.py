"""Command-line front end.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 invalid input, 3 internal error (a library postcondition failed).
Data goes to stdout (JSON or CSV), diagnostics to stderr.

Each handler imports its library module when it runs, so a process
compiles only what its command calls: without bytecode caching, what it
imports is what it compiles. Handlers call the library through module
attributes, so a function patched on its module is the one that runs.
"""

import argparse
import json
import sys


def _jsonable(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(record, fmt):
    record = _jsonable(record)
    if fmt == "json":
        print(json.dumps(record))
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        keys = list(record)
        writer.writerow(keys)
        writer.writerow([json.dumps(record[k]) if isinstance(record[k], (dict, list))
                         else record[k] for k in keys])
        sys.stdout.write(buf.getvalue())


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
    entries = [_int_entry(p, "cube") for p in parts]
    from . import cubes
    return cubes.Cube(*entries)


def _parse_complex(text):
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text}") from exc


def _parse_disc_list(text):
    return [_int_entry(p, "discriminant") for p in text.split(",") if p.strip()]


# handlers: each takes the parsed args and returns the record to print

def _classnum(a):
    from . import arith
    return {"disc": a.disc, "h": arith.class_number(a.disc)}


def _sqrtcount(a):
    from . import arith
    return {"d": a.d, "mod": a.mod, "count": arith.count_sqrt_mod(a.d, a.mod)}


def _construct(a):
    from . import cubes
    A = cubes.construct_cube(a.disc, a.m, a.n, a.x, a.y)
    return {"cube": list(A),
            "Q1": list(cubes.qform(A, 1)),
            "Q2": list(cubes.qform(A, 2)),
            "Q3": list(cubes.qform(A, 3)),
            "disc": cubes.disc(A)}


def _invariants(a):
    from . import cubes
    t = cubes.invariant_tuple(a.cube)
    return {"disc": t.D, "m": t.m, "n": t.n, "x": t.x, "y": t.y}


def _orbits(a):
    from . import cubes
    return {"disc": a.disc, "m": a.m, "n": a.n,
            "orbits": cubes.count_orbits(a.disc, a.m, a.n)}


def _prop2(a):
    from . import series
    return series.verify_prop2(a.disc, a.limit)


def _ptilde2(a):
    from . import series
    return series.verify_ptilde2(a.disc, a.lmax)


def _composition(a):
    from . import cubes
    return cubes.verify_composition_law(a.disc)


def _local(a):
    from . import localfactors
    return localfactors.verify_local_identities(order=a.order)


def _fusion(a):
    from . import altforms
    return altforms.verify_fusion(seed=a.seed, cases=a.cases)


def _characters(a):
    from . import cubes
    return cubes.verify_characters(seed=a.seed, cases=a.cases)


def _shintani(a):
    from . import series
    return series.shintani_Z(a.s, a.w, a.amax, a.dmax)._asdict()


def _wmds(a):
    from . import series
    return {"s": a.s, "w": a.w, "mmax": a.mmax, "dset": a.dset,
            "value": series.wmds_Z(a.s, a.w, a.mmax, a.dset)}


def build_parser():
    """The command tree. Each leaf parser sets `run`, its handler."""
    from . import limits

    ap = argparse.ArgumentParser(
        prog="cubeforms",
        description="Exact computations on quadratic forms, 2x2x2 cubes, "
                    "alternating-form pairs and local L-factors.")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classnum", help="class number of a negative fundamental discriminant")
    p.add_argument("--disc", type=int, required=True,
                   help=f"|disc| at most {limits.DISC_CAP}")
    p.set_defaults(run=_classnum)

    p = sub.add_parser("sqrtcount", help="A(d, a): solutions of x^2 = d (mod a)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(run=_sqrtcount)

    pc = sub.add_parser("cube", help="cube operations")
    cs = pc.add_subparsers(dest="cube_command", required=True)
    mn_help = f"nonzero, absolute value at most {limits.MN_CAP}"
    p = cs.add_parser("construct")
    for flag in ("--disc", "--m", "--n", "--x", "--y"):
        p.add_argument(flag, type=int, required=True,
                       help=mn_help if flag in ("--m", "--n") else None)
    p.set_defaults(run=_construct)
    p = cs.add_parser("invariants")
    p.add_argument("--cube", type=_parse_cube, required=True,
                   help="a,b,c,d,e,f,g,h (front face row-major, then back face)")
    p.set_defaults(run=_invariants)
    p = cs.add_parser("orbits")
    for flag in ("--disc", "--m", "--n"):
        p.add_argument(flag, type=int, required=True,
                       help=mn_help if flag in ("--m", "--n") else None)
    p.set_defaults(run=_orbits)

    pv = sub.add_parser("verify", help="verification suites")
    vs = pv.add_subparsers(dest="verify_command", required=True)
    p = vs.add_parser("prop2")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--limit", type=int, default=5000,
                   help=f"indices m checked, 1 to {limits.N_CAP}")
    p.set_defaults(run=_prop2)
    p = vs.add_parser("ptilde2")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--lmax", type=int, default=6,
                   help=f"levels checked modulo 2^(l+2), 0 to {limits.LMAX_CAP}")
    p.set_defaults(run=_ptilde2)
    p = vs.add_parser("composition")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(run=_composition)
    p = vs.add_parser("local")
    p.add_argument("--order", type=int, default=40,
                   help=f"series truncation order, 0 to {limits.ORDER_CAP}")
    p.set_defaults(run=_local)
    for name, handler in (("fusion", _fusion), ("characters", _characters)):
        p = vs.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cases", type=int, default=10000, help=f"at most {limits.CASES_CAP}")
        p.set_defaults(run=handler)

    pz = sub.add_parser("zeta", help="truncated double-sum evaluation")
    zs = pz.add_subparsers(dest="zeta_command", required=True)
    p = zs.add_parser("shintani")
    p.add_argument("--s", type=_parse_complex, required=True)
    p.add_argument("--w", type=_parse_complex, required=True)
    p.add_argument("--amax", type=int, default=100,
                   help=f"at least 1, amax * dmax at most {limits.SHINTANI_CAP}")
    p.add_argument("--dmax", type=int, default=100,
                   help=f"at least 1, amax * dmax at most {limits.SHINTANI_CAP}")
    p.set_defaults(run=_shintani)
    p = zs.add_parser("wmds")
    p.add_argument("--s", type=_parse_complex, required=True)
    p.add_argument("--w", type=_parse_complex, required=True)
    p.add_argument("--mmax", type=int, default=100,
                   help=f"largest m summed, 1 to {limits.N_CAP}")
    p.add_argument("--dset", type=_parse_disc_list, required=True,
                   help="comma-separated odd discriminants")
    p.set_defaults(run=_wmds)

    return ap


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        record = args.run(args)
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
