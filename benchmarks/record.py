"""Regenerate reference.json: the fixed input pools and the digests of the
library's outputs on them, which the workloads compare every run against.

Run from the repository root at the commit whose outputs are the
reference (the digests must not change while behaviour is kept):

    python3 benchmarks/record.py

It takes under a minute. Pools come from oracles.py alone; digests come
from the library and are stored only after the benchmark's own checks pass.
"""

import json
import sys
from pathlib import Path

import oracles
import workloads

sys.path.insert(0, str(workloads.SRC))

from cubeforms import arith, localfactors, series  # noqa: E402


def main():
    short, long = workloads.dirichlet_pools()
    digests = []
    for pool, N in ((short, workloads.N_SHORT), (long, workloads.N_LONG)):
        for D in sorted({D for group in pool.values() for D in group}):
            lhs, rhs = series.coeffs_A(D, N), series.coeffs_rhs(D, N)
            if lhs != rhs:
                raise SystemExit(f"coefficient vectors differ at D={D}, N={N}")
            digests.append([D, N, oracles.digest(lhs)])

    composition = workloads.composition_pool()
    for D, h in composition:
        if arith.class_number(D) != h:
            raise SystemExit(f"class number of {D} disagrees with the oracle")

    alphas = workloads.alpha_pool()
    local_digests = []
    for group in alphas.values():
        for alpha in group:
            for order in workloads.ORDERS:
                err, split = workloads.local_chain(localfactors, alpha, order)
                if err:
                    raise SystemExit(err)
                local_digests.append([str(alpha), order, oracles.digest(split)])

    reference = {
        "dirichlet": {"n_short": workloads.N_SHORT, "n_long": workloads.N_LONG,
                      "short": short, "long": long, "digests": digests},
        "cubes": {"composition": composition},
        "local": {"orders": list(workloads.ORDERS),
                  "alphas": {k: [str(a) for a in v] for k, v in alphas.items()},
                  "digests": local_digests},
    }
    Path(workloads.REFERENCE).write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
