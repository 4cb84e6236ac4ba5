"""Exact-arithmetic toolkit for quadratic-form class groups, 2x2x2 cube
orbits, alternating-form pairs, double Dirichlet series identities and
non-archimedean local L-factor identities.

The submodules are imported on first use, so a CLI process compiles only
what its command calls.
"""

import importlib

__all__ = ["arith", "qforms", "cubes", "altforms", "series", "localfactors"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
