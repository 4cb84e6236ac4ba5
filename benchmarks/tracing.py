"""Span tracer that wraps the library's public functions from outside.

`Tracer.install` rebinds module and class attributes of the cubeforms
modules, so every call made through a module global is caught, including
calls inside one module (``count_sqrt_mod`` -> ``factorize``). Spans live in
flat arrays in memory and are written out once, at the end of the run.
Nothing under ``src/`` knows about the tracer.
"""

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter_ns

# layer -> public functions traced in it ("Class.method" for methods)
TRACED = {
    "arith": ("factorize", "count_sqrt_mod", "kronecker", "squarefree_part",
              "field_character", "m_hat", "wmds_coeff", "is_fundamental"),
    "series": ("coeffs_A", "coeffs_rhs", "verify_prop2"),
    "cubes": ("construct_cube", "invariant_tuple", "count_orbits",
              "solutions_in_window", "qform", "borel_act",
              "verify_characters", "verify_composition_law"),
    "qforms": ("reduce", "compose", "enumerate_class_group"),
    "altforms": ("qform_F", "fuse", "pfaffian", "verify_fusion"),
    "localfactors": ("TruncatedSeries.__mul__", "TruncatedSeries.inverse",
                     "macdonald", "local_A_integral", "lfactor_ratio_split",
                     "lfactor_ratio_inert", "split_product_form"),
}

# Spans kept per run. The traced phase ends after the unit that reaches it,
# which bounds memory (5 x 8 bytes a span) and the size of the spans file.
SPAN_CAP = 1_000_000


class Tracer:
    """Records one span per traced call: name, parent span, unit id, start
    and end (ns). Unit root spans are named ``unit.<kind>``."""

    def __init__(self, lib):
        self.lib = lib
        self.names = []            # span name index -> "layer.function"
        self._index = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.unit_id = -1
        self.active = False
        self.counts = Counter()    # work-sharing counters
        self.factorize_args = set()
        self._undo = []

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def full(self):
        return len(self.start) >= SPAN_CAP

    # -- spans -----------------------------------------------------------

    def _open(self, idx):
        i = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1])
        self.unit.append(self.unit_id)
        self.start.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start[i] = perf_counter_ns()
        return i

    def _close(self, i):
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def run_unit(self, kind, fn):
        """Call fn() as a new unit: one root span, children share its id."""
        self.unit_id += 1
        self.active = True
        i = self._open(self._name_index("unit." + kind))
        try:
            return fn()
        finally:
            self._close(i)
            self.active = False

    # -- installing wrappers ---------------------------------------------

    def install(self):
        for layer, functions in TRACED.items():
            module = getattr(self.lib, layer)
            for qualname in functions:
                owner, attr = module, qualname
                if "." in qualname:
                    cls, attr = qualname.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
                name = f"{layer}.{qualname}"
                wrapper = self._wrap(original, self._name_index(name),
                                     getattr(self, "_observe_" + attr, None))
                # aliases such as TruncatedSeries.__rmul__ = __mul__ share the span name
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, alias, value))
                        setattr(owner, alias, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, fn, idx, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- work-sharing counters (only while a unit is traced) --------------

    def _observe_factorize(self, args, result):
        self.factorize_args.add(args[0])

    def _observe_count_sqrt_mod(self, args, result):
        self.counts["count_sqrt_mod.zero"] += result == 0

    def _observe_solutions_in_window(self, args, result):
        self.counts["solutions_in_window.scanned"] += 2 * abs(args[1])
        self.counts["solutions_in_window.hits"] += len(result)

    def _observe_coeffs_A(self, args, result):
        self.counts["coeffs_computed"] += args[1]

    _observe_coeffs_rhs = _observe_coeffs_A

    def _observe___mul__(self, args, result):
        # schoolbook product count at the series order; zero terms skipped
        # by the library are still counted, so this is computed, not measured
        n = args[0].order
        series = isinstance(args[1], type(args[0]))
        self.counts["mul.coeff_products"] += (n + 1) * (n + 2) // 2 if series else n + 1

    # -- results ---------------------------------------------------------

    def per_function(self):
        """{name: (calls, self_s)}; self time = duration minus child spans."""
        calls = Counter(self.name)
        self_ns = [0] * len(self.names)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(start)):
            d = end[i] - start[i]
            self_ns[name[i]] += d
            p = parent[i]
            if p >= 0:
                self_ns[name[p]] -= d
        return {n: (calls[i], self_ns[i] / 1e9) for i, n in enumerate(self.names)}

    def write(self, path, header):
        """Spans as gzip text: a JSON header, then one tab-separated line
        per span: unit id, name index, parent span, start ns, end ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({**header, "names": self.names,
                                  "columns": ["unit", "name", "parent",
                                              "start_ns", "end_ns"]}) + "\n")
            rows = zip(self.unit, self.name, self.parent, self.start, self.end)
            out.writelines(f"{u}\t{n}\t{p}\t{s}\t{e}\n" for u, n, p, s, e in rows)
