"""Design rules that hold across the package, checked from its source."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubeforms"

# Defined in the package and referenced nowhere else in it or in benchmarks/,
# each with the reason it stays.
NO_CALLER_YET = {
    "cubes.act": "the triple SL2 action; the relative-invariance proofs will call it",
    "qforms.act": "the SL2 action on forms; the relative-invariance proofs will call it",
    "altforms.act_24": "the GL2 x SL4 action; the relative-invariance proofs will call it",
    "altforms.invariants_W": "the invariants of W; the relative-invariance proofs will call it",
    "arith.count_sqrt_prime_power": "the validated prime-power count that criterion 1 names",
}


def _references(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_definition_has_a_caller():
    # a function, class or method is used when some part of the package
    # other than its own definition names it, or when benchmarks/ mentions
    # it: the tracer names the functions it rebinds in strings
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    package_refs = sum((_references(tree) for tree in trees.values()), Counter())
    bench_text = "\n".join(p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.py")))
    unused = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if package_refs[name] > _references(node)[name]:
                continue
            if re.search(rf"\b{re.escape(name)}\b", bench_text):
                continue
            unused.add(f"{module}.{name}")
    uncalled = sorted(unused - NO_CALLER_YET.keys())
    assert not uncalled, f"no caller in the package or benchmarks/: {uncalled}"
    called = sorted(NO_CALLER_YET.keys() - unused)
    assert not called, f"called now, so drop from NO_CALLER_YET: {called}"
