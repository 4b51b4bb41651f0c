"""The benchmark's self-test as part of the test suite: every workload runs
once, traced, at a tiny size, and every planted wrong answer must be caught.
A name the benchmark imports or calls that the program renamed or removed
then fails here, not only when the benchmark runs; the micro-timings, which
the self-test does not run, are checked by reading their source."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _armcal_calls(tree):
    """Every `module.attr[.attr...]` chain in tree rooted at a name bound by
    `from armcal import ...`, with the Call node that calls it, if any."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "armcal"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    chains = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        attrs, base = [], node
        while isinstance(base, ast.Attribute):
            attrs.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in modules:
            chains.append((modules[base.id], attrs, node.lineno,
                           calls.get(id(node))))
    return chains


def test_micro_timings_name_only_existing_armcal_attributes():
    # the micro-timings run only in a traced benchmark run, which the
    # self-test above does not make; every armcal attribute micro.py names
    # must exist, and every call it makes must bind to the signature
    tree = ast.parse((ROOT / "perfbench" / "micro.py").read_text())
    chains = _armcal_calls(tree)
    assert len(chains) > 30  # the scan sees micro.py's references
    missing, unbound = [], []
    for module, attrs, lineno, call in chains:
        name = f"line {lineno}: {module}.{'.'.join(attrs)}"
        obj = importlib.import_module(f"armcal.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
        else:
            if call is None or not callable(obj):
                continue
            try:
                inspect.signature(obj).bind(
                    *call.args, **{k.arg: None for k in call.keywords})
            except TypeError as exc:
                unbound.append(f"{name}: {exc}")
    assert missing == []
    assert unbound == []
