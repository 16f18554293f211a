"""The benchmark's per-layer trace hooks name functions that exist.

perfbench/traced.py lists a missing hook instead of failing the run, so a
renamed layer function would silently empty its per-layer metric. This
test loads the hook table (the module does nothing on import) and checks
every (module, function) pair against cegraph, and that the counts taken
from the parse and complexity results read those results.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from cegraph.pyast import parse_to_graph

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def load_hooks(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_trace_hook_resolves(monkeypatch):
    hooks = load_hooks(monkeypatch)
    assert hooks
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name, *_ in hooks
        if not callable(getattr(importlib.import_module(f"cegraph.{mod_name}"), fn_name, None))
    ]
    assert missing == []


def test_parse_and_complexity_counts_read_their_results(monkeypatch):
    code = "def f(a):\n    return a + 1\n"
    args = {"pyast": (code,), "codemetrics": (parse_to_graph(code), code)}
    counted = []
    for mod_name, fn_name, _, count_name, count in load_hooks(monkeypatch):
        if count is None or mod_name not in args:
            continue
        fn = getattr(importlib.import_module(f"cegraph.{mod_name}"), fn_name)
        value = count(fn(*args[mod_name]))
        assert type(value) is int and value > 0, count_name
        counted.append(count_name)
    assert sorted(counted) == ["codemetrics.tokens", "pyast.ast_nodes"]
