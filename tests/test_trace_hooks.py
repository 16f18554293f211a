"""The benchmark's per-layer trace hooks name functions that exist.

perfbench/traced.py lists a missing hook instead of failing the run, so a
renamed layer function would silently empty its per-layer metric. This
test loads the hook table (the module does nothing on import) and checks
every (module, function) pair against cegraph.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
