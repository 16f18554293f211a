"""numpy is the package's only runtime requirement: every absolute import
under src/cegraph names the standard library or numpy. Other packages may
be installed beside it (scipy, networkx), so an import of one would pass
every other test here and fail on a machine with numpy alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cegraph"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    """The top-level name of each absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = [(path.name, name) for path in modules for name in absolute_imports(path)
               if name not in ALLOWED]
    assert outside == []
