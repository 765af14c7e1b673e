"""Import layering between the package's modules, read from their sources.

The numeric layers sit below the front ends: ``pruning`` builds only on
``errors`` and ``symbolic``, and ``verify`` takes nothing from ``cli`` but
``main``, which criterion 12 runs to regenerate artifacts. Every module runs
in the calling process and reads no environment variable, so a run is
fixed by its arguments alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import lozi_pruning

PACKAGE_DIR = Path(lozi_pruning.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))

# Standard modules that would run work outside the calling thread.
CONCURRENCY_MODULES = {"concurrent", "multiprocessing", "threading"}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module: str) -> dict[str, set[str]]:
    """Package module -> names imported from it anywhere in the source; a
    whole-module import counts as the name "*"."""
    tree = _tree(module)
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("lozi_pruning"):
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is None:  # from . import formats
                    found.setdefault(alias.name, set()).add("*")
                else:
                    found.setdefault(source, set()).add(alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lozi_pruning."):
                    found.setdefault(alias.name.partition(".")[2], set()).add("*")
    return found


def test_pruning_imports_only_errors_and_symbolic():
    assert set(_package_imports("pruning")) <= {"errors", "symbolic"}


def test_verify_takes_only_main_from_cli():
    assert _package_imports("verify").get("cli", set()) <= {"main"}


def _process_and_environment_use(module: str) -> set[str]:
    """Concurrency modules imported by the module, and the environment
    names (os.environ, os.getenv) it reads."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
            if node.module == "os":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & (CONCURRENCY_MODULES | {"environ", "getenv"})


def test_modules_run_in_process_without_environment():
    found = {module: _process_and_environment_use(module) for module in MODULES}
    assert {module: names for module, names in found.items() if names} == {}
