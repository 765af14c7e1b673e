"""Import layering between the package's modules, read from their sources.

The numeric layers sit below the front ends: ``pruning`` builds only on
``errors`` and ``symbolic``, and ``verify`` takes nothing from ``cli`` but
``main``, which criterion 12 runs to regenerate artifacts. Every module runs
in the calling process and reads no environment variable, so a run is
fixed by its arguments alone. Every public top-level name of the package,
and every public method or property of its public classes, is used somewhere
in the package or the benchmark, not only by its own tests.
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


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _defined_names(statement: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def _method_own(cls: ast.ClassDef, method: ast.FunctionDef) -> set[str]:
    """The method's own name, or for a dunder the names of all the class's
    methods."""
    if method.name.startswith("__") and method.name.endswith("__"):
        return {m.name for m in cls.body if isinstance(m, ast.FunctionDef)}
    return {method.name}


def _loads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Bare names and attribute names the module loads, each outside the
    top-level statement that defines it, and outside the method that defines
    it when a class body defines the name. Inside a class's dunder methods
    the names of all its methods count as its own, so a member read only by
    its class's __str__ or __eq__ has no reader."""
    names, attributes = set(), set()

    def visit(node: ast.AST, own: set[str]) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
            visit(child, own | _method_own(node, child) if method else own)

    for statement in tree.body:
        visit(statement, _defined_names(statement))
    return names, attributes


def _package_trees() -> dict[str, ast.Module]:
    """Every package module but __init__, whose re-exports are not callers."""
    return {m: _tree(m) for m in MODULES if m != "__init__"}


def _bench_attributes() -> set[str]:
    """Attribute names the benchmark's scripts load."""
    paths = BENCH_DIR.glob("*.py")
    return set().union(*(_loads(ast.parse(p.read_text(encoding="utf-8")))[1] for p in paths))


def test_every_public_name_has_a_caller():
    # A public name counts as used where a module that defines or imports it
    # loads it as a bare name (so a local variable of the same name in
    # another module does not count), or where the package or the benchmark
    # reads it as an attribute (lib.formats.read_pgm).
    trees = _package_trees()
    defined = {
        module: {name for s in tree.body for name in _defined_names(s) if not name.startswith("_")}
        for module, tree in trees.items()
    }
    used = _bench_attributes()
    for module, tree in trees.items():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        names, attributes = _loads(tree)
        used |= (names & (defined[module] | imported)) | attributes
    unused = [
        f"{module}.{name}"
        for module, names in sorted(defined.items())
        for name in sorted(names - used)
    ]
    assert not unused, f"public names with no caller: {unused}"


def test_every_public_member_has_a_reader():
    # A method or property counts as read where the package or the benchmark
    # loads an attribute of its name outside the member's own definition and
    # outside its class's dunder methods. Dunders and private names are
    # exempt.
    trees = _package_trees()
    members = {
        f"{module}.{cls.name}.{node.name}": node.name
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = _bench_attributes().union(*(_loads(tree)[1] for tree in trees.values()))
    unread = {member for member, name in members.items() if name not in read}
    assert not unread, f"public members with no reader: {sorted(unread)}"
