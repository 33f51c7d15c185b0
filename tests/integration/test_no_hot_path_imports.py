"""No ``import`` statement on a per-message or per-command path.

A function-level import is a statement that runs on every call: a lookup in
``sys.modules`` plus one attribute fetch per name (about a microsecond — a
tenth of a consensus message's whole budget).  In the packages whose
functions run per message or per command, imports belong at module level;
the only exceptions are named set-up functions that run once per cluster
and import *upwards* (a lower layer reaching for the harness).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

HOT_PACKAGES = ("core", "broadcast", "dag", "codec", "net", "smr", "workload")

#: ``file.py:Qualified.name`` of the set-up functions allowed to import.
SETUP_FUNCTIONS = {"smr/replica.py:SmrCluster.build"}


def _function_level_imports(tree):
    """Qualified names of the functions whose bodies hold an import."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child])
                continue
            in_function = any(not isinstance(s, ast.ClassDef) for s in scope)
            if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.add(".".join(s.name for s in scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_the_walker_sees_nested_and_conditional_imports():
    tree = ast.parse(
        "import a\n"
        "class K:\n"
        "    import b\n"
        "    def m(self):\n"
        "        if x:\n"
        "            from c import d\n"
        "def f():\n"
        "    def g():\n"
        "        import e\n"
    )
    assert _function_level_imports(tree) == {"K.m", "f.g"}


def test_hot_packages_import_at_module_level_only():
    offenders = {
        f"{path.relative_to(SRC).as_posix()}:{name}"
        for package in HOT_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for name in _function_level_imports(ast.parse(path.read_text()))
    }
    assert offenders == SETUP_FUNCTIONS
