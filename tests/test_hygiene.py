"""Every name a library module imports is used in that module, and its
`__all__` lists exactly its public functions and classes.

No linter ships with the project, so this is its guard against dead imports
and stale exports.  `__init__.py` is exempt: its imports are the package's
re-exports.  `cli.py` exports nothing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "exhom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_unused_names():
    source = "from __future__ import annotations\nimport os, os.path as osp\nfrom a import b, c as d\nb()\n"
    assert unused_imports(source) == ["d (line 3)", "os (line 2)", "osp (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def export_mismatches(source: str) -> list:
    """Public top-level functions and classes missing from `__all__`, and `__all__`
    entries bound by no top-level statement; `__all__` may also name constants."""
    tree = ast.parse(source)
    defs, bound, exported = set(), set(), None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                defs.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = set(ast.literal_eval(node.value))
            bound |= names
    if exported is None:
        return ["no __all__"]
    return sorted(f"{name} (not exported)" for name in defs - exported) + sorted(
        f"{name} (exported, not defined)" for name in exported - bound
    )


def test_export_checker_flags_missing_and_stale_names():
    source = "__all__ = ['f', 'gone', 'C']\nC = 1\ndef f(): pass\ndef g(): pass\ndef _h(): pass\nclass K: pass\n"
    assert export_mismatches(source) == ["K (not exported)", "g (not exported)", "gone (exported, not defined)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name)
def test_all_lists_exactly_the_public_functions_and_classes(path):
    assert export_mismatches(path.read_text()) == []


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate pulls in scipy.special and scipy.optimize: about 20 MB
    # and tenths of a second on every import; only laminate_oracle needs it
    code = "import sys, exhom; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_import_leaves_out_the_thread_pool():
    # concurrent.futures.thread costs about 13 ms to import; only a ladder
    # that solves its directions concurrently needs it
    code = "import sys, exhom; print('concurrent.futures.thread' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_import_leaves_out_scipy_sparse_linalg():
    # grid.solve runs its own Krylov loops; scipy.sparse.linalg costs about
    # 2 MB of resident memory and 0.08 s to import
    code = "import sys, exhom; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"
