"""Imports stay plain: an AST scan of the library, test and tool modules.

Every imported name is used.  `__init__.py` re-exports names and `from
__future__` imports features, so both are exempt.  A name counts as used
when it is read anywhere in the module, including inside a string
annotation, or listed in `__all__`.

No library module imports inside a function, where an import can hide a
cycle between modules.  The one exemption is the pair of imports that
`suites.run_all` makes only when it starts worker processes.

The one submodule that a package attribute shadows is `phi`, whose
function `__init__.py` re-exports under the module's name.

    PYTHONPATH=src python -m pytest -q tests/test_imports.py
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import convbialg

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*ROOT.glob("src/convbialg/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("tools/*.py")]
    if p.name != "__init__.py"
)
LIBRARY = sorted(ROOT.glob("src/convbialg/*.py"))
# (module, function, imported module): run_all imports these only for
# jobs > 1, because they add a fifth to the import time of the package
DEFERRED = {("suites", "run_all", "multiprocessing"),
            ("suites", "run_all", "concurrent.futures")}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _names(expr):
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _used(tree):
    used = _names(tree)
    for node in ast.walk(tree):
        # a string annotation names what it uses only inside the string
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and "__all__" in _names(node.targets[0]):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return sorted({name for name in _imported(tree) if name not in used})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert not unused, f"{path.relative_to(ROOT)} imports {', '.join(unused)} and never uses them"


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os, sys\n"
                      "from a.b import c as d, e\n\ndef f(x: 'e') -> int:\n    return sys.x\n")
    assert unused_imports(module) == ["d", "os"]


def function_imports(path):
    """(function, imported module, line) for each import inside a function
    body, named by the outermost function that holds it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        found.setdefault((node.lineno, alias.name), fn.name)
                elif isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    found.setdefault((node.lineno, module), fn.name)
    return [(fn, module, line) for (line, module), fn in sorted(found.items())]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    found = [f"{path.stem}:{line} imports {module} in {fn}()"
             for fn, module, line in function_imports(path)
             if (path.stem, fn, module) not in DEFERRED]
    assert not found, "; ".join(found)


def test_scan_finds_an_import_inside_a_function(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\n\ndef f():\n    from .a import b\n\n    def g():\n"
                      "        import sys, json\n    return b\n")
    assert function_imports(module) == [("f", ".a", 4), ("f", "json", 7), ("f", "sys", 7)]


def test_phi_is_the_one_shadowed_submodule():
    modules = {m.name: importlib.import_module(f"convbialg.{m.name}")
               for m in pkgutil.iter_modules(convbialg.__path__)}
    shadowed = {name for name, module in modules.items()
                if getattr(convbialg, name) is not module}
    assert shadowed == {"phi"}
    assert inspect.ismodule(modules["phi"]) and convbialg.phi is modules["phi"].phi
