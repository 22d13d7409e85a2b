"""Every imported name is used: an AST scan of the library and test modules.

`__init__.py` re-exports names and `from __future__` imports features, so
both are exempt.  A name counts as used when it is read anywhere in the
module, including inside a string annotation, or listed in `__all__`.

    PYTHONPATH=src python -m pytest -q tests/test_imports.py
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*ROOT.glob("src/convbialg/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


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
