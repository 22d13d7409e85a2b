"""The model decides what depends on its kind: an AST scan of the library.

A comparison of an attribute `kind` with the name of a model kind
("pair", "group" or "etale_action") picks a branch by kind outside the
model classes.  None is left: the library asks a model hook, or tests the
mathematics (`model.algebroid.rank`, `model.base.dim`, `Bisection.is_flat`,
which `dist.commuting_square_gap_numeric` requires of its bisection).
Comparisons with other kinds, such as the "point" and "interval" strata of
`conv`, are not model kinds and are not counted.

    PYTHONPATH=src python -m pytest -q tests/test_kind_tests.py
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(ROOT.glob("src/convbialg/*.py"))
MODEL_KINDS = {"pair", "group", "etale_action"}
# (module, function) of the kind tests that are left
ALLOWED = set()


class _KindScan(ast.NodeVisitor):
    def __init__(self):
        self.function = "<module>"
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        names = {c.value for o in operands for c in ast.walk(o) if isinstance(c, ast.Constant)}
        if (any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands)
                and names & MODEL_KINDS):
            self.found.append((self.function, node.lineno))
        self.generic_visit(node)


def kind_tests(path):
    """(innermost function, line) of each comparison of `.kind` with the
    name of a model kind."""
    scan = _KindScan()
    scan.visit(ast.parse(path.read_text(encoding="utf-8")))
    return scan.found


def test_no_kind_test_is_left():
    found = [(path.stem, fn, line) for path in LIBRARY for fn, line in kind_tests(path)]
    sites = "; ".join(f"{module}.{fn}:{line}" for module, fn, line in found)
    assert len(found) <= len(ALLOWED), f"model kind tests at {sites}"
    assert all((module, fn) in ALLOWED for module, fn, _ in found), \
        f"model kind tests at {sites}"


def test_scan_finds_a_kind_test(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('def f(model, st):\n    if model.kind == "pair":\n        pass\n'
                      '    if st.kind == "point":\n        pass\n\n'
                      'def g(m):\n    def h():\n        return "group" != m.kind\n'
                      '    return m.kind in ("etale_action", "other")\n')
    assert kind_tests(module) == [("f", 2), ("h", 9), ("g", 10)]
