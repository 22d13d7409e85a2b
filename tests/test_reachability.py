"""Every library definition is reached from outside the tests: an AST scan.

A top-level function, a class or a method that is not a dunder is reached
when its name is referenced outside its own body from a library module
(not `__init__.py`, which only re-exports), a demo, a tool or perfbench.
A reference is a name or an attribute.  In `perfbench/tracing.py`, which
names what it traces in strings, an identifier inside a string constant
other than a docstring is one too; elsewhere a string is data, so an
expression head such as the CLI's "dist_eval" reaches nothing.  Names are
matched without their module or class, so a method is reached by any
attribute of its name.  A reference inside the body of a
definition that is not reached does not count, and the scan repeats until
nothing more drops out.  The tests do not count: a definition that only a
test calls is API that no verdict reaches.

`tools/reach.py` lists the statements that nothing runs; one test here
runs its classifier on a fixture, without tracing.

    PYTHONPATH=src python -m pytest -q tests/test_reachability.py
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)
LIBRARY = sorted(ROOT.glob("src/convbialg/*.py"))
CALLERS = sorted(
    p for p in [*LIBRARY, *ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py"),
                *ROOT.glob("perfbench/*.py")]
    if p.name != "__init__.py"
)
STRINGS = [ROOT / "perfbench" / "tracing.py"]  # callers whose strings name definitions
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree, module):
    """(module.qualname, name, node) of each top-level function and class
    and each method that is not a dunder."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            out.append((f"{module}.{node.name}", node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{module}.{node.name}.{m.name}", m.name, m) for m in node.body
                       if isinstance(m, _DEFS) and not _is_dunder(m.name))
    return out


def _docstrings(tree):
    """The ids of the string constants that stand alone as statements."""
    return {id(n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
            and isinstance(n.value.value, str)}


def references(tree, strings):
    """(name, line) of each name and attribute, and when strings is true of
    each identifier in a string constant that is not a docstring."""
    skip = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            out.extend((w, node.lineno) for w in _IDENT.findall(node.value))
    return out


def unreached(library=LIBRARY, callers=CALLERS, strings=STRINGS):
    """The qualified names of the library definitions that nothing outside
    the tests reaches, iterated to a fixed point; only the callers listed in
    strings reach through identifiers in strings."""
    names, spans = {}, {}  # qualname -> name; qualname -> (path, first, last line)
    for path in library:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qual, name, node in definitions(tree, path.stem):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            names[qual], spans[qual] = name, (path, first, node.end_lineno)
    # name -> for each reference to it, the definitions whose bodies hold it
    defined, enclosing = set(names.values()), {}
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in references(tree, path in strings):
            if name in defined:
                enclosing.setdefault(name, []).append(
                    {q for q, (p, first, last) in spans.items()
                     if p == path and first <= line <= last})
    dead = set()
    while True:
        newly = {qual for qual, name in names.items() if qual not in dead
                 and all(inside & (dead | {qual}) for inside in enclosing.get(name, ()))}
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_definition_is_reached():
    dead = unreached()
    assert not dead, "reached only from tests, or not at all: " + ", ".join(dead)


def _scan(tmp_path, library, caller, strings=False):
    """The scan of library from itself and caller, which may reach through
    its strings."""
    lib, call = tmp_path / "lib.py", tmp_path / "caller.py"
    lib.write_text(library)
    call.write_text(caller)
    return unreached([lib], [lib, call], [call] if strings else [])


def test_scan_drops_a_chain_of_dead_definitions(tmp_path):
    library = ("def used():\n    return helper()\n\n"
               "def helper():\n    return 1\n\n"
               "def gone():\n    return only_gone() + gone()\n\n"
               "def only_gone():\n    return 2\n\n"
               "class Model:\n    def __eq__(self, other):\n        return True\n\n"
               "    def hook(self):\n        return 3\n\n"
               "    def dead_hook(self):\n        return self.dead_hook()\n")
    caller = "from lib import Model, used\n\nprint(used(), Model().hook())\n"
    assert _scan(tmp_path, library, caller) == ["lib.Model.dead_hook", "lib.gone",
                                                 "lib.only_gone"]


# A module whose import and whose call get(1) ran lines 10, 12, 14, 16 and
# 19: the docstring, the import and the def and class headers are no
# statements, and of the rest only the branches those runs skip are not run.
CLASSIFIED = ('"""A module."""\n'
              "import os\n\n\n"
              "class Box:\n"
              "    def __repr__(self):\n"
              "        return 'Box()'\n\n"
              "    def get(self, key):\n"
              "        if key is None:\n"
              "            raise ParseError('no key')\n"
              "        if key < 0:\n"
              "            raise ValueError('negative key')\n"
              "        if key > 9:\n"
              "            return None\n"
              "        return key\n\n\n"
              "if __name__ == '__main__':\n"
              "    print(Box().get(1), os.sep)\n")


def test_reach_sorts_what_is_not_run_into_four_kinds():
    assert len(reach.statements(ast.parse(CLASSIFIED))) == 10
    assert reach.classify(CLASSIFIED, {10, 12, 14, 16, 19}) == {
        "documented": [11], "defensive": [13], "dunder": [7, 20], "other": [15]}


STRING_LIBRARY = ('"""traced_by_docstring is named here only."""\n'
                  "def traced():\n    pass\n\n"
                  "def traced_by_docstring():\n    pass\n")
STRING_CALLER = 'NAMES = [("lib.traced", "lib", "traced")]\n'


def test_a_string_reaches_and_a_docstring_does_not(tmp_path):
    assert _scan(tmp_path, STRING_LIBRARY, STRING_CALLER, strings=True) == [
        "lib.traced_by_docstring"]


def test_an_ordinary_string_does_not_reach(tmp_path):
    # a caller outside the string list: "traced" in its strings is data,
    # as the CLI's expression heads are
    assert _scan(tmp_path, STRING_LIBRARY, STRING_CALLER) == [
        "lib.traced", "lib.traced_by_docstring"]
