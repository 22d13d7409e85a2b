"""List every statement of src/convbialg/ that nothing runs.

    python3 tools/reach.py

A statement is an `ast.stmt` of a library module, other than a docstring,
a `def` or `class` header or an import.  It counts as run when a line event
fires on its first line in one of two child processes, or in any process
that one of them starts:

* the reference runs, in-process through `convbialg.cli.main`: `check`
  (text and JSON), each demo of `cli.DEMOS` (text and JSON), each `eval`
  call of `tools/bench_pairs.EVALS`, and each script under `demos/`
  through `runpy`;
* Tier-1, `python -m pytest -q`, whose CLI tests run in subprocesses, some
  of them forked.

Each child starts with a `sitecustomize.py`, written into a temporary
directory first on its PYTHONPATH, that installs a line tracer limited to
src/convbialg/ (`sys.settrace` and `threading.settrace`).  A child's
subprocesses inherit the PYTHONPATH, and with it the tracer.  Each process
writes the lines it ran to a file of its own at exit, and at `os._exit`,
which a forked child ends with.

Each statement that is not run gets one of four kinds:

* `documented`: a raise of a `ConvBialgError` subclass;
* `defensive`: any other raise, a guard on an internal precondition;
* `dunder`: a statement in the body of a dunder method, or under
  `if __name__ == "__main__"`;
* `other`: anything else, which a test should reach or the library drop.

It prints JSON: the totals, the exit code of each child, and the
statements not run, sorted by file and line, each with its kind, file, line
and source text.  It exits 1 when `other` is not empty or a child failed.
The two children run side by side and take about a minute on 2 CPUs.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from bench_pairs import EVALS  # noqa: E402  (tools/bench_pairs.py)
from convbialg import errors  # noqa: E402
from convbialg.cli import DEMOS, main  # noqa: E402

LIBRARY = ROOT / "src" / "convbialg"
KINDS = ("documented", "defensive", "dunder", "other")

# The tracer every child process loads; {library} and {out} are filled in.
# It keeps (file, line) of each line event in a library frame and appends
# them to {out}/<pid> when the process ends.
HOOK = '''\
import atexit, os, sys, threading

_LIBRARY = {library!r}
_OUT = {out!r}
_hits = set()
_keep = {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _keep.get(name)
    if keep is None:
        keep = _keep[name] = os.path.abspath(name).startswith(_LIBRARY)
    return _line if keep else None


def _dump():
    with open(os.path.join(_OUT, str(os.getpid())), "a") as f:
        f.write("".join(f"{{name}}\\t{{line}}\\n" for name, line in _hits))


def _dump_and_exit(code, _exit=os._exit):
    _dump()
    _exit(code)


atexit.register(_dump)
os._exit = _dump_and_exit
threading.settrace(_call)
sys.settrace(_call)
'''


def reference_runs():
    """`check` (text and JSON), each demo (text and JSON), each `eval` call
    of bench_pairs and each script under demos/, in this process, their
    output discarded."""
    argvs = [["check"], ["check", "--output", "json"]]
    argvs += [["demo", d, *out] for d in DEMOS for out in ([], ["--output", "json"])]
    argvs += [["eval", expr] for expr in EVALS]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        for argv in argvs:
            main(argv)
        for script in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(script), run_name="__main__")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_main_guard(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(tree):
    """(statement, dunder) for each statement of tree that counts, dunder
    true inside a dunder method or a `__main__` block."""
    out = []

    def visit(body, dunder, docstring):
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, dunder or _is_dunder(node.name), True)
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, dunder, True)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    docstring and i == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            out.append((node, dunder))
            inner = dunder or _is_main_guard(node)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner if field == "body" else dunder, False)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, dunder, False)
            for case in getattr(node, "cases", []):
                visit(case.body, dunder, False)

    visit(tree.body, False, True)
    return out


def _is_documented(node):
    """Does a raise statement raise a ConvBialgError of convbialg.errors?"""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", "")
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, errors.ConvBialgError)


def classify(source, hit):
    """kind -> the first lines of the statements of source whose first line
    is not in hit, each list in order."""
    kinds = {k: [] for k in KINDS}
    for node, dunder in statements(ast.parse(source)):
        if node.lineno in hit:
            continue
        if isinstance(node, ast.Raise):
            kind = "documented" if _is_documented(node) else "defensive"
        else:
            kind = "dunder" if dunder else "other"
        kinds[kind].append(node.lineno)
    return kinds


def _hits(out_dir):
    """file -> the set of lines that any traced process ran."""
    hits = {}
    for path in Path(out_dir).iterdir():
        for row in path.read_text().splitlines():
            name, line = row.rsplit("\t", 1)
            hits.setdefault(os.path.abspath(name), set()).add(int(line))
    return hits


def run_children(scratch):
    """Run the two traced children; the exit code of each and the lines hit."""
    out = Path(scratch) / "lines"
    out.mkdir()
    (Path(scratch) / "sitecustomize.py").write_text(
        HOOK.format(library=str(LIBRARY) + os.sep, out=str(out)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [scratch, str(ROOT / "src"), str(ROOT / "tools")]))
    children = {
        "reference": subprocess.Popen(
            [sys.executable, "-c", "import reach; reach.reference_runs()"],
            cwd=ROOT, env=env),
        "tier1": subprocess.Popen([sys.executable, "-m", "pytest", "-q"], cwd=ROOT, env=env,
                                  stdout=sys.stderr),
    }
    codes = {name: child.wait() for name, child in children.items()}
    return codes, _hits(out)


def report(hits):
    """The totals and the statements not run, given the lines hit."""
    rows, total = [], 0
    for path in sorted(LIBRARY.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        total += len(statements(ast.parse(source)))
        kinds = classify(source, hits.get(str(path), set()))
        rows += [{"kind": kind, "file": path.name, "line": line,
                  "text": lines[line - 1].strip()}
                 for kind, found in kinds.items() for line in found]
    rows.sort(key=lambda r: (r["file"], r["line"]))
    counts = {k: sum(r["kind"] == k for r in rows) for k in KINDS}
    return {"statements": total, "run": total - len(rows), "not_run": counts,
            "statements_not_run": rows}


def run():
    with tempfile.TemporaryDirectory() as scratch:
        codes, hits = run_children(scratch)
    doc = report(hits)
    doc["children"] = codes
    print(json.dumps(doc, indent=1))
    return 1 if doc["not_run"]["other"] or any(codes.values()) else 0


if __name__ == "__main__":
    sys.exit(run())
