"""Compare two source trees on the time-to-verdict benchmark, in pairs.

    python3 tools/bench_pairs.py --base ../parent --change . --out BENCH.json

First each tree's reports are hashed: the exit code and the sha256 of
stdout and stderr of `convbialg check --suite NAME --output json` for every
suite, `convbialg demo NAME --output json` for every demo, the README's
`eval` examples and five more `eval` calls, and each script under `demos/`.
Each tree names its own suites and demos, `convbialg.suites.SUITES` and
`convbialg.cli.DEMOS`, read sorted in that tree's environment.  The
Fraction-heavy reports are hashed too: `check --suite S --model DOC
--output json` for S in commuting-square and prop43 and each of the three
documents of perfbench's `big_model_docs(1001, 8)`, which the change tree's
perfbench writes once per comparison into the temporary directory.  When the
two trees' reports differ, the keys that differ are printed.
Then pair i of a workload runs `python3 perfbench/run.py --workload W
--seed 1001+i --seconds 20 --trace 0` once in each tree, one run at a time;
10 pairs on each workload, the fewest that can show a 9-in-10 win or tell a
regression from the spread.  The 20 s run length is the one perfbench/README.md
sets.  The base runs first in even pairs and second in odd ones, so a drift
in the machine's speed falls on both sides alike.

A command that exits nonzero does not stop the comparison: its exit code
is recorded, and a benchmark run without a result line has no metrics.
The output holds the report hashes and whether they are identical, every
run's exit code and metrics, and, over the pairs where both runs gave
metrics, per-metric medians and quartiles for each side and how many pairs
the change won, with each metric better "lower" or "higher" as the change
tree's BENCHMARK.json declares it.  Each tree must have `perfbench/` at its
root and the package under `src/`.

Each tree's subprocesses get their own bytecode cache: a fresh, empty
PYTHONPYCACHEPREFIX directory, made once per tree for each comparison.  So
neither side can read a cache that the other side lacks, such as a stale
`__pycache__/` left in one tree, which with PYTHONDONTWRITEBYTECODE=1 once
halved that tree's import time.  A prefix also hides the standard library's
own `__pycache__/`, so PYTHONDONTWRITEBYTECODE is dropped from the
subprocesses' environment: each side fills its prefix during its hash runs,
and its benchmark runs then read the cache, as a plain run does.  With the
variable kept, every run compiled every module it imported, and `setup_s`
read about twice its plain value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile

NAMES = ("import json; from convbialg.cli import DEMOS; from convbialg.suites import SUITES; "
         "print(json.dumps([sorted(SUITES), sorted(DEMOS)]))")
# the three `eval` examples of the README, a flat kink evaluated exactly at
# tau(0) and in floats elsewhere, a product that fails with exit 2, and
# Omega(u)(F) with a derivative: exactly (D^2 at a rational point) and in
# floats (D on a flat kink, whose arrow at 0.35 is a float)
EVALS = ("conv_mul(<1|shift>,<1|dbl>)", "phi(<1*x0^2 | shift>)",
         "dist_eval([[shift, 1]], x0 + x1, 2)", "dist_eval([[E01,1]],x0+x1,0)",
         "dist_eval([[E01,1]],x0+x1,1/3)", "conv_mul(<1 * D|E00>,<1 * D|E01>)",
         "dist_eval([[shift, (1 + 1*x0) * D^2]], x0^2*x1^2 + 3*x1^3 + 1/7*x0*x1, -2/5)",
         "dist_eval([[E01, (2 + -1*x0^2) * D]], x0^3*x1 + 5*x1^4 + -1/3*x0*x1^2, 0.35)")
CLI = "import sys; from convbialg.cli import main; sys.exit(main(sys.argv[1:]))"
# perfbench's big-model documents at the first benchmark seed, 8 extra
# bisections each, as one JSON object by model key
BIG_MODEL_DOCS = ("import json, sys; sys.path.insert(0, 'perfbench'); "
                  "from workloads import big_model_docs; "
                  "print(json.dumps(big_model_docs(1001, 8)))")
BIG_MODEL_SUITES = ("commuting-square", "prop43")
WORKLOADS = ("suites", "eval", "big-model")
PAIRS = 10
SECONDS = 20


def tree_envs(scratch):
    """The environment of each side's subprocesses: the package from `src/`
    and a new, empty bytecode cache of its own under scratch, which they
    write."""
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {}
    for side in ("base", "change"):
        prefix = os.path.join(scratch, f"pycache-{side}")
        os.mkdir(prefix)
        envs[side] = dict(inherited, PYTHONPATH="src", PYTHONPYCACHEPREFIX=prefix)
    return envs


def _run(tree, env, workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    run = {"seed": seed, "exit": out.returncode, "metrics": None}
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return run
    run.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"],
               metrics={k: v["value"] for k, v in result["metrics"].items()})
    return run


def tree_names(tree, env):
    """The suite names and the demo names of a tree, read in its own
    environment."""
    out = subprocess.run([sys.executable, "-c", NAMES], cwd=tree, env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def metric_better(tree):
    """Whether each metric is better "lower" or "higher", as the tree's
    BENCHMARK.json declares it."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}


def _hash_run(tree, env, argv):
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True)
    return {"exit": out.returncode, "stdout": hashlib.sha256(out.stdout).hexdigest(),
            "stderr": hashlib.sha256(out.stderr).hexdigest()}


def write_big_model_docs(tree, env, scratch):
    """The paths of perfbench's big-model documents, by model key, as the
    tree's perfbench makes them, each written as JSON into scratch."""
    out = subprocess.run([sys.executable, "-c", BIG_MODEL_DOCS], cwd=tree, env=env,
                         capture_output=True, text=True, check=True)
    paths = {}
    for key, doc in json.loads(out.stdout).items():
        paths[key] = os.path.join(scratch, f"big-model-{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


def _report_hashes(tree, env, docs):
    """The hash of each report of the tree; docs maps a model key to the
    path of a model document."""
    cli = [sys.executable, "-c", CLI]
    suites, demos = tree_names(tree, env)
    hashes = {}
    for name in suites:
        hashes[f"check {name}"] = _hash_run(tree, env, cli + ["check", "--suite", name,
                                                              "--output", "json"])
    for name in demos:
        hashes[f"demo {name}"] = _hash_run(tree, env, cli + ["demo", name, "--output", "json"])
    for name in BIG_MODEL_SUITES:
        for key, path in sorted(docs.items()):
            hashes[f"check {name} --model big-model-{key}"] = _hash_run(
                tree, env, cli + ["check", "--suite", name, "--model", path, "--output", "json"])
    for expr in EVALS:
        hashes[f"eval {expr}"] = _hash_run(tree, env, cli + ["eval", expr])
    for script in sorted(f for f in os.listdir(os.path.join(tree, "demos"))
                         if f.endswith(".py")):
        hashes[f"demos/{script}"] = _hash_run(tree, env, [sys.executable,
                                                          os.path.join("demos", script)])
    return hashes


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(runs, better):
    """Per-metric figures over the pairs where both runs gave metrics;
    better maps each metric to "lower" or "higher"."""
    pairs = [(b["metrics"], c["metrics"]) for b, c in zip(runs["base"], runs["change"])
             if b["metrics"] is not None and c["metrics"] is not None]
    if len(pairs) < 2:
        return None
    summary = {}
    for name in pairs[0][0]:
        b = [mb[name] for mb, _ in pairs]
        c = [mc[name] for _, mc in pairs]
        sign = 1 if better[name] == "lower" else -1
        qb = _quartiles(b)
        summary[name] = {
            "better": better[name],
            "base": qb, "change": _quartiles(c), "base_iqr": qb["q3"] - qb["q1"],
            "change_wins": sum(sign * (y - x) < 0 for x, y in zip(b, c)),
            "pairs": len(pairs),
            "median_change_pct": 100 * (statistics.median(c) / statistics.median(b) - 1),
        }
    return summary


def differing_keys(base_hashes, change_hashes):
    """The report keys whose hashes differ or that one side lacks, sorted."""
    return sorted(k for k in base_hashes.keys() | change_hashes.keys()
                  if base_hashes.get(k) != change_hashes.get(k))


def compare(base, change, envs, scratch):
    better = metric_better(change)
    docs = write_big_model_docs(change, envs["change"], scratch)
    base_hashes = _report_hashes(base, envs["base"], docs)
    change_hashes = _report_hashes(change, envs["change"], docs)
    print("reports identical:", base_hashes == change_hashes, file=sys.stderr, flush=True)
    for key in differing_keys(base_hashes, change_hashes):
        print("report differs:", key, file=sys.stderr, flush=True)
    workloads = {}
    for workload in WORKLOADS:
        runs = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = base if side == "base" else change
                runs[side].append(_run(tree, envs[side], workload, 1001 + i))
                print(workload, i, side, runs[side][-1]["exit"], runs[side][-1]["metrics"],
                      file=sys.stderr, flush=True)
        workloads[workload] = {"summary": _summary(runs, better), "runs": runs}
    return {
        "command": f"python3 perfbench/run.py --workload W --seed 1001+i --seconds {SECONDS} "
                   "--trace 0",
        "report_sha256": {"base": base_hashes, "change": change_hashes,
                          "identical": base_hashes == change_hashes},
        "workloads": workloads,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="source tree of the parent commit")
    p.add_argument("--change", default=".", help="source tree of the change")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        result = compare(os.path.abspath(args.base), os.path.abspath(args.change),
                         tree_envs(scratch), scratch)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
