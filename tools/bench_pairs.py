"""Compare two source trees on the time-to-verdict benchmark, in pairs.

    python3 tools/bench_pairs.py --base ../parent --change . --out BENCH.json

Pair i of a workload runs `python3 perfbench/run.py --workload W
--seed 1001+i --seconds 20 --trace 0` once in each tree, one run at a time;
10 pairs on `suites`, the fewest that can show a 9-in-10 win, and 3 each on
`eval` and `big-model`.  The 20 s run length is the one perfbench/README.md
sets.
the base runs first in even pairs and second in odd ones, so a drift in the
machine's speed falls on both sides alike.  The output holds every run's
metrics, per-metric medians and quartiles for each side, how many pairs
the change won on each metric, and the sha256 of each side's
`convbialg check --suite NAME --output json` report.  Each tree must have
`perfbench/` at its root and the package under `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SUITES = ("cartier-gabriel", "commuting-square", "etale-iso", "fd-sanity", "hopf-etale",
          "kernel-example", "lie-rinehart", "phi-homomorphism", "prop43", "uea")
CHECK = "import sys; from convbialg.cli import main; sys.exit(main(sys.argv[1:]))"
PAIRS = (("suites", 10), ("eval", 3), ("big-model", 3))
SECONDS = 20


def _env():
    return dict(os.environ, PYTHONPATH="src")


def _run(tree, workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, env=_env(), capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _report_hashes(tree):
    hashes = {}
    for name in SUITES:
        out = subprocess.run([sys.executable, "-c", CHECK, "check", "--suite", name,
                              "--output", "json"],
                             cwd=tree, env=_env(), capture_output=True, check=True)
        hashes[name] = hashlib.sha256(out.stdout).hexdigest()
    return hashes


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _better(name):
    return "higher" if name == "op_rate" else "lower"


def compare(base, change):
    workloads = {}
    for workload, n in PAIRS:
        runs = {"base": [], "change": []}
        for i in range(n):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = base if side == "base" else change
                runs[side].append(_run(tree, workload, 1001 + i))
                print(workload, i, side, runs[side][-1]["metrics"], file=sys.stderr, flush=True)
        summary = {}
        for name in runs["base"][0]["metrics"]:
            b = [r["metrics"][name] for r in runs["base"]]
            c = [r["metrics"][name] for r in runs["change"]]
            sign = 1 if _better(name) == "lower" else -1
            qb = _quartiles(b)
            summary[name] = {
                "better": _better(name),
                "base": qb, "change": _quartiles(c), "base_iqr": qb["q3"] - qb["q1"],
                "change_wins": sum(sign * (y - x) < 0 for x, y in zip(b, c)),
                "pairs": n,
                "median_change_pct": 100 * (statistics.median(c) / statistics.median(b) - 1),
            }
        workloads[workload] = {"summary": summary, "runs": runs}
    base_hashes, change_hashes = _report_hashes(base), _report_hashes(change)
    return {
        "command": f"python3 perfbench/run.py --workload W --seed 1001+i --seconds {SECONDS} "
                   "--trace 0",
        "workloads": workloads,
        "report_sha256": {"base": base_hashes, "change": change_hashes,
                          "identical": base_hashes == change_hashes},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="source tree of the parent commit")
    p.add_argument("--change", default=".", help="source tree of the change")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    result = compare(os.path.abspath(args.base), os.path.abspath(args.change))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
