"""Self-test of the benchmark's checks, in quick mode.

    python3 perfbench/selftest.py

1. Each reference check accepts the program's right answer and rejects a
   planted wrong one: a perturbed coefficient, swapped factors, a skipped
   Jacobian, an off-by-one value, or a wrong case count.
2. Each workload runs once at a small size, untraced and traced, and
   prints a result line with the metrics that BENCHMARK.json names.

Exits 0 when every step passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

run._use_source_tree()

import convbialg  # noqa: E402
import workloads  # noqa: E402
from reference import Context, check_eval, check_suite_report, expected_counts  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def cli_value(expr, model):
    argv = ["eval", expr]
    if model != "pair":
        path = os.path.join(run.OUT, f"selftest-{model}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(DOCS[model], fh)
        argv += ["--model", path]
    return workloads.Eval._call(argv)


def phi_spec(model, terms):
    text = workloads.conv_text(model, terms)
    return {"op": "phi", "model": model, "a": terms, "a_text": text}, f"phi({text})"


def conv_spec(model, a, b):
    at, bt = workloads.conv_text(model, a), workloads.conv_text(model, b)
    return ({"op": "conv_mul", "model": model, "a": a, "b": b, "a_text": at, "b_text": bt,
             "check_seed": 7}, f"conv_mul({at},{bt})")


def planted(name, spec, right, wrong):
    ctx = Context(DOCS)
    expect(check_eval(spec, right, ctx) is None, f"{name}: accepts the program's output")
    expect(check_eval(spec, wrong, ctx) is not None, f"{name}: rejects {wrong!r}")


def test_reference_checks():
    # phi, pair model: perturbed coefficient
    spec, expr = phi_spec("pair", [("dbl", {1: {(1,): 1}, 0: {(2,): 3}})])
    _, bad = phi_spec("pair", [("dbl", {1: {(1,): 2}, 0: {(2,): 3}})])
    planted("phi pair", spec, cli_value(expr, "pair"), cli_value(bad, "pair"))
    # phi, etale model: perturbed coefficient
    spec, expr = phi_spec("etale", [("a21", {(2,): 1, (0,): -1})])
    _, bad = phi_spec("etale", [("a21", {(2,): 1, (0,): -2})])
    planted("phi etale", spec, cli_value(expr, "etale"), cli_value(bad, "etale"))
    # phi, Heisenberg: the Jacobian of conjugation left out
    spec, expr = phi_spec("heisenberg", [("k123", {(0, 1, 0): 1})])
    planted("phi heisenberg", spec, cli_value(expr, "heisenberg"), "[[k123, 1 * Y]]")
    # dist_eval, pair model: value off by one
    spec = {"op": "dist_eval", "model": "pair", "T": [("dbl", {1: {(1,): 1}})],
            "F": {(1, 2): 1}, "x": "1/3"}
    right = cli_value("dist_eval([[dbl, (1*x0) * D]], 1*x0*x1^2, 1/3)", "pair")
    planted("dist_eval pair", spec, right, str(convbialg.Q(right) + 1))
    # dist_eval, pair model: an exact value that no float-based simplifier
    # may turn into a product of surds
    spec = {"op": "dist_eval", "model": "pair", "x": "-1/3",
            "T": [("dbl", {0: {(0,): -1}, 2: {(1,): 1, (2,): "-1/2"}}),
                  ("shift", {0: {(1,): -1, (2,): 2}, 2: {(0,): -1, (1,): "1/2", (2,): "2/3"}})],
            "F": {(0, 0): -1, (1, 2): 1, (2, 1): "-3/2"}}
    right = cli_value("dist_eval([[dbl, (-1) + (1*x0 + -1/2*x0^2) * D^2]] + [[shift, "
                      "(-1*x0 + 2*x0^2) + (-1 + 1/2*x0 + 2/3*x0^2) * D^2]], "
                      "-1 + 1*x0*x1^2 + -3/2*x0^2*x1, -1/3)", "pair")
    planted("dist_eval pair, exact value", spec, right, str(convbialg.Q(right) * 2))
    # conv_mul: swapped factors land on the wrong product bisection
    a, b = [("shift", {0: {(0,): 1}})], [("dbl", {1: {(1,): 1}})]
    spec, expr = conv_spec("pair", a, b)
    _, swapped = conv_spec("pair", b, a)
    planted("conv_mul pair product", spec, cli_value(expr, "pair"), cli_value(swapped, "pair"))
    a, b = [("kx", {(1, 0, 0): 1})], [("ky", {(0, 1, 0): 2})]
    spec, expr = conv_spec("heisenberg", a, b)
    _, swapped = conv_spec("heisenberg", b, a)
    planted("conv_mul heisenberg product", spec, cli_value(expr, "heisenberg"),
            cli_value(swapped, "heisenberg"))
    # conv_mul: right product bisection, perturbed coefficient
    a, b = [("shift", {1: {(1,): 1}})], [("half", {0: {(2,): 1}, 2: {(0,): 1}})]
    spec, expr = conv_spec("pair", a, b)
    _, bad = conv_spec("pair", [("shift", {1: {(1,): 1, (0,): 1}})], b)
    planted("conv_mul pair coefficients", spec, cli_value(expr, "pair"), cli_value(bad, "pair"))
    a, b = [("d", {(1,): 1})], [("sh", {(2,): 1})]
    spec, expr = conv_spec("etale", a, b)
    _, bad = conv_spec("etale", [("d", {(1,): 2})], b)
    planted("conv_mul etale coefficients", spec, cli_value(expr, "etale"), cli_value(bad, "etale"))


def test_case_counts():
    expected = {key: expected_counts(doc) for key, doc in DOCS.items()}
    expect(expected == {"etale": {"exact": 600, "series": 0, "pairs": 324},
                        "heisenberg": {"exact": 500, "series": 0, "pairs": 225},
                        "pair": {"exact": 400, "series": 800, "pairs": 144}},
           "case counts derived from the builtin registries")
    report = convbialg.run_suite("prop43", models=convbialg.builtin_models())
    expect(check_suite_report("prop43", report, expected) is None, "prop43: accepts its report")
    report["checks"][0]["name"] = report["checks"][0]["name"].replace("324", "325")
    expect(check_suite_report("prop43", report, expected) is not None,
           "prop43: rejects a wrong pair count")

    def cs(heis_cases):
        names = ["etale: exact on 600 cases", f"heisenberg: exact on {heis_cases} cases",
                 "pair: exact on 400 cases, series (<1e-9) on 800"]
        return {"pass": True, "checks": [{"name": n, "pass": True} for n in names]}

    expect(check_suite_report("commuting-square", cs(500), expected) is None,
           "commuting-square: accepts the fresh-registry counts")
    expect(check_suite_report("commuting-square", cs(1600), expected) is not None,
           "commuting-square: rejects the counts of a shared, inflated registry")
    expect(check_suite_report("uea", {"pass": False, "checks": [{"name": "x", "pass": False}]},
                              expected) is not None, "a failing suite report is rejected")


def test_workloads_quick():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in bench[key]}
        for w in bench["workloads"]:
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", w["name"],
                   "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
            what = f"quick {w['name']} trace {trace}"
            if done.returncode != 0:
                expect(False, f"{what}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: correct, {result['attempted']} attempted, {result['failed']} failed")
            expect(set(result["metrics"]) == names, f"{what}: reports the {key} metrics")


DOCS = workloads.builtin_docs()

if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    test_reference_checks()
    test_case_counts()
    test_workloads_quick()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
