"""Time-to-verdict benchmark for convbialg.

    python3 perfbench/run.py --workload {suites,eval,big-model} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree.  The library is imported from ./src.
One caller runs a closed loop in this single-threaded process: each
operation starts when the previous one has returned.  Whole rounds of the
workload's operations run until the next round would end after --seconds
(at least one round).  Every output is then checked, and the last line of
stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
metrics are per layer: one untraced round gives the time of each suite,
then the library's public functions are wrapped (see tracing.py) for the
traced rounds.  Details of the run, and the spans of a traced run, are
written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 7


def _use_source_tree():
    if not os.path.isfile(os.path.join(SRC, "convbialg", "__init__.py")):
        sys.exit(f"perfbench: no convbialg sources under {SRC}")
    sys.path[:0] = [SRC, HERE]


class Recorder:
    """Records the start and end of each operation of the closed loop, and
    counts failures."""

    def __init__(self):
        self.tracer = None         # a tracing.Tracer in traced runs
        self.spans = []            # (label, start, end) of each completed operation
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, label, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        start = perf_counter()
        try:
            if self.tracer is not None:
                out = self.tracer.span("op:" + label, fn, *args)
            else:
                out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.spans.append((label, start, perf_counter()))
        return out


def measure(workload, seconds, rec):
    """Run whole rounds until the next one would end after `seconds`;
    returns the (start, end) of each round."""
    rounds = []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        workload.run_round(rec)
        rounds.append((t0, perf_counter()))
        mean = sum(b - a for a, b in rounds) / len(rounds)
        if perf_counter() - begin + mean > seconds:
            return rounds


def setup_probe(args):
    """Child mode: import the library and build the workload's inputs; print
    the time taken, in reference seconds."""
    from calibrate import REF_KERNEL_S, kernel_seconds

    before = kernel_seconds()
    t0 = perf_counter()
    import workloads

    workloads.make(args.workload, args.seed, OUT, quick=args.quick)
    elapsed = perf_counter() - t0
    print(elapsed * REF_KERNEL_S / ((before + kernel_seconds()) / 2))


def setup_seconds(args):
    """Median set-up time over fresh interpreter processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args):
    os.makedirs(OUT, exist_ok=True)
    setup_s = None if args.trace else setup_seconds(args)

    import workloads
    from calibrate import Calibrator
    from tracing import SUITE_FIGURES

    workload = workloads.make(args.workload, args.seed, OUT, quick=args.quick)
    rec = Recorder()
    # A traced run starts with one untraced round, for the per-suite figures.
    with Calibrator() as cal:
        rounds = measure(workload, 0 if args.trace else args.seconds, rec)
    op_s = [(label, cal.scaled(a, b)) for label, a, b in rec.spans]
    per_label = {}
    for label, t in op_s:
        per_label.setdefault(label, []).append(t)
    op_median_s = {k: statistics.median(v) for k, v in sorted(per_label.items())}
    if args.trace:
        from tracing import Tracer, per_layer_names

        rec.tracer = Tracer()
        rec.tracer.install()
        try:
            traced_rounds = measure(workload, args.seconds, rec)
        finally:
            rec.tracer.uninstall()
    # Read before the checks, which import sympy.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = workload.check()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_rounds = [b - a for a, b in rounds]
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "raw_round_s": raw_rounds, "operations": len(rec.spans),
               "op_median_s": op_median_s, "problems": problems[:50], "errors": rec.errors[:50],
               "kernel_median_s": statistics.median(e - s for s, e in zip(cal.starts, cal.ends))}
    if args.trace:
        rec.tracer.write(os.path.join(OUT, "spans-" + tag))
        values = rec.tracer.metrics()
        values.update({f"suites.{name}.total_s": op_median_s.get(name, 0.0)
                       for name in SUITE_FIGURES})
        units = {name: unit for name, unit, _ in per_layer_names()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        details["traced_rounds"] = len(traced_rounds)
    else:
        round_s = statistics.median(cal.scaled(a, b) for a, b in rounds)
        ms = [t * 1000 for _, t in op_s] or [0.0]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "verdicts_s": {"value": round_s, "unit": "s"},
            "op_rate": {"value": len(op_s) / len(rounds) / round_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "op_p90_ms": {"value": percentile(ms, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1)
    for p in (problems + rec.errors)[:20]:
        print("problem:", p, file=sys.stderr)
    print(f"rounds: {len(rounds)}, raw round median {statistics.median(raw_rounds):.3f} s, "
          f"operations {len(rec.spans)}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("suites", "eval", "big-model"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs: fewer suites, expressions and bisections")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _use_source_tree()
    if args.setup_probe:
        setup_probe(args)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
