"""Tracing overhead: untraced and traced rounds of one workload, alternating.

    python3 perfbench/overhead.py --workload eval --pairs 8

Runs `--pairs` pairs of rounds in one process, untraced and traced, with
the order swapped in every other pair.  The calibrator runs during both
(see calibrate.py), so both sides are measured in reference seconds.
Prints the median round time of each side and the overhead of tracing.
"""

from __future__ import annotations

import argparse
import statistics

import run

run._use_source_tree()

import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402


def round_seconds(workload, traced):
    rec = run.Recorder()
    if traced:
        rec.tracer = Tracer()
        rec.tracer.install()
    try:
        with Calibrator() as cal:
            (start, end), = run.measure(workload, 0, rec)
    finally:
        if traced:
            rec.tracer.uninstall()
    return cal.scaled(start, end)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=401)
    p.add_argument("--pairs", type=int, default=2)
    args = p.parse_args()
    workload = workloads.make(args.workload, args.seed, run.OUT)
    times = {False: [], True: []}
    for i in range(args.pairs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            times[traced].append(round_seconds(workload, traced))
    plain, traced = statistics.median(times[False]), statistics.median(times[True])
    print(f"{args.workload}: untraced {plain:.3f} s, traced {traced:.3f} s per round, "
          f"overhead {traced / plain - 1:+.1%} ({args.pairs} pairs)")


if __name__ == "__main__":
    main()
