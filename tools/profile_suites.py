"""Profile the ten suites, or one round of the `eval` stream, with cProfile.

    python3 tools/profile_suites.py [--workload {suites,eval}]

With `--workload suites` (the default) it runs `run_all()` (every suite in
sorted order, serially, each on models built afresh, as `convbialg check`
runs them).  With `--workload eval` it builds the stream of perfbench's
`eval` workload at seed 1001 (the first seed of tools/bench_pairs.py) from
perfbench/workloads.py, runs one round unprofiled, so that what a process
builds once is built, then profiles a second round: 112 in-process calls of
`convbialg.cli.main`, as perfbench times them.  The package is imported
from `src/` of the tree this script lives in.  It prints the profiled
total, the calls and cumulative seconds of each function in `WATCHED`,
then the 25 functions with the most self time.  Profiled seconds are
slower than plain ones; compare them only with another run of this script
on the same machine.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from convbialg import adjoint, cli, coeffs, dist, groupoid, lie_rinehart, suites, uea  # noqa: E402

WATCHED = (
    ("Polynomial.__init__", coeffs.Polynomial.__init__),
    ("CoeffFn.__init__", coeffs.CoeffFn.__init__),
    ("_uea_term", uea._uea_term),
    ("Fraction.__new__", Fraction.__new__),
    ("Polynomial.substitute", coeffs.Polynomial.substitute),
    ("Polynomial.at", coeffs.Polynomial.at),
    ("CoeffFn.const", coeffs.CoeffFn.const),
    ("uea._gen_times_monomial", uea._gen_times_monomial),
    ("groupoid._solve_monotone", groupoid._solve_monotone),
    ("groupoid.bisection_mul", groupoid.bisection_mul),
    ("PolynomialGroupoid.beta_polys", groupoid.PolynomialGroupoid.beta_polys),
    ("adjoint.ad_uea", adjoint.ad_uea),
    # one per bisection: ad_uea keeps the generator images on it
    ("adjoint.ad_matrix", adjoint.ad_matrix),
    ("lie_rinehart.anchor_apply", lie_rinehart.anchor_apply),
    ("groupoid.bisection_inv", groupoid.bisection_inv),
    # the inverses built: bisection_inv keeps one per bisection
    ("PairModel.bisection_inv", groupoid.PairModel.bisection_inv),
    ("GroupModel.bisection_inv", groupoid.GroupModel.bisection_inv),
    ("EtaleActionModel.bisection_inv", groupoid.EtaleActionModel.bisection_inv),
    ("dist.ArrowFn.apply_frame", dist.ArrowFn.apply_frame),
    ("dist._defcheck_term_pair", dist._defcheck_term_pair),
    ("dist.commuting_square_gap_numeric", dist.commuting_square_gap_numeric),
    # the fixed cost of a CLI call: built or run once per process and structure
    ("cli.build_parser", cli.build_parser.__wrapped__),
    ("lie_rinehart._verify_algebroid", lie_rinehart._verify_algebroid),
    ("PolynomialGroupoid._verify_structure", groupoid.PolynomialGroupoid._verify_structure),
)
TOP = 25
EVAL_SEED = 1001


def _key(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _where(key):
    filename, line, name = key
    if filename.startswith(ROOT + os.sep):
        filename = os.path.relpath(filename, ROOT)
    elif filename.startswith(("<", "~")):
        return name
    else:
        filename = os.path.basename(filename)
    return f"{filename}:{line}({name})"


class _Direct:
    """The recorder of a perfbench round, without timing: an operation
    that fails raises."""

    @staticmethod
    def op(label, fn, *args):
        return fn(*args)


def _profile(prof, run):
    """run() under prof: its result and the wall seconds it took."""
    start = time.perf_counter()
    result = prof.runcall(run)
    return result, time.perf_counter() - start


def _suites(prof):
    report, wall = _profile(prof, suites.run_all)
    return "ten suites", report["pass"], wall


def _eval(prof):
    with tempfile.TemporaryDirectory() as workdir:
        stream = workloads.make("eval", EVAL_SEED, workdir)
        stream.run_round(_Direct)
        _, wall = _profile(prof, lambda: stream.run_round(_Direct))
    # perfbench's output checks, outside the profile
    return f"one eval round of {len(stream.stream)} calls", not stream.check(), wall


def main(argv=None):
    parser = argparse.ArgumentParser(description="cProfile of one workload")
    parser.add_argument("--workload", choices=("suites", "eval"), default="suites")
    args = parser.parse_args(argv)
    prof = cProfile.Profile()
    label, passed, wall = (_suites if args.workload == "suites" else _eval)(prof)
    stats = pstats.Stats(prof).stats  # key -> (primitive calls, calls, self s, cumulative s, callers)
    profiled = sum(row[2] for row in stats.values())
    print(f"{label}, pass={passed}: {profiled:.2f} s profiled, {wall:.2f} s wall")
    print()
    print(f"{'calls':>10} {'cumulative s':>13}  function")
    for label, fn in WATCHED:
        _, calls, _, cum, _ = stats.get(_key(fn), (0, 0, 0.0, 0.0, None))
        print(f"{calls:>10,} {cum:>13.2f}  {label}")
    print()
    print(f"top {TOP} by self time")
    print(f"{'calls':>10} {'self s':>8} {'cumulative s':>13}  function")
    rows = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:TOP]
    for key, (_, calls, self_s, cum, _) in rows:
        print(f"{calls:>10,} {self_s:>8.2f} {cum:>13.2f}  {_where(key)}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
