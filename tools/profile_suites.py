"""Profile the ten suites, or one round of a perfbench stream, with cProfile.

    python3 tools/profile_suites.py [--workload {suites,eval,big-model}]

With `--workload suites` (the default) it runs `run_all()` (every suite in
sorted order, serially, each on models built afresh, as `convbialg check`
runs them).  With `--workload eval` or `--workload big-model` it builds the
stream of that perfbench workload at seed 1001 (the first seed of
tools/bench_pairs.py) from perfbench/workloads.py, runs one round
unprofiled, so that what a process builds once is built, then profiles a
second round.  An `eval` round is 112 in-process calls of
`convbialg.cli.main`; a `big-model` round runs commuting-square and prop43
on models with 8 extra bisections each, as perfbench times them.  The
package is imported from `src/` of the tree this script lives in.  It
prints the profiled total, the calls and cumulative seconds of each
function in `WATCHED`, then the 25 functions with the most self time.

Profiled seconds are slower than plain ones; compare them only with
another run of this script on the same machine.  cProfile also overstates
code that makes many small Fraction operations, since each one is a
profiled call.  Before `Polynomial.eval` summed in integers, it put that
function at 25% of a profiled prop43 call on `big-model`, where its
19,946 calls at 5.3 us each were about 22% of the 0.48 s of CPU of an
unprofiled one.  So a profile points at where to look; a gain is claimed
from tools/bench_pairs.py, not from a profile.
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
    # substitute makes a monomial's product once per images store
    ("Polynomial.__mul__", coeffs.Polynomial.__mul__),
    ("Polynomial.substitute", coeffs.Polynomial.substitute),
    ("Polynomial.at", coeffs.Polynomial.at),
    ("Polynomial.eval", coeffs.Polynomial.eval),
    ("CoeffFn.const", coeffs.CoeffFn.const),
    # one per (right term, u') in a term_products sweep, in prop43
    ("uea.uea_mul", uea.uea_mul),
    ("uea._gen_times_monomial", uea._gen_times_monomial),
    ("groupoid._solve_monotone", groupoid._solve_monotone),
    ("groupoid.bisection_mul", groupoid.bisection_mul),
    # beta_E of an etale bisection: its inverse is kept on it as "gamma_inv"
    ("AffineMap.inverse", groupoid.AffineMap.inverse),
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
    # one per (PBW exponent, monomial) that the structure store misses
    ("dist._omega_walk", dist._omega_walk),
    ("dist._defcheck_term_pair", dist._defcheck_term_pair),
    ("dist.commuting_square_gap_numeric", dist.commuting_square_gap_numeric),
    # the fixed cost of a CLI call: built or run once per process and kind
    ("cli.build_parser", cli.build_parser.__wrapped__),
    ("lie_rinehart.algebroid_of_groupoid", lie_rinehart.algebroid_of_groupoid),
    ("PolynomialGroupoid._verify_structure", groupoid.PolynomialGroupoid._verify_structure),
)
TOP = 25
STREAM_SEED = 1001


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


def _stream(name, prof):
    with tempfile.TemporaryDirectory() as workdir:
        stream = workloads.make(name, STREAM_SEED, workdir)
        stream.run_round(_Direct)
        _, wall = _profile(prof, lambda: stream.run_round(_Direct))
    # perfbench's output checks, outside the profile
    return f"one {name} round", not stream.check(), wall


def main(argv=None):
    parser = argparse.ArgumentParser(description="cProfile of one workload")
    parser.add_argument("--workload", choices=("suites", "eval", "big-model"), default="suites")
    args = parser.parse_args(argv)
    prof = cProfile.Profile()
    if args.workload == "suites":
        label, passed, wall = _suites(prof)
    else:
        label, passed, wall = _stream(args.workload, prof)
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
