"""Profile the ten suites with cProfile, each on newly built models.

    python3 tools/profile_suites.py

Runs `run_all()` (every suite in sorted order, serially, each on models
built afresh, as `convbialg check` runs them) under cProfile with the
package imported from `src/` of the tree this script lives in.  It prints
the profiled total, the calls and cumulative seconds of each function in
`WATCHED`, then the 25 functions with the most self time.  Profiled
seconds are slower than plain ones; compare them only with another run of
this script on the same machine.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from convbialg import adjoint, coeffs, dist, groupoid, lie_rinehart, suites, uea  # noqa: E402

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
)
TOP = 25


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


def main():
    prof = cProfile.Profile()
    start = time.perf_counter()
    report = prof.runcall(suites.run_all)
    wall = time.perf_counter() - start
    stats = pstats.Stats(prof).stats  # key -> (primitive calls, calls, self s, cumulative s, callers)
    profiled = sum(row[2] for row in stats.values())
    print(f"ten suites, pass={report['pass']}: {profiled:.2f} s profiled, {wall:.2f} s wall")
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
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
