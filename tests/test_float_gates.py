"""Every float gate fails on a NaN and names it, instead of letting
max() and a `>` comparison wave it through."""

import math

import pytest

from convbialg import coeffs, suites
from convbialg.suites import max_keep_nan


def test_commuting_square_series_gate(monkeypatch):
    monkeypatch.setattr(suites, "commuting_square_gap_numeric",
                        lambda model, E, u, Fs, g: [math.nan] * len(Fs))
    report = suites.suite_commuting_square(nu=1, nf=1)
    assert report["pass"] is False
    (pair_check,) = [c for c in report["checks"] if c["name"].startswith("pair:")]
    assert pair_check["pass"] is False
    assert "|gap|=nan" in pair_check["witness"]
    assert math.isnan(pair_check["max_numeric_gap"])


def test_commuting_square_series_walks_test_functions_then_arrows(monkeypatch):
    # F0 fails at the second arrow and F1 at the first: walked F-major, the
    # last failure, which names the witness, is F1's
    def planted(model, E, u, Fs, g):
        k = 0 if g == (0.5, 0.35) else 1
        return [10.0 * i + k if i + k == 1 else 0.0 for i in range(len(Fs))]

    monkeypatch.setattr(suites, "commuting_square_gap_numeric", planted)
    report = suites.suite_commuting_square(nu=1, nf=2)
    (pair_check,) = [c for c in report["checks"] if c["name"].startswith("pair:")]
    assert pair_check["witness"].endswith("|gap|=10.0")
    assert pair_check["max_numeric_gap"] == 10.0


def test_fd_sanity_gate(monkeypatch):
    monkeypatch.setattr(coeffs, "_flat_eval", lambda a, t: math.nan)
    report = suites.suite_fd_sanity(npoints=4)
    assert report["pass"] is False
    for check in report["checks"]:
        flat = not check["name"].startswith("random polynomial")
        assert check["pass"] is not flat
        assert math.isnan(check["max_rel"]) is flat


@pytest.mark.parametrize("values, expected", [
    ([0.5, 0.25, 1.0], 1.0),
    ([0.5, math.nan, 1.0], math.nan),
    ([math.nan, 2.0], math.nan),
])
def test_max_keep_nan(values, expected):
    worst = 0.0
    for v in values:
        worst = max_keep_nan(worst, v)
    assert worst == expected or (math.isnan(worst) and math.isnan(expected))
