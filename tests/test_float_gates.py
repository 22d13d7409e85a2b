"""Every float gate is a law whose test `value <= tolerance` a NaN fails:
the check fails on the first NaN, and its witness names the case and the
NaN."""

import json
import math
import re

from convbialg import coeffs, suites


def _pair_check(report):
    (check,) = [c for c in report["checks"] if c["name"].startswith("pair:")]
    return check


def test_commuting_square_series_gate(monkeypatch):
    monkeypatch.setattr(suites, "commuting_square_gap_numeric",
                        lambda model, E, u, Fs, g: [math.nan] * len(Fs))
    report = suites.suite_commuting_square()
    assert report["pass"] is False
    check = _pair_check(report)
    assert check["pass"] is False
    # E, u, F, the arrow and the NaN
    m = re.fullmatch(r"(.+?) u=.+ F=.+ at \(0\.5, 0\.35\) \|gap\|=nan", check["witness"])
    assert m and suites.FACTORIES["pair"]().registry[m.group(1)].is_flat
    # the other models have no flat kink, so their exact checks still pass
    assert [c["pass"] for c in report["checks"]] == [True, True, False]


def test_commuting_square_series_walks_test_functions_then_arrows(monkeypatch):
    # F0 fails at the second arrow and F1 at the first: walked F-major, the
    # first failure, which names the witness, is F0's at the second arrow
    seen = []

    def planted(model, E, u, Fs, g):
        seen.append((u, Fs))
        k = 0 if g == (0.5, 0.35) else 1
        return [10.0 * i + k if i + k == 1 else 0.0 for i in range(len(Fs))]

    monkeypatch.setattr(suites, "commuting_square_gap_numeric", planted)
    check = _pair_check(suites.suite_commuting_square())
    # both arrows of the first draw on the first kink, and no draw after it
    assert len(seen) == 2 and seen[0] == seen[1]
    u, Fs = seen[0]
    assert check["witness"].endswith(
        f" u={u.text()} F={Fs[0].text()} at (-1.25, -0.8) |gap|=1.0")


def test_fd_sanity_gate(monkeypatch):
    monkeypatch.setattr(coeffs, "_flat_eval", lambda a, t: math.nan)
    report = suites.suite_fd_sanity()
    assert report["pass"] is False
    for check in report["checks"]:
        flat = not check["name"].startswith("random polynomial")
        assert check["pass"] is not flat
        # the first of the 20 points, and the NaN
        assert check["witness"] == ("x=0.3 rel=nan" if flat else None)


def test_no_report_holds_a_float(capsys):
    # a report holds names, verdicts and witnesses, so its bytes do not
    # depend on the platform's libm
    from convbialg.cli import main

    def floats(doc):
        if isinstance(doc, float):
            yield doc
        elif isinstance(doc, dict):
            for v in doc.values():
                yield from floats(v)
        elif isinstance(doc, list):
            for v in doc:
                yield from floats(v)

    assert main(["check", "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["suites"]) == len(suites.SUITES)
    assert list(floats(doc)) == []
