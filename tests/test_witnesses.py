"""Planted failures run the witness code of the suite checks.

Each case replaces names that one suite reads from `convbialg.suites` with
versions that give wrong answers, runs the suite, and asserts that exactly
the checks the plant breaks fail with a witness, read back from the CLI's
canonical JSON.

    PYTHONPATH=src python -m pytest -q tests/test_witnesses.py
"""

import json

import pytest

import convbialg.suites as suites
from convbialg.cli import _emit_json
from convbialg.coeffs import CoeffFn, Polynomial


def _plus_one_counit(real):
    return lambda a: real(a) + CoeffFn.const(a.model.algebroid.chart, 1)


def _nonzero_gaps(real):
    return lambda model, E, u, Fs: [Polynomial.const(1, 1) for _ in Fs]


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _always_in_kernel(real):
    return lambda a: {"in_kernel": True, "witness": None}


# suite: (name in convbialg.suites -> plant made from the real one, keyword
# arguments of the suite, the checks that then fail with a witness)
PLANTS = {
    "uea": ({"uea_mul": lambda real: lambda u, v: real(u, v).plus([u])}, {},
            ["associativity (100 triples)", "Delta multiplicative (30 pairs)"]),
    "hopf-etale": ({"conv_counit": _plus_one_counit}, {},
                   ["(ii) eps restricted to R is the identity",
                    "(iv) eps(ab) = eps(a.eps(b))",
                    "(viii) mu(S x id)Delta = eps o S (support-respecting form)"]),
    # the exact side only: the flat kinks keep their series check
    "commuting-square": ({"commuting_square_gap": _nonzero_gaps}, {"nu": 1, "nf": 1},
                         ["etale: exact on 6 cases", "heisenberg: exact on 5 cases",
                          "pair: exact on 4 cases, series (<1e-9) on 8"]),
    "prop43": ({"dist_mul_defcheck": _plus_one}, {},
               ["etale: 1 term pairs exact", "heisenberg: 1 term pairs exact",
                "pair: 1 term pairs exact"]),
    "phi-homomorphism": ({"dist_mul": lambda real: lambda T2, T1: real(T2, T1) + T1}, {},
                         ["etale: 100 random pairs exact", "heisenberg: 100 random pairs exact",
                          "pair: 100 random pairs exact"]),
    "cartier-gabriel": ({"kernel_test": _always_in_kernel,
                         "conv_mul": lambda real: lambda a2, a1: real(a2, a1) + a1}, {},
                        ["injective on sums over <= 5 group elements",
                         "twisted product delta_k' * Phi<u,k> = Phi(conv product)",
                         "grouplike x primitive decomposition up to Ad twist"]),
    "etale-iso": ({"kernel_test": _always_in_kernel,
                   "phi": lambda real: lambda a: real(a).scale(2)}, {},
                  ["ker(Phi) = 0: kernel_test agrees with germwise zero",
                   "every [[E, f]] has preimage <f o tau^-1, E#>"]),
}


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_planted_failure_reports_a_witness(name, monkeypatch, capsys):
    plants, kwargs, broken = PLANTS[name]
    for attr, make in plants.items():
        monkeypatch.setattr(suites, attr, make(getattr(suites, attr)))
    report = suites.SUITES[name](**kwargs)
    assert report["pass"] is False
    _emit_json(report)
    doc = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in doc["checks"]}
    for check in broken:
        assert checks[check]["pass"] is False
        assert checks[check]["witness"] is not None
    # every other check with a witness passes (a count check without one,
    # like prop43's total, fails when the first failure cuts the loops short)
    assert {c for c, v in checks.items() if "witness" in v and not v["pass"]} == set(broken)


def test_prop43_witness_names_both_operators(monkeypatch):
    # the failing pair can be rebuilt: its witness names u2 and u1 too
    seen = []
    planted = _plus_one(suites.dist_mul_defcheck)

    def recording(T2, T1, F, x):
        seen.append((T2, T1))
        return planted(T2, T1, F, x)

    monkeypatch.setattr(suites, "dist_mul_defcheck", recording)
    report = suites.suite_prop43()
    witnesses = [c["witness"] for c in report["checks"] if c.get("witness")]
    assert len(witnesses) == len(seen) == 3
    for witness, (T2, T1) in zip(witnesses, seen):
        [(bid2, u2)] = T2.terms.items()
        [(bid1, u1)] = T1.terms.items()
        assert witness.startswith(f"{bid2}*{bid1} with u2={u2.text()}, u1={u1.text()} at x=")
