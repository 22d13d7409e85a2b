"""Planted failures run the witness code of the suite checks.

Each case replaces names that one suite reads from `convbialg.suites` with
versions that give wrong answers, runs the suite, and asserts that exactly
the checks the plant breaks fail with a witness, read back from the CLI's
canonical JSON, and that those bytes hash as they did when the plant was
recorded.  Two defects of the layers below phi-homomorphism, c1 in conv_mul
and m4 in ad_uea, are planted too: the suite's two-term witness is read
back on newly built models, where it fails the law again under the plant
and holds without it.

    PYTHONPATH=src python -m pytest -q tests/test_witnesses.py
"""

import hashlib
import importlib
import json
from functools import reduce

import pytest

import convbialg.suites as suites
from convbialg.adjoint import ad_uea
from convbialg.cli import _emit_json, main
from convbialg.coeffs import CoeffFn, Polynomial
from convbialg.conv import ConvElement, ConvTensor
from convbialg.groupoid import unit_bisection
from convbialg.lie_rinehart import law
from convbialg.models import FACTORIES
from convbialg.textform import parse_conv
from convbialg.uea import TensorElement, UEAElement, uea_mul


def _plus_one_counit(real):
    return lambda a: real(a) + CoeffFn.const(a.model.algebroid.chart, 1)


def _nonzero_gaps(real):
    return lambda model, E, u, Fs: [Polynomial.const(1, 1) for _ in Fs]


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _always_in_kernel(real):
    return lambda a: {"in_kernel": True, "witness": None}


def _doubled(real):
    return lambda a: real(a + a)


def _plus_u_tensor_one(real):
    return lambda u: real(u) + TensorElement.of(u, UEAElement.one(u.parent))


def _right_slot_on_unit(real):
    def plant(a):
        unit = a.model.register(unit_bisection(a.model)).bid
        return ConvTensor(a.model, [((bl, unit), t) for (bl, _), t in real(a).terms.items()])
    return plant


# plant name: (suite, {name in convbialg.suites -> plant made from the real
# one}, the checks that then fail with a witness, sha256 of the report's
# canonical JSON)
PLANTS = {
    "uea-mul-plus-u": (
        "uea", {"uea_mul": lambda real: lambda u, v: real(u, v).plus([u])},
        ["associativity (100 triples)", "Delta multiplicative (30 pairs)",
         "defining relations [X_i, X_j] and [X_i, f]"],
        "1bb518e470465551889abe659bfe7a22f14fb19aa71237dd24adbd1b474c23c2"),
    "uea-coproduct-doubled": (
        "uea", {"coproduct": _doubled},
        ["counit axioms (eps x id, id x eps)", "Delta multiplicative (30 pairs)"],
        "43c5835f0e9b9cbd263652f4b10d054f2dcae1a8a23f091b9454d78c9df4cdb1"),
    "uea-coproduct-plus-u-tensor-1": (
        "uea", {"coproduct": _plus_u_tensor_one},
        ["coassociativity", "counit axioms (eps x id, id x eps)",
         "Delta multiplicative (30 pairs)", "Delta image in the balanced subspace",
         "cocommutativity"],
        "1a53c7d2f7b00e1dd27e5e85da8d5ff3a50b6b96616b2ca494dbf0b42ad7629d"),
    "hopf-etale-counit-plus-one": (
        "hopf-etale", {"conv_counit": _plus_one_counit},
        ["(ii) eps restricted to R is the identity", "(iv) eps(ab) = eps(a.eps(b))",
         "(viii) mu(S x id)Delta = eps o S (support-respecting form)"],
        "5a949a4bc2f27f8d465b3c43604511b3aa68f5ce2fdb9033dc2aae78c6a5f8c5"),
    "hopf-etale-coproduct-doubled": (
        "hopf-etale", {"conv_coproduct": _doubled},
        ["(iii) Delta restricted to R is the canonical embedding",
         "(v) Delta(ab) = Delta(a)Delta(b)",
         "(viii) mu(S x id)Delta = eps o S (support-respecting form)"],
        "f8ba6b145bbad4580eebec56f98396e9f0c732bb946c546a2eacdd58e79a68ea"),
    "hopf-etale-coproduct-right-slot-on-unit": (
        "hopf-etale", {"conv_coproduct": _right_slot_on_unit},
        ["(i) Delta(A) in the balanced subspace", "cocommutativity",
         "(viii) mu(S x id)Delta = eps o S (support-respecting form)"],
        "b0341b1fbb1de9426ffbf0a1d600bd5a6384ebd41411ea2ec9a7b3184b13cc8f"),
    "hopf-etale-antipode-plus-a": (
        "hopf-etale", {"antipode_etale": lambda real: lambda a: real(a) + a},
        ["(vi) S restricted to R is the identity", "(vii) S(ab) = S(b)S(a)", "S involution",
         "(viii) mu(S x id)Delta = eps o S (support-respecting form)"],
        "184945ccdb326aa43a89017072db843bbadca4e1e77ea68ddd75338925834fae"),
    # the exact side only: the flat kinks keep their series check
    "commuting-square-nonzero-gaps": (
        "commuting-square", {"commuting_square_gap": _nonzero_gaps},
        ["etale: exact on 600 cases", "heisenberg: exact on 500 cases",
         "pair: exact on 400 cases, series (<1e-9) on 800"],
        "9c7a17e83f5e39ec8ede34d1a86857699a4d1caee259cb30ed2cecb21d1aaa43"),
    "prop43-defcheck-plus-one": (
        "prop43", {"dist_mul_defcheck": _plus_one},
        ["etale: 324 term pairs exact", "heisenberg: 225 term pairs exact",
         "pair: 144 term pairs exact"],
        "9d00cf907e12833499b27a49e6639adaecf27421e2d1c992d7eadc2dc58e1ff6"),
    "phi-homomorphism-dist-mul-plus-t1": (
        "phi-homomorphism", {"dist_mul": lambda real: lambda T2, T1: real(T2, T1) + T1},
        ["etale: 100 term pairs exact", "heisenberg: 100 term pairs exact",
         "pair: 100 term pairs exact"],
        "37770606573d2ad478e0798899004a95c21f80a8a1c088169467ca3ccc4d0f51"),
    "cartier-gabriel-in-kernel-and-mul-plus-a1": (
        "cartier-gabriel", {"kernel_test": _always_in_kernel,
                            "conv_mul": lambda real: lambda a2, a1: real(a2, a1) + a1},
        ["injective on sums over <= 5 group elements",
         "twisted product delta_k' * Phi<u,k> = Phi(conv product)",
         "grouplike x primitive decomposition up to Ad twist"],
        "2e0a31d21c11d45783565b81a2e776dc644a9bbf1c0691100080313ad29419e1"),
    "cartier-gabriel-ad-plus-u": (
        "cartier-gabriel", {"ad_uea": lambda real: lambda E, u: real(E, u) + u},
        ["grouplike x primitive decomposition up to Ad twist"],
        "fa8ed79d6fb0c51b19c7ad2e3f84a2f00c56677e2172022876d82033411a7e32"),
    "etale-iso-in-kernel-and-phi-doubled": (
        "etale-iso", {"kernel_test": _always_in_kernel,
                      "phi": lambda real: lambda a: real(a).scale(2)},
        ["ker(Phi) = 0: kernel_test agrees with germwise zero",
         "every [[E, f]] has preimage <f o tau^-1, E#>"],
        "3229d11c0c49ac4523be93645f21e5a30c3194ced1294c41c96876221d382f82"),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_failure_reports_a_witness(plant, monkeypatch, capsys):
    suite, plants, broken, sha256 = PLANTS[plant]
    for attr, make in plants.items():
        monkeypatch.setattr(suites, attr, make(getattr(suites, attr)))
    report = suites.SUITES[suite]()
    assert report["pass"] is False
    _emit_json(report)
    out = capsys.readouterr().out
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for check in broken:
        assert checks[check]["pass"] is False
        assert checks[check]["witness"] is not None
    # every other check passes: a law's name and prop43's total count the
    # cases planned, so a first failure that cuts a law short fails no count
    assert {c for c, v in checks.items() if not v["pass"]} == set(broken)
    # the bytes pin which case fails first and the rng draws after it
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_text_report_prints_each_witness(monkeypatch, capsys):
    # `check --suite` in text form prints a failed check's witness after it
    suite, plants, broken, _ = PLANTS["uea-mul-plus-u"]
    for attr, make in plants.items():
        monkeypatch.setattr(suites, attr, make(getattr(suites, attr)))
    assert main(["check", "--suite", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{suite}: FAIL" and lines[-1] == "overall: FAIL"
    for check in broken:
        head = f"  [FAIL] {check}  -- "
        assert any(line.startswith(head) and len(line) > len(head) for line in lines)


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


def _c1_conv_mul(real):
    """conv_mul with the factors of each term product swapped:
    Ad_E2(u1) . u2 in place of u2 . Ad_E2(u1)."""
    def plant(a2, a1):
        model = a2.model
        return ConvElement(model, [
            (model.registered_product(model.registry[bid2], model.registry[bid1]).bid,
             uea_mul(ad_uea(model.registry[bid2], u1), u2))
            for bid2, u2 in a2.terms.items() for bid1, u1 in a1.terms.items()])
    return plant


def _m4_ad_uea(real):
    """ad_uea with the generator factors of each monomial multiplied in
    reverse order, from the real images of its coefficient and generators."""
    def plant(E, u):
        A = u.parent
        out = UEAElement.zero(A)
        for exp, f in u.terms.items():
            factors = [real(E, UEAElement.generator(A, j))
                       for j, k in enumerate(exp) for _ in range(k)]
            out = out + reduce(uea_mul, reversed(factors), real(E, UEAElement.from_coeff(A, f)))
        return out
    return plant


# two defects below the suite's own layer: c1 in conv_mul, which the suite
# reads from convbialg.suites, and m4 in ad_uea, which conv_mul, phi and
# dist_mul read from their own modules; with the witness of each failing
# check
PHI_PLANTS = {
    "c1": ([("convbialg.suites", "conv_mul", _c1_conv_mul)],
           {"heisenberg": "<7 * Y | kx> ; <1 + -2 * X^2 | kz>",
            "pair": "<-3 * D | M> ; <(2*x0^2) * D | M>"}),
    "m4": ([(module, "ad_uea", _m4_ad_uea)
            for module in ("convbialg.conv", "convbialg.dist", "convbialg.phi")],
           {"heisenberg": "<7 * Y | kx> ; <1 + -2 * X^2 | kz>"}),
}


def _phi_multiplicative(key, witness):
    """The phi-homomorphism law on the two terms of a witness, read back
    on a newly built model."""
    model = FACTORIES[key]()
    a, b = (parse_conv(model, text) for text in witness.split(" ; "))
    assert len(a.terms) == len(b.terms) == 1
    return suites.phi(suites.conv_mul(a, b)) == suites.dist_mul(suites.phi(a), suites.phi(b))


@pytest.mark.parametrize("plant", sorted(PHI_PLANTS))
def test_phi_homomorphism_witness_replays_on_new_models(plant, monkeypatch):
    plants, expected = PHI_PLANTS[plant]
    for module, attr, make in plants:
        # importlib: the package's `phi` attribute is the function, not the module
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    report = suites.suite_phi_homomorphism()
    witnesses = {c["name"].split(":")[0]: c["witness"] for c in report["checks"] if not c["pass"]}
    assert witnesses == expected
    for key, witness in witnesses.items():
        assert not _phi_multiplicative(key, witness)
    monkeypatch.undo()
    for key, witness in witnesses.items():
        assert _phi_multiplicative(key, witness)


def _counted(cases, drawn):
    for case in cases:
        drawn.append(case)
        yield case


def test_law_stops_at_the_first_failure():
    drawn = []
    check = law("odd", _counted([(1,), (3,), (4,), (6,), (7,)], drawn),
                        lambda n: n % 2, lambda n: f"n={n}")
    assert check == {"name": "odd", "pass": False, "witness": "n=4"}
    assert drawn == [(1,), (3,), (4,)]


@pytest.mark.parametrize("cases", [[(1, 2), (3, 4)], []])
def test_law_passes_without_a_witness(cases):
    drawn = []
    check = law("ordered", _counted(cases, drawn), lambda a, b: a < b, repr)
    assert check == {"name": "ordered", "pass": True, "witness": None}
    assert drawn == cases
