import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import convbialg.uea
from convbialg.adjoint import ad_uea
from convbialg.cli import main
from convbialg.coeffs import CoeffFn, Polynomial
from convbialg.errors import ChartMismatch, VerificationFailed
from convbialg.lie_rinehart import (
    LieRinehart,
    heisenberg_algebra,
    random_polynomial,
    rank_zero_algebroid,
    tangent_line_algebroid,
)
from convbialg.models import heisenberg_model, pair_model
from convbialg.suites import _random_uea
from convbialg.textform import parse_uea
from convbialg.uea import (
    TensorElement,
    UEAElement,
    anchor_rep,
    coproduct,
    counit,
    uea_mul,
)

from free_oracle import line_rank2_algebra, oracle_mul

LINE = tangent_line_algebroid()
H3 = heisenberg_algebra()
LINE2 = line_rank2_algebra()


def rand_uea(rng, A, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * A.rank
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(A.rank)] += 1
        terms[tuple(exp)] = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
    return UEAElement(A, terms)


class TestRewriting:
    def test_d_times_t(self):
        # D * t = t D + 1
        D = UEAElement.generator(LINE, 0)
        t = UEAElement.from_coeff(LINE, CoeffFn.var(LINE.chart))
        prod = uea_mul(D, t)
        assert prod.terms == {
            (1,): CoeffFn.var(LINE.chart),
            (0,): CoeffFn.const(LINE.chart, 1),
        }

    def test_y_times_x(self):
        # Y * X = X Y - Z
        X, Y = UEAElement.generator(H3, 0), UEAElement.generator(H3, 1)
        prod = uea_mul(Y, X)
        assert prod.terms == {
            (1, 1, 0): CoeffFn.const(H3.chart, 1),
            (0, 0, 1): CoeffFn.const(H3.chart, -1),
        }

    def test_center(self):
        X, Z = UEAElement.generator(H3, 0), UEAElement.generator(H3, 2)
        assert uea_mul(X, Z) == uea_mul(Z, X)

    def test_zero_prints_as_0_and_reads_back(self):
        X, Z = UEAElement.generator(H3, 0), UEAElement.generator(H3, 2)
        zero = uea_mul(X, Z) - uea_mul(Z, X)
        assert zero.text() == "0"
        assert parse_uea(H3, "0") == zero

    def test_free_algebra_oracle(self):
        rng = random.Random(0xC0FFEE)
        algs = [LINE, H3]
        for k in range(50):
            A = algs[k % 2]
            u, v = rand_uea(rng, A, 3), rand_uea(rng, A, 3)
            assert oracle_mul(u, v) == uea_mul(u, v).terms


class TestPBWMemo:
    """X_i * X^exp is rewritten once per (algebra, i, exp) and kept in the
    algebra's derived store; the products stay those of the free oracle."""

    @staticmethod
    def products(A, rng, count=20):
        pairs = [(rand_uea(rng, A, 3), rand_uea(rng, A, 3)) for _ in range(count)]
        return [(u, v, uea_mul(u, v)) for u, v in pairs]

    def test_fresh_algebras_agree_with_the_oracle(self):
        for make in (tangent_line_algebroid, heisenberg_algebra):
            A = make()
            assert not A.derived
            for round_ in range(2):
                for u, v, prod in self.products(A, random.Random(round_)):
                    assert oracle_mul(u, v) == prod.terms
            assert A.derived and {k[0] for k in A.derived} == {"pbw"}

    def test_algebras_keep_their_own_memo(self):
        H = heisenberg_algebra()
        table = [list(row) for row in H.bracket_table]
        table[0][1] = (H.zero, H.zero, H.one.scale(2))
        table[1][0] = (H.zero, H.zero, H.one.scale(-2))
        H2 = LieRinehart(H.chart, H.rank, H.anchor, table, H.basis_names)
        for A, c in ((H, 1), (H2, 2), (H, 1)):
            X, Y = UEAElement.generator(A, 0), UEAElement.generator(A, 1)
            assert uea_mul(Y, X).terms == {(1, 1, 0): A.one,
                                           (0, 0, 1): CoeffFn.const(A.chart, -c)}
        assert H.derived is not H2.derived
        rng = random.Random(7)
        for _ in range(10):
            u, v = rand_uea(rng, H2, 3), rand_uea(rng, H2, 3)
            assert oracle_mul(u, v) == uea_mul(u, v).terms

    def test_each_monomial_product_is_rewritten_once(self, monkeypatch):
        rewrite = convbialg.uea._gen_times_monomial
        seen = Counter()

        def counted(A, i, exp):
            seen[id(A), i, exp] += 1
            return rewrite(A, i, exp)

        monkeypatch.setattr(convbialg.uea, "_gen_times_monomial", counted)
        algebras = (tangent_line_algebroid(), heisenberg_algebra())
        rounds = [[prod.terms for A in algebras
                   for _, _, prod in self.products(A, random.Random(3))] for _ in range(2)]
        assert rounds[0] == rounds[1]
        assert seen and set(seen.values()) == {1}
        assert len(seen) == sum(len(A.derived) for A in algebras)

    def test_shared_units_keep_the_scalar_check(self):
        A = heisenberg_algebra()
        with pytest.raises(TypeError):
            CoeffFn.const(A.chart, 0.0)
        with pytest.raises(TypeError):
            CoeffFn.const(A.chart, 1.0)
        assert UEAElement.one(A).terms == {(0, 0, 0): CoeffFn.const(A.chart, 1)}
        assert A.zero == CoeffFn.const(A.chart, 0) and A.zero.is_zero


def test_check_catches_pbw_rewriting_without_the_bracket(monkeypatch, capsys):
    # X_i X_first X^rest rewritten to X_first X_i X^rest alone, without
    # [X_i, X_first] X^rest: U(A) becomes the symmetric algebra, which only
    # the defining relations tell apart, on Heisenberg ([X, Y] = Z)
    rewrite = convbialg.uea._gen_times_monomial

    def planted(A, i, exp):
        first = next((j for j, k in enumerate(exp) if k), None)
        if first is None or i <= first:
            return rewrite(A, i, exp)
        rest = list(exp)
        rest[first] -= 1
        return convbialg.uea._left_mul_gen(first, convbialg.uea._gen_monomial(A, i, tuple(rest)))

    monkeypatch.setattr(convbialg.uea, "_gen_times_monomial", planted)
    assert main(["check", "--suite", "uea", "--output", "json"]) == 1
    (suite,) = json.loads(capsys.readouterr().out)["suites"]
    failed = {c["name"]: c["witness"] for c in suite["checks"] if not c["pass"]}
    assert list(failed) == ["defining relations [X_i, X_j] and [X_i, f]"]
    assert failed["defining relations [X_i, X_j] and [X_i, f]"].startswith("heisenberg: ")


def test_counit_disagreement_raises(monkeypatch):
    u = UEAElement.from_coeff(LINE, CoeffFn.const(LINE.chart, 2))
    monkeypatch.setattr(convbialg.uea, "anchor_rep",
                        lambda u, f: CoeffFn.const(LINE.chart, 3))
    with pytest.raises(VerificationFailed):
        counit(u)


class TestCoalgebra:
    def test_delta_square_binomial(self):
        # Delta(X^2) = X^2 (x) 1 + 2 X (x) X + 1 (x) X^2
        X = UEAElement.generator(H3, 0)
        d = coproduct(uea_mul(X, X))
        one = CoeffFn.const(H3.chart, 1)
        assert d.terms == {
            ((2, 0, 0), (0, 0, 0)): one,
            ((1, 0, 0), (1, 0, 0)): one.scale(2),
            ((0, 0, 0), (2, 0, 0)): one,
        }

    def test_generators_primitive(self):
        def primitive(u):
            one = UEAElement.one(u.parent)
            return coproduct(u) == TensorElement.of(one, u) + TensorElement.of(u, one)

        for A in (LINE, H3):
            for i in range(A.rank):
                assert primitive(UEAElement.generator(A, i))
        X = UEAElement.generator(H3, 0)
        assert not primitive(uea_mul(X, X))

    def test_counit_is_anchor_rep_at_one(self):
        rng = random.Random(3)
        for _ in range(10):
            u = rand_uea(rng, H3)
            assert counit(u) == anchor_rep(u, CoeffFn.const(H3.chart, 1))

    def test_counit_kills_generators(self):
        D = UEAElement.generator(LINE, 0)
        assert counit(D).is_zero
        f = CoeffFn(LINE.chart, Polynomial.parse("x0 + 2", 1))
        assert counit(UEAElement.from_coeff(LINE, f)) == f


def product_coproduct(u):
    """Delta(u) as f * prod_i (X_i x 1 + 1 x X_i)^a_i for each term f X^a,
    multiplied out by TensorElement.mul."""
    A = u.parent
    one = UEAElement.one(A)
    pairs = []
    for exp, f in u.terms.items():
        acc = TensorElement.of(one, one)
        for i, k in enumerate(exp):
            gen = UEAElement.generator(A, i)
            for _ in range(k):
                acc = acc.mul(TensorElement.of(one, gen) + TensorElement.of(gen, one))
        pairs.extend((key, f * g) for key, g in acc.terms.items())
    return TensorElement(A, pairs)


COALGEBRAS = {"line": LINE, "h3": H3, "line-rank2": LINE2}


@pytest.mark.parametrize("which", sorted(COALGEBRAS))
def test_coproduct_formula_is_the_product_of_primitives(which):
    """Same terms, and in the same order: conv_coproduct keeps it, and the
    demos print it."""
    A = COALGEBRAS[which]
    rng = random.Random(0xDE17A)
    for _ in range(15):
        u = rand_uea(rng, A, max_deg=4)
        d, want = coproduct(u), product_coproduct(u)
        assert d == want and list(d.terms) == list(want.terms)


def test_coproduct_multiplies_nothing(monkeypatch):
    rng = random.Random(4)
    us = [rand_uea(rng, A, max_deg=4) for A in COALGEBRAS.values() for _ in range(3)]
    want = [product_coproduct(u) for u in us]

    def refuse(*_):
        raise AssertionError("coproduct multiplied")

    monkeypatch.setattr(convbialg.uea, "uea_mul", refuse)
    monkeypatch.setattr(TensorElement, "mul", refuse)
    assert [coproduct(u) for u in us] == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["line", "h3"]))
def test_associativity_property(seed, which):
    A = LINE if which == "line" else H3
    rng = random.Random(seed)
    u, v, w = (rand_uea(rng, A) for _ in range(3))
    assert uea_mul(uea_mul(u, v), w) == uea_mul(u, uea_mul(v, w))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_delta_multiplicative_property(seed):
    rng = random.Random(seed)
    u, v = rand_uea(rng, H3), rand_uea(rng, H3)
    assert coproduct(uea_mul(u, v)) == coproduct(u).mul(coproduct(v))


def test_tensor_balanced_action():
    rng = random.Random(5)
    u = rand_uea(rng, H3)
    r = CoeffFn.const(H3.chart, 3)
    d = coproduct(u)
    rf = UEAElement.from_coeff(H3, r)

    def times_r(w):
        return uea_mul(w, rf)

    assert d.map_slots(left=times_r) == d.map_slots(right=times_r)


def _act_right_left_slot(d, f):
    """The right action of f on the left slot, as TensorElement had it
    before map_slots."""
    rf = UEAElement.from_coeff(d.parent, f)
    return TensorElement.zero(d.parent).plus(
        TensorElement.of(uea_mul(u, rf), v) for u, v in d.pure_tensors())


def _act_right_right_slot(d, f):
    """The right action of f on the right slot, as TensorElement had it
    before map_slots."""
    rf = UEAElement.from_coeff(d.parent, f)
    return TensorElement.zero(d.parent).plus(
        TensorElement.of(u, uea_mul(v, rf)) for u, v in d.pure_tensors())


@pytest.mark.parametrize("which", ["line", "h3"])
def test_map_slots_is_the_right_action_on_either_slot(which):
    A = LINE if which == "line" else H3
    rng = random.Random(7)
    for _ in range(10):
        d = coproduct(rand_uea(rng, A))
        f = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
        rf = UEAElement.from_coeff(A, f)

        def times_f(w):
            return uea_mul(w, rf)

        left, right = d.map_slots(left=times_f), d.map_slots(right=times_f)
        # the same terms in the same order
        assert list(left.terms.items()) == list(_act_right_left_slot(d, f).terms.items())
        assert list(right.terms.items()) == list(_act_right_right_slot(d, f).terms.items())
        assert left == right
        assert d.map_slots() == d


@pytest.mark.parametrize("exp", [(1.9, 0, 0), (1.0, 0, 0), (True, 0, 0), (0, -1, 0), (1, 0)])
def test_constructor_rejects_bad_exponents(exp):
    with pytest.raises(ValueError):
        UEAElement(H3, {exp: 1})


def assert_uea_canonical(u):
    """u is what the checked constructor makes of its own terms, in the
    same order: int exponent tuples of length rank, coefficients on the
    chart in canonical form."""
    A = u.parent
    again = UEAElement(A, u.terms)
    assert list(again.terms.items()) == list(u.terms.items())
    for e, f in u.terms.items():
        assert type(e) is tuple and len(e) == A.rank and all(type(k) is int for k in e)
        assert f.chart == A.chart and not f.is_zero
        assert list(Polynomial(f.poly.nvars, f.poly.terms).terms.items()) == list(f.poly.terms.items())
        # int iff integral, else a Fraction with denominator > 1
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for c in f.poly.terms.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["line", "h3"]), st.integers(-2, 2))
def test_trusted_results_are_canonical(seed, which, c):
    A = LINE if which == "line" else H3
    rng = random.Random(seed)
    u, v = rand_uea(rng, A), rand_uea(rng, A)
    f = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
    pure = [w for pair in coproduct(u).pure_tensors() for w in pair]
    for r in (uea_mul(u, v), u.plus((v, u)), u + v, u - v, -u, u.scale(c), u.scale(Fraction(1, 3)),
              UEAElement.generator(A, 0), UEAElement.from_coeff(A, f), *pure):
        assert_uea_canonical(r)
    assert (u - u).is_zero and u.scale(0).is_zero


MODELS = {"pair": pair_model(), "heisenberg": heisenberg_model()}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(MODELS)))
def test_ad_uea_results_are_canonical(seed, which):
    model = MODELS[which]
    u = rand_uea(random.Random(seed), model.algebroid)
    for E in model.registry.values():
        if not E.is_flat:  # U(Ad_E) of a flat kink needs its inverse map
            assert_uea_canonical(ad_uea(E, u))


def test_from_coeff_checks_the_chart():
    with pytest.raises(ChartMismatch):
        UEAElement.from_coeff(LINE, CoeffFn.const(H3.chart, 1))


def checked_random_polynomial(rng, nvars, max_deg=2):
    """lie_rinehart.random_polynomial, built by the checked constructor."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            if nvars:
                exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-3, 3)
    return Polynomial(nvars, terms)


def checked_random_uea(rng, A, max_deg=2):
    """suites._random_uea, built by the checked constructors."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * A.rank
        for _ in range(rng.randint(0, max_deg)):
            if A.rank:
                exp[rng.randrange(A.rank)] += 1
        terms[tuple(exp)] = CoeffFn(A.chart, checked_random_polynomial(rng, A.chart.dim, 2))
    return UEAElement(A, terms)


def typed_poly(p):
    return p.nvars, [(e, type(c), c) for e, c in p.terms.items()]


def typed_uea(u):
    return [(e, f.chart, typed_poly(f.poly), f.flat_neg, f.flat_pos) for e, f in u.terms.items()]


def test_random_draws_match_the_checked_constructors():
    """The suites' random draws, built by the trusted constructors, are
    what the checked ones build, term for term, in order and in scalar
    type, and leave the generator in the same state."""
    algebras = (LINE, H3, LINE2, rank_zero_algebroid(LINE.chart))
    for seed in range(200):
        trusted, checked = random.Random(seed), random.Random(seed)
        for nvars in range(4):
            for max_deg in range(1, 5):
                got = random_polynomial(trusted, nvars, max_deg)
                want = checked_random_polynomial(checked, nvars, max_deg)
                assert typed_poly(got) == typed_poly(want)
                assert trusted.getstate() == checked.getstate()
        for A in algebras:
            for max_deg in range(1, 5):
                got = _random_uea(trusted, A, max_deg)
                want = checked_random_uea(checked, A, max_deg)
                assert got.parent is want.parent
                assert typed_uea(got) == typed_uea(want)
                assert trusted.getstate() == checked.getstate()
