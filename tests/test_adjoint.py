import importlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from convbialg import adjoint
from convbialg.adjoint import ad_matrix, ad_uea
from convbialg.coeffs import CoeffFn, Polynomial
from convbialg.errors import UnsupportedComposition, VerificationFailed
from convbialg.groupoid import Bisection, PairModel, bisection_inv, bisection_mul
from convbialg.lie_rinehart import random_polynomial
from convbialg.models import etale_model, heisenberg_model, pair_model
from convbialg.uea import UEAElement, uea_mul


@pytest.fixture(scope="module")
def pair():
    return pair_model()


@pytest.fixture(scope="module")
def h3():
    return heisenberg_model()


class TestPairAdjoint:
    def test_pushforward_of_derivative(self, pair):
        # along tau(x) = 2x the generator scales by tau'
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        out = ad_uea(pair.lookup("dbl"), D)
        assert out == D.scale(2)

    def test_degree0_is_composition(self, pair):
        A = pair.algebroid
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("x0^2", 1)))
        out = ad_uea(pair.lookup("dbl"), f)
        # f o tau^{-1} = (x/2)^2
        assert out.degree0() == CoeffFn(A.chart, Polynomial.parse("1/4*x0^2", 1))

    def test_shift_commutes_with_derivative(self, pair):
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        assert ad_uea(pair.lookup("shift"), D) == D

    def test_flat_inverse_transport_of_degree0(self, pair):
        # Ad_{E^{-1}} on degree 0 is f o tau, representable for flat taus
        A = pair.algebroid
        E = pair.lookup("E01")
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("2*x0", 1)))
        out = ad_uea(bisection_inv(E), f)
        assert out.degree0() == E.tau_coeff().scale(2)

    def test_flat_forward_degree0_unsupported(self, pair):
        A = pair.algebroid
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("x0^2", 1)))
        with pytest.raises(UnsupportedComposition):
            ad_uea(pair.lookup("E01"), f)

    def test_flat_forward_fails_before_the_crosscheck(self):
        # tau^{-1} of a flat kink is not representable: ad_uea must fail
        # before ad_matrix runs, so nothing is derived
        model = pair_model()
        D = UEAElement.generator(model.algebroid, 0)
        for name in ("E00", "E01", "E10", "E11"):
            with pytest.raises(UnsupportedComposition, match="inverse map not representable"):
                ad_uea(model.lookup(name), D)
            assert "ad_gens" not in model.lookup(name).derived
        assert "conjugation_jacobian" not in model.derived


class TestPairCrosscheck:
    def test_planted_wrong_matrix_raises_in_each_fresh_model(self, monkeypatch):
        # the derived matrix is compared with the closed form on every call,
        # so a wrong closed form fails every call in every model
        def wrong(self, E):
            return [[E.tau_diffeo().fwd.derive().scale(3)]]

        monkeypatch.setattr(PairModel, "closed_ad_matrix", wrong)
        for _ in range(2):
            model = pair_model()
            for _ in range(2):
                with pytest.raises(VerificationFailed, match=r"\(0,0\) for pair\[2\*x0\]"):
                    ad_matrix(model.lookup("dbl"))

    def test_jacobian_derived_once_per_model(self, monkeypatch):
        calls = []
        derive = adjoint._conjugation_jacobian

        def counted(model):
            calls.append(model)
            return derive(model)

        monkeypatch.setattr(adjoint, "_conjugation_jacobian", counted)
        model = pair_model()
        affine = [E for E in model.registry.values() if not E.is_flat]
        for E in affine + [bisection_inv(E) for E in affine] + [model.lookup("E01")]:
            for _ in range(2):
                ad_matrix(E)
        assert calls == [model]
        fresh = pair_model()
        ad_matrix(fresh.lookup("dbl"))
        assert calls == [model, fresh]

    @pytest.mark.parametrize("name", ["E00", "E01", "E10", "E11"])
    def test_flat_kink_matrix_is_tau_prime(self, pair, name, monkeypatch):
        E = pair.lookup(name)
        calls = _counting_at(monkeypatch)
        (row,) = ad_matrix(E)
        assert row == [E.tau_coeff().derive()] and not row[0].is_poly
        # a flat argument takes Polynomial.at in the CoeffFn ring
        assert calls == pair.derived["conjugation_jacobian"][0]
        with pytest.raises(UnsupportedComposition):
            ad_matrix(bisection_inv(E))


class TestGroupAdjoint:
    def test_stored_matrix_example(self, h3):
        # Ad_k for k = (a, b, c) sends X to X - b Z and Y to Y + a Z
        H = h3.algebroid
        X, Y = UEAElement.generator(H, 0), UEAElement.generator(H, 1)
        k = h3.lookup("k123")  # (1, 2, 3)
        assert ad_uea(k, X) == X + UEAElement.generator(H, 2).scale(-2)
        assert ad_uea(k, Y) == Y + UEAElement.generator(H, 2)

    def test_matrix_vs_derived(self, h3):
        # ad_matrix internally cross-checks the stored table against the
        # Jacobian of k h k^-1; a wrong stored matrix must raise
        m = ad_matrix(h3.lookup("k123"))
        assert [[c.poly.constant_value() for c in row] for row in m] == [
            [1, 0, 0],
            [0, 1, 0],
            [-2, 1, 1],
        ]
        wrong = heisenberg_model()
        right = wrong.stored_ad_matrix
        wrong.stored_ad_matrix = lambda k: [[2 * c for c in row] for row in right(k)]
        with pytest.raises(VerificationFailed):
            ad_matrix(wrong.lookup("k123"))

    @pytest.mark.parametrize("derive_first", [False, True])
    def test_wrong_stored_matrix_raises_on_every_call(self, derive_first):
        # the Jacobian is derived once per model, but the comparison with
        # the stored closed form runs on every call
        model = heisenberg_model()
        if derive_first:
            ad_matrix(model.lookup("k123"))
            assert "conjugation_jacobian" in model.derived
        right = model.stored_ad_matrix
        model.stored_ad_matrix = lambda k: [[2 * c for c in row] for row in right(k)]
        for E in list(model.registry.values()):
            for _ in range(2):
                with pytest.raises(VerificationFailed):
                    ad_matrix(E)
        assert "conjugation_jacobian" in model.derived

    def test_matrix_from_derived_jacobian_equals_fresh_one(self, h3):
        rng = random.Random(12)
        elements = [tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
                    for _ in range(10)]
        for k in elements:
            fresh = heisenberg_model()
            assert ad_matrix(Bisection(h3, element=k)) == ad_matrix(Bisection(fresh, element=k))

    def test_multiplicative(self, h3):
        H = h3.algebroid
        rng = random.Random(11)
        k = h3.lookup("k123")
        X, Y = UEAElement.generator(H, 0), UEAElement.generator(H, 1)
        u = uea_mul(X, Y)
        assert ad_uea(k, u) == uea_mul(ad_uea(k, X), ad_uea(k, Y))

    def test_functorial(self, h3):
        H = h3.algebroid
        kx, ky = h3.lookup("kx"), h3.lookup("ky")
        prod = bisection_mul(kx, ky)
        for i in range(3):
            u = UEAElement.generator(H, i)
            assert ad_uea(prod, u) == ad_uea(kx, ad_uea(ky, u))


class TestEtaleAdjoint:
    def test_degree0_transport(self):
        model = etale_model()
        A = model.algebroid
        d = model.lookup("d")  # gamma(x) = 2x
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("x0", 1)))
        out = ad_uea(d, f)
        assert out.degree0() == CoeffFn(A.chart, Polynomial.parse("1/2*x0", 1))



def _layout(f):
    """The terms of f's polynomial and flat parts, in order, with the type
    of each scalar."""
    return [[(k, c, type(c)) for k, c in part.items()]
            for part in (f.poly.terms, f.flat_neg, f.flat_pos)]


def _counting_at(monkeypatch):
    """Wrap Polynomial.at; the returned list gets each polynomial it runs on."""
    calls = []
    real = Polynomial.at
    monkeypatch.setattr(Polynomial, "at", lambda p, *a: calls.append(p) or real(p, *a))
    return calls


def _rational_elements(model):
    rng = random.Random(17)
    return [Bisection(model, element=tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                                           for _ in range(3))) for _ in range(6)]


class TestOneEvaluationPath:
    @pytest.mark.parametrize("make, extra", [
        (pair_model, lambda model: []), (heisenberg_model, _rational_elements)])
    def test_polynomial_arguments_take_at_and_no_substitute(self, make, extra, monkeypatch):
        # the registered non-flat bisections, their inverses and products
        model = make()
        base = [E for E in model.registry.values() if not E.is_flat] + extra(model)
        bisections = (base + [bisection_inv(E) for E in base]
                      + [bisection_mul(E2, E1) for E2 in base[:4] for E1 in base[:4]])
        ad_matrix(base[0])  # derives the Jacobian, by substitution
        J = model.derived["conjugation_jacobian"]
        calls = _counting_at(monkeypatch)
        substituted = []
        real = Polynomial.substitute
        monkeypatch.setattr(Polynomial, "substitute",
                            lambda p, *a: substituted.append(p) or real(p, *a))
        matrices = [ad_matrix(E) for E in bisections]
        assert not substituted
        assert calls == [p for _ in bisections for row in J for p in row]
        monkeypatch.undo()
        A = model.algebroid
        for E, M in zip(bisections, matrices):
            assert M == [[A._fn(c) for c in row] for row in model.closed_ad_matrix(E)]
            assert all(f.is_poly for row in M for f in row)


def _ad_uea_from_one(E, u):
    """ad_uea with each monomial's product started from UEAElement.one."""
    A = u.parent
    if u.is_zero:
        return u
    moved = [(exp, E.to_target(f)) for exp, f in u.terms.items()]
    if u.degree() <= 0:
        return UEAElement._raw(A, moved)
    M = ad_matrix(E)
    units = [tuple(int(i == k) for k in range(A.rank)) for i in range(A.rank)]
    gens = [UEAElement._raw(A, [(units[i], E.to_target(M[i][j])) for i in range(A.rank)])
            for j in range(A.rank)]
    pairs = []
    for exp, tf in moved:
        acc = UEAElement.one(A)
        for j, k in enumerate(exp):
            for _ in range(k):
                acc = uea_mul(acc, gens[j])
        pairs.extend((e, tf * g) for e, g in acc.terms.items())
    return UEAElement._raw(A, pairs)


def _random_uea(rng, A, degree_one=False):
    """A random element of U(A) with 1 to 3 terms of degree <= 3; with
    degree_one, its first term has degree >= 1."""
    terms = {}
    for n in range(rng.randint(1, 3)):
        exp = [0] * A.rank
        for _ in range(rng.randint(int(degree_one and n == 0), 3)):
            if A.rank:
                exp[rng.randrange(A.rank)] += 1
        terms[tuple(exp)] = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
    return UEAElement(A, terms)


@pytest.mark.parametrize("make", [pair_model, heisenberg_model, etale_model])
def test_ad_uea_equals_the_product_started_from_one(make):
    model = make()
    A = model.algebroid
    rng = random.Random(18)
    bisections = [E for E in model.registry.values() if not E.is_flat]
    for _ in range(30):
        u = _random_uea(rng, A)
        for E in bisections:
            got, ref = ad_uea(E, u), _ad_uea_from_one(E, u)
            assert got == ref
            assert [(e, _layout(f)) for e, f in got.terms.items()] == \
                [(e, _layout(f)) for e, f in ref.terms.items()]


class TestKeptGeneratorImages:
    """ad_uea keeps the generator images of Ad_E on E ("ad_gens"), built from
    one ad_matrix(E) that passed its comparison with the closed form."""

    @staticmethod
    def _bisections(model):
        """The registered non-flat bisections and their inverses."""
        base = [E for E in model.registry.values() if not E.is_flat]
        return base + [bisection_inv(E) for E in base]

    @pytest.mark.parametrize("make", [pair_model, heisenberg_model])
    def test_ad_matrix_runs_once_per_bisection(self, make, monkeypatch):
        adjoint_module = importlib.import_module("convbialg.adjoint")
        calls = Counter()
        real = adjoint_module.ad_matrix
        monkeypatch.setattr(adjoint_module, "ad_matrix", lambda E: calls.update([E]) or real(E))
        model = make()
        rng = random.Random(25)
        us = [_random_uea(rng, model.algebroid, degree_one=True) for _ in range(4)]
        bisections = self._bisections(model)
        got = [[ad_uea(E, u) for u in us] for E in bisections]
        again = [[ad_uea(E, u) for u in us] for E in bisections]
        assert got == again
        assert set(calls) == set(bisections) and set(calls.values()) == {1}
        monkeypatch.undo()
        # on a newly built model each call is the first on its bisection
        for k, u in enumerate(us):
            fresh = make()
            v = UEAElement(fresh.algebroid, dict(u.terms))
            for E, row in zip(self._bisections(fresh), got):
                ref = ad_uea(E, v)
                assert row[k] == ref
                assert [(e, _layout(f)) for e, f in row[k].terms.items()] == \
                    [(e, _layout(f)) for e, f in ref.terms.items()]

    def test_a_wrong_closed_form_fails_every_call_and_keeps_nothing(self, monkeypatch):
        def wrong(self, E):
            return [[E.tau_diffeo().fwd.derive().scale(3)]]

        monkeypatch.setattr(PairModel, "closed_ad_matrix", wrong)
        model = pair_model()
        dbl = model.lookup("dbl")
        D = UEAElement.generator(model.algebroid, 0)
        for _ in range(2):
            with pytest.raises(VerificationFailed, match=r"\(0,0\) for pair\[2\*x0\]"):
                ad_uea(dbl, D)
        assert "ad_gens" not in dbl.derived
