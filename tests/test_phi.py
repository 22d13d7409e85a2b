import random

import pytest

from convbialg import coeffs, groupoid
from convbialg.conv import ConvElement, conv_is_zero, conv_mul
from convbialg.coeffs import CoeffFn, Polynomial, Q
from convbialg.dist import dist_eval_at, dist_mul
from convbialg.errors import UnsupportedComposition
from convbialg.groupoid import bisection_inv
from convbialg.models import (
    FACTORIES,
    builtin_models,
    etale_model,
    heisenberg_model,
    model_from_json,
    pair_model,
)
from convbialg.phi import (
    dist_is_zero,
    kernel_test,
    phi,
    stratify,
)
from convbialg.suites import _single_terms, run_suite
from convbialg.uea import UEAElement

from conv_draws import random_conv_element


@pytest.fixture(scope="module")
def pair():
    return pair_model()


@pytest.fixture(scope="module")
def h3():
    return heisenberg_model()


@pytest.fixture(scope="module")
def etale():
    return etale_model()


class TestStratify:
    def test_kink_strata(self, pair):
        names = ["E00", "E01", "E10", "E11"]
        table = stratify(pair, [pair.lookup(n) for n in names]).table()
        by_stratum = {s: sorted(sorted(c) for c in classes) for s, classes in table}
        assert by_stratum["(-inf,0)"] == [["E00", "E01"], ["E10", "E11"]]
        assert by_stratum["{0}"] == [["E00"], ["E01"], ["E10"], ["E11"]]
        assert by_stratum["(0,+inf)"] == [["E00", "E10"], ["E01", "E11"]]

    def test_affine_crossing_becomes_breakpoint(self, pair):
        # shift (x+1) and dbl (2x) cross at x = 1
        table = stratify(pair, [pair.lookup("shift"), pair.lookup("dbl")]).table()
        strata = [s for s, _ in table]
        assert "{1}" in strata
        by_stratum = dict(table)
        # same arrow at x = 1, but different slopes: two singleton germ classes
        assert sorted(len(c) for c in by_stratum["{1}"]) == [1, 1]

    def test_group_strata(self, h3):
        table = stratify(h3, [h3.lookup("kx"), h3.lookup("ky")]).table()
        assert len(table) == 1
        _, classes = table[0]
        assert sorted(len(c) for c in classes) == [1, 1]


class TestSameArrow:
    def test_affine_maps_share_the_arrow_where_they_cross(self, pair):
        shift, dbl = pair.lookup("shift"), pair.lookup("dbl")
        assert pair.same_arrow(shift, dbl, Q(1))  # both map 1 to 2
        assert not pair.same_arrow(shift, dbl, Q(2))

    def test_flat_kinks_share_the_arrow_at_0(self, pair):
        assert pair.same_arrow(pair.lookup("E00"), pair.lookup("E01"), Q(0))

    def test_inverted_flat_kinks_are_refused(self, pair):
        # an inverted kink has no forward map to compare at 0
        E00inv, E01inv = (bisection_inv(pair.lookup(n)) for n in ("E00", "E01"))
        with pytest.raises(UnsupportedComposition):
            pair.same_arrow(E00inv, E01inv, Q(0))

    def test_a_germ_class_fixes_its_arrow_off_the_pair_model(self, h3, etale):
        assert not h3.same_arrow(h3.lookup("kx"), h3.lookup("ky"), None)
        # d and sh both map 1 to 2, through the distinct arrows (d, 1), (sh, 1)
        assert not etale.same_arrow(etale.lookup("d"), etale.lookup("sh"), Q(1))


class TestPhi:
    def test_degree0_rule(self, pair):
        # phi<f, E> = [[E, f o tau]]
        A = pair.algebroid
        f = CoeffFn(A.chart, Polynomial.parse("x0^2", 1))
        a = ConvElement.single(pair, pair.lookup("shift"), UEAElement.from_coeff(A, f))
        T = phi(a)
        (v,) = T.terms.values()
        assert v.degree0() == CoeffFn(A.chart, Polynomial.parse("x0^2 + 2*x0 + 1", 1))

    def test_homomorphism_spot(self, h3):
        H = h3.algebroid
        a = ConvElement.single(h3, h3.lookup("kx"), UEAElement.generator(H, 0))
        b = ConvElement.single(h3, h3.lookup("ky"), UEAElement.generator(H, 1))
        assert phi(conv_mul(a, b)) == dist_mul(phi(a), phi(b))

    @pytest.mark.parametrize("key", sorted(FACTORIES))
    def test_homomorphism_on_random_sums(self, key):
        # the phi-homomorphism suite checks single terms; this keeps the law
        # on sums of 1-2 terms, some over product bisections
        model = FACTORIES[key]()
        rng = random.Random(0xC0FFEE)
        for _ in range(5):
            a, b = random_conv_element(rng, model), random_conv_element(rng, model)
            assert phi(conv_mul(a, b)) == dist_mul(phi(a), phi(b))


class TestSingleTerms:
    def test_terms_name_aliases_and_do_not_depend_on_earlier_suites(self):
        fresh, used = builtin_models(), builtin_models()
        for name in ("prop43", "phi-homomorphism"):
            run_suite(name, models=used)
        for key, model in fresh.items():
            assert len(used[key].registry) > len(model.registry)  # products were registered
            names = {bid: alias for alias, bid in model.aliases.items()}
            bank = _single_terms(random.Random(0xC0FFEE), model)
            assert len(bank) == 10
            for a in bank:
                [(bid, u)] = a.terms.items()
                assert not model.registry[bid].is_flat
                assert a.text() == f"<{u.text()} | {names[bid]}>"
            again = _single_terms(random.Random(0xC0FFEE), used[key])
            assert [a.text() for a in again] == [a.text() for a in bank]


class TestKernel:
    def make_kernel_element(self, pair):
        A = pair.algebroid
        f = CoeffFn(A.chart, Polynomial.parse("x0 + 1", 1))
        a = ConvElement.zero(pair)
        for i in (0, 1):
            for j in (0, 1):
                sign = 1 if (i + j) % 2 == 0 else -1
                a = a + ConvElement.single(
                    pair, pair.lookup(f"E{i}{j}"),
                    UEAElement.from_coeff(A, f.scale(sign)))
        return a

    def test_kernel_element(self, pair):
        a = self.make_kernel_element(pair)
        assert not conv_is_zero(a)
        assert kernel_test(a)["in_kernel"]
        assert dist_is_zero(phi(a))

    def test_kernel_example_suite_is_exact(self, monkeypatch):
        # no float conversion and no float root solve: every verdict is exact
        calls = {"to_float": 0, "_solve_monotone": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in (coeffs, groupoid):
            monkeypatch.setattr(module, "to_float", counted("to_float", coeffs.to_float))
        monkeypatch.setattr(groupoid, "_solve_monotone",
                            counted("_solve_monotone", groupoid._solve_monotone))
        assert run_suite("kernel-example")["pass"]
        assert calls == {"to_float": 0, "_solve_monotone": 0}

    def test_perturbed_element_not_in_kernel(self, pair):
        a = self.make_kernel_element(pair)
        A = pair.algebroid
        a = a + ConvElement.single(
            pair, pair.lookup("E00"),
            UEAElement.from_coeff(A, CoeffFn.const(A.chart, 1)))
        rep = kernel_test(a)
        assert not rep["in_kernel"]
        assert rep["witness"]
        assert not dist_is_zero(phi(a))

    def test_a_point_stratum_decides(self):
        # the shift x + 1 on (-inf, 1) (A), on R (B) and on (1, inf) (C):
        # every interval class sum of a = -A + B - C is zero, but at the
        # point 1 only B is there, so Phi(a)(1)(2) = 1
        shift = {"kind": "affine", "a": "1", "b": "1"}
        model = model_from_json({"model": "pair", "bisections": [
            {"id": "A", "tau": shift, "domain": [[None, "1"]]},
            {"id": "B", "tau": shift},
            {"id": "C", "tau": shift, "domain": [["1", None]]}]})
        one = UEAElement.one(model.algebroid)
        a = ConvElement.zero(model).plus(
            ConvElement.single(model, model.lookup(name), one.scale(sign))
            for name, sign in (("A", -1), ("B", 1), ("C", -1)))
        assert not conv_is_zero(a)
        rep = kernel_test(a)
        assert not rep["in_kernel"]
        assert rep["witness"]["stratum"] == "{1}"
        assert not dist_is_zero(phi(a))
        assert dist_eval_at(phi(a), Polynomial.parse("1", 2), Q(2)) == 1

    def test_group_kernel_trivial(self, h3):
        # for the group model Phi is injective: only zero passes
        H = h3.algebroid
        a = ConvElement.single(h3, h3.lookup("kx"), UEAElement.generator(H, 0))
        assert not kernel_test(a)["in_kernel"]
        z = a - a
        assert kernel_test(z)["in_kernel"]
