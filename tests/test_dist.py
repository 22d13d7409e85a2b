import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import convbialg.dist as dist_module
from convbialg.coeffs import CoeffFn, Polynomial, Q
from convbialg.errors import UnsupportedComposition, UnsupportedRegistry
from convbialg.dist import (
    ArrowFn,
    Jet,
    TransvDist,
    _defcheck_term_pair,
    commuting_square_gap,
    commuting_square_gap_numeric,
    dist_eval_at,
    dist_mul,
    dist_mul_defcheck,
    omega_apply,
    term_products,
)
from convbialg.groupoid import bisection_inv
from convbialg.lie_rinehart import frame_field, random_polynomial
from convbialg.models import (etale_model, heisenberg_model, model_from_json, model_to_json,
                              pair_model)
from convbialg.uea import UEAElement, uea_mul

from dist_oracle import dist_eval, function_bank


@pytest.fixture(scope="module")
def pair():
    return pair_model()


@pytest.fixture(scope="module")
def h3():
    return heisenberg_model()


@pytest.fixture(scope="module")
def etale():
    return etale_model()


def _as_polynomial(af):
    """sum (c o s) * P over the terms of an ArrowFn on the arrow chart whose
    coefficients are polynomials: one polynomial on the arrow chart."""
    model = af.model
    total = Polynomial(model.arrow_chart.dim, {})
    for c, P in af.terms:
        total = total + model.along_source(c.poly) * P
    return total


class TestOmega:
    def test_pair_derivative_along_source(self, pair):
        # [[graph(x+1), D]](F)(y) = (dF/dx)(y, y-1)
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        T = TransvDist.single(pair, pair.lookup("shift"), D)
        F2 = Polynomial.parse("x0^2*x1", 2)
        assert dist_eval(T, F2) == CoeffFn(A.chart, Polynomial.parse("x0^2", 1))
        assert dist_eval_at(T, F2, Q(3)) == 9

    def test_heisenberg_y_on_ab(self, h3):
        # the left-invariant Y applied to F(a,b,c) = a b gives a at the unit
        Y = UEAElement.generator(h3.algebroid, 1)
        out = _as_polynomial(omega_apply(h3, Y, Polynomial.parse("x0*x1", 3)))
        assert out == Polynomial.parse("x0", 3)

    def test_left_invariant_extension(self, h3):
        # the extension of Y is the stored frame column (0, 1, a)
        V = frame_field(h3, 1)
        assert V == [Polynomial(3, {}), Polynomial.const(3, 1), Polynomial.var(3, 0)]

    def test_omega_is_homomorphism(self, h3):
        rng = random.Random(2)
        H = h3.algebroid
        for _ in range(10):
            exps = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(2)]
            u = UEAElement(H, {exps[0]: CoeffFn.const(H.chart, 1)})
            v = UEAElement(H, {exps[1]: CoeffFn.const(H.chart, 1)})
            F3 = random_polynomial(rng, 3, 3)
            lhs = _as_polynomial(omega_apply(h3, uea_mul(u, v), F3))
            rhs = _as_polynomial(omega_apply(h3, u, _as_polynomial(omega_apply(h3, v, F3))))
            assert lhs == rhs


def _apply_frame_reference(af, i):
    """ArrowFn.apply_frame without model.derived: every frame field and
    source derivative embedded again for every term."""
    model = af.model
    new = []
    for c, P in af.terms:
        for d in range(model.arrow_chart.dim):
            pd = model.frame[i][d].embed(af.nvars, af.h_offset)
            if pd.is_zero:
                continue
            dP = P.derive(af.h_offset + d)
            if not dP.is_zero:
                new.append((c, pd * dP))
            for m in range(model.base.dim):
                dsm = model.s_map[m].derive(d).embed(af.nvars, af.h_offset)
                if dsm.is_zero:
                    continue
                cm = c.derive(m)
                if not cm.is_zero:
                    new.append((cm, pd * dsm * P))
    return new


class TestFrameFieldCache:
    @staticmethod
    def _listed(terms):
        # the same terms in the same order, each polynomial's terms in order too
        return [(c, list(c.poly.terms.items()), P, list(P.terms.items())) for c, P in terms]

    @pytest.mark.parametrize("make", [pair_model, heisenberg_model])
    def test_same_terms_in_the_same_order(self, make):
        model = make()
        rng = random.Random(15)
        n = model.arrow_chart.dim
        base = model.base
        coeffs = [CoeffFn.const(base, 1)]
        if base.dim:
            # a base coefficient that is not constant runs the c.derive(m) branch
            coeffs += [CoeffFn(base, Polynomial.parse("1 + x0^2", 1)),
                       CoeffFn.phi(base) + CoeffFn(base, Polynomial.parse("3*x0", 1))]
        for nvars, h_offset in ((n, 0), (2 * n, n)):
            # a cube of the h-block sum, so that no frame field kills a term
            h_sum = Polynomial(nvars, {})
            for k in range(n):
                h_sum = h_sum + Polynomial.var(nvars, h_offset + k)
            cube = h_sum * h_sum * h_sum
            af = ArrowFn(model, nvars, h_offset,
                         [(c, random_polynomial(rng, nvars, 3) + cube) for c in coeffs])
            for i in range(model.algebroid.rank):
                expected = self._listed(_apply_frame_reference(af, i))
                assert expected
                assert self._listed(af.apply_frame(i).terms) == expected
                # applied twice, so a cached field meets the terms of a result
                twice = af.apply_frame(i)
                assert (self._listed(twice.apply_frame(i).terms)
                        == self._listed(_apply_frame_reference(twice, i)))
        # the fields are kept in the structure store, which every model of
        # the kind shares, not in the model's own store
        keys = {k for k in model.structure_store.derived if k[0] == "frame_field"}
        assert keys == {("frame_field", i, nvars, h_offset)
                        for i in range(model.algebroid.rank)
                        for nvars, h_offset in ((n, 0), (2 * n, n))}
        assert not [k for k in model.derived if k[0] == "frame_field"]

    def test_derived_once_per_key(self, monkeypatch):
        model = pair_model()
        af = ArrowFn.lift(model, Polynomial.parse("x0^2*x1 + x1", 2))
        af.apply_frame(0)
        derived = dict(model.structure_store.derived)
        assert ("frame_field", 0, 2, 0) in derived
        af.apply_frame(0).apply_frame(0)
        assert model.structure_store.derived == derived
        assert (model.structure_store.derived[("frame_field", 0, 2, 0)]
                is derived[("frame_field", 0, 2, 0)])


class TestEval:
    def test_eval_at_exact(self, pair):
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        T = TransvDist.single(pair, pair.lookup("shift"), D)
        F2 = Polynomial.parse("x0*x1", 2)
        # dF/dx at (y, y-1) is y
        assert dist_eval_at(T, F2, F(3)) == F(3)

    def test_eval_etale_pieces(self, etale):
        A = etale.algebroid
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("x0", 1)))
        T = TransvDist.single(etale, etale.lookup("d"), f)
        table = {etale.lookup("d").gamma: CoeffFn(A.chart, Polynomial.parse("x0^2", 1))}
        # at target x = 4 the source point is gamma^{-1}(4) = 2: f(2) * F(2)
        assert dist_eval_at(T, table, F(4)) == F(8)

    def test_group_eval(self, h3):
        H = h3.algebroid
        Y = UEAElement.generator(H, 1)
        T = TransvDist.single(h3, h3.lookup("k123"), Y)
        F3 = Polynomial.parse("x1", 3)
        v = dist_eval_at(T, F3, None)
        assert v == 1

    @pytest.mark.parametrize("name", ["k123", "kx"])
    def test_group_symbolic_eval_is_the_constant_value(self, h3, name):
        # over a point base T(F) is the constant D(F)(beta_E) = D(F)(k)
        H = h3.algebroid
        X, Y, Z = (UEAElement.generator(H, i) for i in range(3))
        for u in (UEAElement.one(H), X, uea_mul(Y, Z)):
            T = TransvDist.single(h3, h3.lookup(name), u)
            for F3 in function_bank(h3):
                assert dist_eval(T, F3) == CoeffFn.const(H.chart, dist_eval_at(T, F3, None))

    @pytest.mark.parametrize("name", ["shift", "dbl", "half"])
    def test_pair_symbolic_eval_matches_pointwise(self, pair, name):
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("1 + -1/2*x0^2", 1)))
        E = pair.lookup(name)
        xs = [F(-3, 2), F(0), F(1, 3), F(5)]
        for u in (UEAElement.one(A), D, uea_mul(f, uea_mul(D, D)) + f):
            T = TransvDist.single(pair, E, u)
            for F2 in function_bank(pair):
                sym = dist_eval(T, F2)
                assert [sym.eval((x,)) for x in xs] == [dist_eval_at(T, F2, x) for x in xs]


    def test_symbolic_eval_rejects_a_restricted_target(self):
        # t(r) = (1, 2): T(F) vanishes at 5, so no one function on the line
        # is T(F); dist_eval must refuse instead of ignoring the domain
        model = model_from_json({"model": "pair", "bisections": [
            {"id": "r", "tau": {"kind": "affine", "a": "1", "b": "1"}, "domain": [["0", "1"]]}]})
        E = model.lookup("r")
        T = TransvDist.single(model, E, UEAElement.one(model.algebroid))
        F2 = Polynomial.parse("x0 + x1", 2)
        assert dist_eval_at(T, F2, Q(5)) == 0
        assert dist_eval_at(T, F2, Q(3, 2)) == 2
        with pytest.raises(UnsupportedRegistry, match=re.escape(E.bid)):
            dist_eval(T, F2)

    def test_symbolic_eval_refuses_the_etale_model(self, etale):
        # beta_E of an etale bisection is (gamma, gamma^-1(y)): not polynomial
        T = TransvDist.single(etale, etale.lookup("d"), UEAElement.one(etale.algebroid))
        with pytest.raises(UnsupportedComposition, match="beta_E is not polynomial"):
            dist_eval(T, etale.parse_test_function("x0"))


class TestProduct:
    def test_pair_product_shape(self, pair):
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        T2 = TransvDist.single(pair, pair.lookup("shift"), D)
        T1 = TransvDist.single(pair, pair.lookup("dbl"), D)
        prod = dist_mul(T2, T1)
        assert len(prod.terms) == 1
        (bid,) = prod.terms
        assert pair.registry[bid].tau.affine_parts() == (Q(2), Q(1))

    def test_defcheck_respects_the_right_factor_domain(self):
        # t(r) = (1, 2): [[M, 1]] * [[r, 1]] vanishes at 5, and the
        # defining formula must not evaluate r outside its domain there
        model = model_from_json({"model": "pair", "bisections": [
            {"id": "r", "tau": {"kind": "affine", "a": "1", "b": "1"}, "domain": [["0", "1"]]}]})
        one = UEAElement.one(model.algebroid)
        T2 = TransvDist.single(model, model.lookup("M"), one)
        T1 = TransvDist.single(model, model.lookup("r"), one)
        F2 = Polynomial.parse("x0 + x1", 2)
        for x, value in ((Q(5), 0), (Q(3, 2), 2)):
            assert dist_eval_at(dist_mul(T2, T1), F2, x) == value
            assert dist_mul_defcheck(T2, T1, F2, x) == value

    def test_defcheck_agreement_small(self, pair, h3, etale):
        rng = random.Random(0xC0FFEE)
        for model in (pair, h3, etale):
            A = model.algebroid
            # the defining formula needs a polynomial beta
            pool = [E for E in model.registry.values() if not E.is_flat]
            for _ in range(10):
                E2, E1 = rng.choice(pool), rng.choice(pool)
                if A.rank:
                    u2 = UEAElement.generator(A, rng.randrange(A.rank))
                else:
                    u2 = UEAElement.from_coeff(
                        A, CoeffFn(A.chart, random_polynomial(rng, 1, 2)))
                u1 = UEAElement.from_coeff(
                    A, CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2)))
                T2 = TransvDist.single(model, E2, u2)
                T1 = TransvDist.single(model, E1, u1)
                Ftest = model.random_test_function(rng, 2)
                x = Q(rng.randint(-5, 5), rng.randint(1, 4))
                assert dist_eval_at(dist_mul(T2, T1), Ftest, x) == dist_mul_defcheck(
                    T2, T1, Ftest, x)


def _counting(monkeypatch, name, calls):
    """Replace dist.<name> by a wrapper that appends its arguments to calls."""
    real = getattr(dist_module, name)
    monkeypatch.setattr(dist_module, name, lambda *args: calls.append(args) or real(*args))


def _operators(model):
    """X and an operator of degrees 0 and 1 with a coefficient that moves
    along a bisection where the base is a line."""
    A = model.algebroid
    X, Y = UEAElement.generator(A, 0), UEAElement.generator(A, A.rank - 1)
    c = (CoeffFn(A.chart, Polynomial.parse("2 + x0^2", 1)) if A.chart.dim
         else CoeffFn.const(A.chart, 2))
    f = UEAElement.from_coeff(A, c)
    return X, uea_mul(Y, f) + f


def _term_products_reference(model, left, right):
    """term_products' loop with nothing kept: E^-1, Adbar_{E^-1}(u') and
    Adbar u made again for every pair."""
    out = []
    for bid2, u2 in left:
        for bid1, u1 in right:
            E2, E1 = model.registry[bid2], model.registry[bid1]
            w = uea_mul(dist_module.ad_uea(bisection_inv(E1), u2), u1)
            out.append((model.registered_product(E2, E1).bid, w))
    return out


def _listed(products):
    """(bid, terms in order) for each product: equal values with their
    terms in another order do not compare equal."""
    return [(bid, list(w.terms.items())) for bid, w in products]


class TestTermProducts:
    """term_products derives E^-1 once per bid, Adbar_{E^-1}(u') once per
    (bid, u') and Adbar u once per (right term, u') within one sweep;
    dist_mul goes through it."""

    @pytest.mark.parametrize("make, names", [(pair_model, ("shift", "dbl", "half")),
                                             (heisenberg_model, ("kx", "ky", "k123"))])
    def test_equals_the_sum_of_single_term_products(self, make, names):
        model = make()
        X, v = _operators(model)
        a, b, c = (model.lookup(name) for name in names)
        # two left terms share u' = X
        T2 = TransvDist(model, {a.bid: X, b.bid: X, c.bid: v})
        T1 = TransvDist(model, {a.bid: v, c.bid: X})
        singles = [dist_mul(TransvDist.single(model, model.registry[bid2], u2),
                            TransvDist.single(model, model.registry[bid1], u1))
                   for bid2, u2 in T2.terms.items() for bid1, u1 in T1.terms.items()]
        assert dist_mul(T2, T1) == TransvDist(model).plus(singles)
        # two right terms share a bid (only a list of terms can say so)
        left = [(a.bid, X), (b.bid, X)]
        right = [(c.bid, X), (c.bid, v), (a.bid, v)]
        got = list(term_products(model, left, right))
        assert len(got) == len(left) * len(right)
        for (bid, w), ((bid2, u2), (bid1, u1)) in zip(
                got, [(lt, rt) for lt in left for rt in right]):
            assert TransvDist(model, [(bid, w)]) == dist_mul(
                TransvDist.single(model, model.registry[bid2], u2),
                TransvDist.single(model, model.registry[bid1], u1))

    def test_one_inverse_per_bid_and_one_adjoint_action_per_bid_and_operator(
            self, monkeypatch):
        h3 = heisenberg_model()
        X, v = _operators(h3)
        kx, ky, k123 = (h3.lookup(name) for name in ("kx", "ky", "k123"))
        # u' = X on two bisections, and an equal value built anew on a third
        X_again = UEAElement.generator(h3.algebroid, 0)
        T2 = TransvDist(h3, {kx.bid: X, ky.bid: v, k123.bid: X_again})
        T1 = TransvDist(h3, {kx.bid: v, k123.bid: X})
        inverses, actions = [], []
        real = type(h3).bisection_inv
        monkeypatch.setattr(type(h3), "bisection_inv",
                            lambda model, E: inverses.append(E) or real(model, E))
        _counting(monkeypatch, "ad_uea", actions)
        for calls in (1, 2):
            dist_mul(T2, T1)
            # an inverse is kept on its bisection, the Adbar memo for one call
            assert sorted(E.bid for E in inverses) == sorted([kx.bid, k123.bid])
            assert len(actions) == 4 * calls
        assert len({(E.bid, u) for E, u in actions[:4]}) == 4
        assert all(E is bisection_inv(E1)
                   for (E, _), E1 in zip(actions, (kx, k123) * 4))

    @pytest.mark.parametrize("make, names", [(pair_model, ("shift", "dbl", "half")),
                                             (heisenberg_model, ("kx", "ky", "k123"))])
    def test_one_product_per_right_term_and_operator(self, make, names, monkeypatch):
        model = make()
        X, v = _operators(model)
        a, b, c = (model.lookup(name) for name in names)
        # u' = X on three left bisections, once as an equal value built anew
        X_again = UEAElement.generator(model.algebroid, 0)
        left = [(a.bid, X), (b.bid, v), (c.bid, X_again), (b.bid, X)]
        # two right terms share a bid, and two share an operator
        right = [(c.bid, X), (c.bid, v), (a.bid, v)]
        products = []
        _counting(monkeypatch, "uea_mul", products)
        got = list(term_products(model, left, right))
        assert len(products) == len(right) * len({u2 for _, u2 in left})
        assert _listed(got) == _listed(_term_products_reference(model, left, right))

    @pytest.mark.parametrize("make", [pair_model, heisenberg_model, etale_model])
    def test_a_bank_that_repeats_its_operators_on_every_bisection(self, make, monkeypatch):
        # prop43's bank: the same operators on each bisection (X at positive
        # rank, three fixed coefficients at rank 0), swept against itself
        model = make()
        A = model.algebroid
        if A.rank:
            X, v = _operators(model)
            ops = [X, v, uea_mul(v, X)]
        else:
            ops = [UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse(text, 1)))
                   for text in ("2", "x0", "x0^2 - 1")]
        bisections = [E for E in model.registry.values() if not E.is_flat][:3]
        bank = [(E.bid, u) for E in bisections for u in ops]
        products = []
        _counting(monkeypatch, "uea_mul", products)
        got = list(term_products(model, bank, bank))
        assert len(got) == len(bank) ** 2
        assert len(products) == len(bank) * len(ops)
        assert _listed(got) == _listed(_term_products_reference(model, bank, bank))

    def test_an_unsupported_product_still_raises(self, pair):
        # Adbar needs the Ad matrix of E01^-1, an inverted flat kink
        D = UEAElement.generator(pair.algebroid, 0)
        T2 = TransvDist.single(pair, pair.lookup("shift"), D)
        T1 = TransvDist.single(pair, pair.lookup("E01"), D)
        for _ in range(2):
            with pytest.raises(UnsupportedComposition, match="inverted flat"):
                dist_mul(T2, T1)


def _defcheck_reference(model, E2, u2, E1, u1, F, x0):
    """_defcheck_term_pair at positive rank without model.derived: stage 1
    built again for every pair.  Returns (stage 1, value)."""
    if not E2.contains_target(x0):
        return None, Q(0)
    g = E2.beta(x0)
    if not E1.contains_target(model.s_of(g)):
        return None, Q(0)
    n = model.arrow_chart.dim
    H = F.substitute(model.mult_map)
    af = ArrowFn(model, 2 * n, n, [(CoeffFn.const(model.base, 1), H)])
    af = af.apply_uea(u1)
    gvars = [Polynomial.var(n, k) for k in range(n)]
    h_vals = [model.along_source(p) for p in model.beta_polys(E1)]
    inner = af.substitute(n, gvars + h_vals, E1.to_target)
    outer = ArrowFn(model, n, 0, inner.terms).apply_uea(u2)
    return inner.terms, outer.eval_arrow(g)


class TestDefcheckStage1:
    @staticmethod
    def _stage1_keys(model):
        """(F, bid, u) of every stage 1 kept on a registered bisection."""
        return {(k[1], E.bid, k[2]) for E in model.registry.values()
                for k in E.derived if k[0] == "defcheck_stage1"}

    @pytest.mark.parametrize("make, names", [(pair_model, ("shift", "dbl", "half")),
                                             (heisenberg_model, ("kx", "ky", "k123"))])
    def test_one_key_per_triple_and_the_old_values(self, make, names):
        model = make()
        rng = random.Random(17)
        X, v = _operators(model)
        Es = [model.lookup(name) for name in names]
        Fs = [model.random_test_function(rng, 2) for _ in range(2)]
        x = Q(1, 3)
        triples = set()
        for F2 in Fs:
            for E1 in Es:
                for u1 in (X, v):
                    for E2 in Es:
                        for u2 in (X, v):
                            inner, value = _defcheck_reference(model, E2, u2, E1, u1, F2, x)
                            assert _defcheck_term_pair(model, E2, u2, E1, u1, F2, x) == value
                            key = ("defcheck_stage1", F2, u1)
                            assert E1.derived[key].terms == inner
                            triples.add((F2, E1.bid, u1))
                    assert self._stage1_keys(model) == triples
        assert not [k for k in model.derived if k[0] == "defcheck_stage1"]
        # a second sweep adds no key and gives the same values
        derived = {E.bid: dict(E.derived) for E in Es}
        for F2 in Fs:
            for E1 in Es:
                for u1 in (X, v):
                    assert (_defcheck_term_pair(model, Es[0], v, E1, u1, F2, x)
                            == _defcheck_reference(model, Es[0], v, E1, u1, F2, x)[1])
        assert {E.bid: E.derived for E in Es} == derived

    def test_a_stage_that_raises_leaves_no_key(self, pair):
        # beta of E01 needs its inverse map, which is not representable
        D = UEAElement.generator(pair.algebroid, 0)
        F2 = Polynomial.parse("x0*x1", 2)
        before = self._stage1_keys(pair)
        for _ in range(2):
            with pytest.raises(UnsupportedComposition, match="inverse map"):
                _defcheck_term_pair(pair, pair.lookup("shift"), D, pair.lookup("E01"), D,
                                    F2, Q(1, 3))
            assert self._stage1_keys(pair) == before


class TestEtaleTestFunctions:
    """An etale test function is read with .get(gamma): a dict, or any
    object with only that method, like the one perfbench passes."""

    class OnlyGet:
        def __init__(self, fn):
            self.fn = fn

        def get(self, gamma, default=None):
            return self.fn

    def test_dict_and_get_only_object(self, etale):
        A = etale.algebroid
        d = etale.lookup("d")
        fn = CoeffFn(A.chart, Polynomial.parse("x0^2", 1))
        T = TransvDist.single(etale, d, UEAElement.from_coeff(
            A, CoeffFn(A.chart, Polynomial.parse("x0", 1))))
        table = {d.gamma: fn, d.gamma.after(d.gamma): fn}
        for Ftest in (table, self.OnlyGet(fn)):
            # at x = 4: f(2) F(2) = 8; for T*T, f(2) f(1) F(1) = 2
            assert dist_eval_at(T, Ftest, Q(4)) == 8
            assert dist_eval_at(dist_mul(T, T), Ftest, Q(4)) == 2
            assert dist_mul_defcheck(T, T, Ftest, Q(4)) == 2

    def test_missing_component_is_zero(self, etale):
        A = etale.algebroid
        T = TransvDist.single(etale, etale.lookup("d"), UEAElement.one(A))
        assert dist_eval_at(T, {}, Q(4)) == 0
        assert dist_mul_defcheck(T, T, {}, Q(4)) == 0
        other = {etale.lookup("sh").gamma: CoeffFn.const(A.chart, 1)}
        assert dist_eval_at(T, other, Q(4)) == 0
        assert dist_mul_defcheck(T, T, other, Q(4)) == 0

    def test_values_on_a_restricted_reflection(self):
        # gamma = -x on (0, 1) reaches the targets (-1, 0); at x = -1/2 the
        # source point is 1/2, where f = 1 + x0 and F = 3 + x0 are read
        model = model_from_json({"model": "etale", "bisections": [
            {"id": "r", "gamma": ["-1", "0"], "domain": [["0", "1"]]}]})
        A = model.algebroid
        r, M = model.lookup("r"), model.lookup("M")
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("1 + x0", 1)))
        one = UEAElement.one(A)
        Ftest = self.OnlyGet(CoeffFn(A.chart, Polynomial.parse("3 + x0", 1)))
        T = TransvDist.single(model, r, f)
        assert dist_eval_at(T, Ftest, Q(1, 2)) == 0
        assert dist_eval_at(T, Ftest, Q(-1, 2)) == Q(3, 2) * Q(7, 2)
        for T2, T1 in ((TransvDist.single(model, M, one), T),
                       (T, TransvDist.single(model, M, one))):
            assert dist_mul_defcheck(T2, T1, Ftest, Q(1, 2)) == 0
            assert dist_mul_defcheck(T2, T1, Ftest, Q(-1, 2)) == Q(3, 2) * Q(7, 2)


class TestCommutingSquare:
    def test_exact_gap_zero(self, pair, h3):
        rng = random.Random(9)
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        # a coefficient that is not constant: c o s o R_E^{-1} = (c o tau) o s
        fD = uea_mul(UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("1 + x0", 1))), D)
        Fs = [random_polynomial(rng, 2, 3) for _ in range(5)]
        for name, u in (("dbl", D), ("shift", fD)):
            gaps = commuting_square_gap(pair, pair.lookup(name), u, Fs)
            assert len(gaps) == len(Fs)
            assert all(gap.is_zero for gap in gaps)
        H = h3.algebroid
        for _ in range(5):
            Fq = random_polynomial(rng, 3, 3)
            u = UEAElement.generator(H, rng.randrange(3))
            [gap] = commuting_square_gap(h3, h3.lookup("k123"), u, [Fq])
            assert gap.is_zero

    def test_gap_nonzero_without_the_adjoint_action(self, pair, h3, monkeypatch):
        # the gap is zero because U(Ad_E) twists the left side; with the
        # twist taken out the same cases must show a nonzero gap for every F
        A, H = pair.algebroid, h3.algebroid
        D = UEAElement.generator(A, 0)
        X, Y = UEAElement.generator(H, 0), UEAElement.generator(H, 1)
        cases = [(pair, "dbl", D, [Polynomial.parse("x1", 2), Polynomial.parse("x0*x1^2", 2)]),
                 (h3, "k123", X, [Polynomial.parse("x2", 3), Polynomial.parse("x0*x2", 3)]),
                 (h3, "k123", Y, [Polynomial.parse("x2", 3)])]
        for model, name, u, Fs in cases:
            assert all(gap.is_zero for gap in commuting_square_gap(model, model.lookup(name), u, Fs))
        monkeypatch.setattr(dist_module, "ad_uea", lambda E, u: u)
        for model, name, u, Fs in cases:
            gaps = commuting_square_gap(model, model.lookup(name), u, Fs)
            assert len(gaps) == len(Fs)
            assert not any(gap.is_zero for gap in gaps)

    def test_one_adjoint_action_for_all_test_functions(self, pair, monkeypatch):
        rng = random.Random(11)
        A = pair.algebroid
        u = uea_mul(UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("1 + x0", 1))),
                    UEAElement.generator(A, 0))
        Fs = [random_polynomial(rng, 2, 3) for _ in range(5)]
        calls = []
        real = dist_module.ad_uea
        monkeypatch.setattr(dist_module, "ad_uea", lambda E, v: calls.append(v) or real(E, v))
        commuting_square_gap(pair, pair.lookup("shift"), u, Fs)
        assert len(calls) == 1

    def test_each_gap_equals_the_gap_of_its_test_function_alone(self, pair, h3, monkeypatch):
        # without the twist the gaps are nonzero, so a shuffled list shows
        monkeypatch.setattr(dist_module, "ad_uea", lambda E, u: u)
        rng = random.Random(12)
        D = UEAElement.generator(pair.algebroid, 0)
        monos = [Polynomial.parse("x1", 2), Polynomial.parse("x0*x1^2", 2),
                 Polynomial.parse("x1^3", 2)]
        cases = [(pair, "dbl", D, monos)]
        for model, name in ((pair, "shift"), (h3, "k123")):
            u = UEAElement.generator(model.algebroid, rng.randrange(model.algebroid.rank))
            cases.append((model, name, u,
                          [random_polynomial(rng, model.arrow_chart.dim, 3) for _ in range(5)]))
        for model, name, u, Fs in cases:
            E = model.lookup(name)
            gaps = commuting_square_gap(model, E, u, Fs)
            assert gaps == [commuting_square_gap(model, E, u, [Fq])[0] for Fq in Fs]
        assert len(set(commuting_square_gap(pair, pair.lookup("dbl"), D, monos))) == len(monos)

    def test_rank_zero_gives_one_gap_per_test_function(self, etale):
        rng = random.Random(14)
        A = etale.algebroid
        u = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("2 + x0^2", 1)))
        Fs = [random_polynomial(rng, etale.arrow_chart.dim, 3) for _ in range(4)]
        for E in etale.registry.values():
            gaps = commuting_square_gap(etale, E, u, Fs)
            assert len(gaps) == len(Fs)
            assert all(gap.is_zero for gap in gaps)
        assert commuting_square_gap(etale, E, u, []) == []

    def test_flat_numeric_gap_small(self, pair):
        rng = random.Random(10)
        A = pair.algebroid
        D = UEAElement.generator(A, 0)
        Fs = [random_polynomial(rng, 2, 2) for _ in range(3)]
        gaps = commuting_square_gap_numeric(pair, pair.lookup("E01"), D, Fs, (0.5, 0.35))
        assert len(gaps) == len(Fs)
        assert all(gap < 1e-9 for gap in gaps)


def _random_element(rng, A, max_deg):
    """One to three terms f X^a of A, |a| <= max_deg, each f a polynomial of
    degree <= 2 on the base."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * A.rank
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(A.rank)] += 1
        terms[tuple(exp)] = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
    return UEAElement(A, terms)


def _gap_reference(model, E, u, F):
    """The commuting-square gap of one test function by the frame walk:
    Ω(U(Ad_E)u)(F) o R_E^{-1}, coefficients moved by E.to_source, minus
    Ω(u)(F o R_E^{-1}), each summed to one polynomial."""
    n = model.arrow_chart.dim
    rinv, _ = dist_module._right_translation_inv(E)
    v = dist_module.ad_uea(E, u)
    lhs = ArrowFn.lift(model, F).apply_uea(v).substitute(n, rinv, E.to_source)
    rhs = ArrowFn.lift(model, F.substitute(rinv)).apply_uea(u)
    return _as_polynomial(lhs) - _as_polynomial(rhs)


class TestOmegaTable:
    """omega_apply reads Ω(X^a)(x^m) from the structure store; the frame
    walk of ArrowFn is the reference it must agree with."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["pair", "heisenberg"]))
    def test_omega_apply_is_the_frame_walk(self, pair, h3, seed, kind):
        model = pair if kind == "pair" else h3
        rng = random.Random(seed)
        u = _random_element(rng, model.algebroid, 3)
        F3 = random_polynomial(rng, model.arrow_chart.dim, 4)
        out = omega_apply(model, u, F3)
        assert _as_polynomial(out) == _as_polynomial(ArrowFn.lift(model, F3).apply_uea(u))
        # one term per term f X^a of u, carrying f itself
        assert len(out.terms) <= len(u.terms)
        assert all(any(c is f for f in u.terms.values()) for c, _ in out.terms)

    def test_pair_terms_are_the_walk_terms_in_order(self, pair):
        # at a float arrow a polynomial is evaluated term by term in dict
        # order, so on the pair model (one walk term per PBW term) the terms
        # must come out as the walk's, each polynomial's terms in order too
        rng = random.Random(21)
        for _ in range(20):
            u = _random_element(rng, pair.algebroid, 3)
            F2 = random_polynomial(rng, 2, 4)
            walk = ArrowFn.lift(pair, F2).apply_uea(u).terms
            out = omega_apply(pair, u, F2).terms
            assert [(c, list(P.terms.items())) for c, P in out] == [
                (c, list(P.terms.items())) for c, P in walk]

    @pytest.mark.parametrize("twist", [True, False])
    def test_gap_is_the_walk_formula(self, pair, h3, monkeypatch, twist):
        if not twist:
            # without U(Ad_E) the gaps are nonzero, so the comparison shows
            monkeypatch.setattr(dist_module, "ad_uea", lambda E, u: u)
        rng = random.Random(22)
        zero = []
        for model, names in ((pair, ("shift", "dbl", "half")), (h3, ("kx", "ky", "k123"))):
            for name in names:
                E = model.lookup(name)
                u = _random_element(rng, model.algebroid, 2)
                Fs = [random_polynomial(rng, model.arrow_chart.dim, 3) for _ in range(3)]
                gaps = commuting_square_gap(model, E, u, Fs)
                assert gaps == [_gap_reference(model, E, u, Fq) for Fq in Fs]
                zero.extend(gap.is_zero for gap in gaps)
        assert all(zero) if twist else zero.count(False) >= 5

    @pytest.mark.parametrize("make", [pair_model, heisenberg_model])
    def test_models_of_a_kind_share_one_entry(self, make, monkeypatch):
        first = make()
        other = model_from_json(model_to_json(make()))
        assert first.structure_store is other.structure_store
        assert first.derived is not other.derived
        n = first.arrow_chart.dim
        # a monomial and a PBW exponent that nothing else walks
        mono, exp = (11,) * n, (0,) * (first.algebroid.rank - 1) + (3,)
        key = ("omega", exp, mono)
        assert key not in first.structure_store.derived
        calls = []
        real = dist_module._omega_walk
        monkeypatch.setattr(dist_module, "_omega_walk",
                            lambda *args: calls.append(args[1:]) or real(*args))
        u = UEAElement(first.algebroid, {exp: CoeffFn.const(first.base, 1)})
        F_mono = Polynomial(n, {mono: 1})
        results = [omega_apply(model, u, F_mono.scale(k))
                   for model in (first, other) for k in (1, 2)]
        assert calls == [(exp, mono)]
        table = first.structure_store.derived[key]
        assert [P for r in results for _, P in r.terms] == [
            table, table.scale(2), table, table.scale(2)]
        assert not [k for k in first.derived if k[0] == "omega"]


def _gap_formula(model, E, u, F):
    """commuting_square_gap's formula for one test function, with each
    pullback along R_E^{-1} made by `at`, so that no images store is read."""
    n = model.arrow_chart.dim
    rinv, _ = dist_module._right_translation_inv(E)

    def pull(P):
        return P.at(rinv, lambda c: Polynomial.const(n, c))

    gap = Polynomial(n, {})
    for exp, g in dist_module.ad_uea(E, u).terms.items():
        c = model.along_source(E.to_source(g).poly)
        gap = gap + c * pull(dist_module._omega_poly(model, exp, F))
    for exp, f in u.terms.items():
        gap = gap - model.along_source(f.poly) * dist_module._omega_poly(model, exp, pull(F))
    return gap


class TestRightTranslationImages:
    """Each bisection keeps its own images store with R_E^{-1}, and a gap
    read through it is the gap of the formula."""

    @pytest.mark.parametrize("twist", [True, False])
    @pytest.mark.parametrize("make, names", [(pair_model, ("dbl", "half")),
                                             (heisenberg_model, ("k123", "ky"))])
    def test_gaps_on_one_bisection_then_another(self, make, names, monkeypatch, twist):
        if not twist:
            # without U(Ad_E) the gaps are nonzero, so the comparison shows
            monkeypatch.setattr(dist_module, "ad_uea", lambda E, u: u)
        model = make()
        rng = random.Random(31)
        Es = [model.lookup(name) for name in names]
        u = _random_element(rng, model.algebroid, 2)
        Fs = [random_polynomial(rng, model.arrow_chart.dim, 3) for _ in range(3)]
        zero = []
        for E in Es:
            gaps = commuting_square_gap(model, E, u, Fs)
            assert [list(gap.terms.items()) for gap in gaps] == [
                list(_gap_formula(model, E, u, Fq).terms.items()) for Fq in Fs]
            zero.append(all(gap.is_zero for gap in gaps))
        # without the twist each bisection has a nonzero gap
        assert all(zero) if twist else not any(zero)
        (rinv, images), (rinv2, images2) = (
            dist_module._right_translation_inv(E) for E in Es)
        assert images and images2 and images is not images2
        # a store read with the other map would give other pullbacks
        assert any(F.substitute(rinv2, images) != F.substitute(rinv2) for F in Fs)


ARROWS = ((0.5, 0.35), (-1.25, -0.8))
KINKS = ("E00", "E01", "E10", "E11")


def _series_gap_reference(model, E, u, F, g):
    """The series gap of one test function, side A's jets built anew for it:
    commuting_square_gap_numeric's body before it took a list of test
    functions and read f o tau^{-1} from a jet of each coefficient f."""
    y0, x0 = float(g[0]), float(g[1])
    s0, tau_jet, w = dist_module._flat_series_data(E, x0)
    sigma = dist_module.jet_inverse(tau_jet, s0)
    side_a = 0.0
    for exp, f in u.terms.items():
        j = exp[0]
        coeffs = {0: Jet.const(1)}
        for _ in range(j):
            new = {}
            for k, c in coeffs.items():
                wm = w
                binom = 1
                for m in range(k + 1):
                    key = k - m + 1
                    term = (c * wm).scale(binom)
                    new[key] = new.get(key, Jet.const(0)) + term
                    wm = wm.shift()
                    binom = binom * (k - m) // (m + 1)
            coeffs = new
        fval = dist_module._jet_at(dist_module._derivative_tower(f, dist_module.JET_ORDER), s0)
        fx = dist_module._jet_compose(fval, sigma, s0)
        for k, c in coeffs.items():
            dF = F
            for _ in range(k):
                dF = dF.derive(1)
            side_a += (fx * c).value() * float(dF.eval((y0, x0)))
    H_jet = F.at([Jet.const(y0), tau_jet], Jet.const)
    side_b = 0.0
    fact = [1.0]
    for k in range(1, dist_module.JET_ORDER):
        fact.append(fact[-1] * k)
    for exp, f in u.terms.items():
        j = exp[0]
        side_b += float(f.eval((s0,))) * H_jet.a[j] * fact[j]
    return abs(side_a - side_b)


def _series_operators(A):
    """Operators of degree 0, 1 and 2 on the pair algebroid, the last two
    with 2 and 3 terms."""
    D = UEAElement.generator(A, 0)
    f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("1 + x0", 1)))
    g = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("2 - 1/3*x0^2", 1)))
    return [f, uea_mul(g, D) + f, uea_mul(f, uea_mul(D, D)) + D + g]


class TestSeriesGapList:
    @pytest.mark.parametrize("name", KINKS)
    def test_each_gap_equals_the_gap_of_its_test_function_alone(self, name):
        rng = random.Random(15)
        model = pair_model()
        E = model.lookup(name)
        Fs = [random_polynomial(rng, 2, 3) for _ in range(4)]
        for u in _series_operators(model.algebroid):
            for g in ARROWS:
                gaps = commuting_square_gap_numeric(model, E, u, Fs, g)
                assert gaps == [_series_gap_reference(model, E, u, Fq, g) for Fq in Fs]
                assert all(gap < 1e-9 for gap in gaps)
        assert commuting_square_gap_numeric(model, E, u, [], ARROWS[0]) == []

    @pytest.mark.parametrize("make, name", [
        (pair_model, "shift"), (heisenberg_model, "k123"), (etale_model, "d")])
    def test_a_bisection_that_is_not_flat_raises(self, make, name):
        model = make()
        u = UEAElement.one(model.algebroid)
        F = Polynomial.var(model.arrow_chart.dim, 0)
        with pytest.raises(ValueError, match="series check is for flat bisections"):
            commuting_square_gap_numeric(model, model.lookup(name), u, [F], ARROWS[0])


class TestFlatSeriesData:
    def test_same_gap_when_cached_and_on_a_fresh_model(self):
        rng = random.Random(13)
        A = pair_model().algebroid
        D = UEAElement.generator(A, 0)
        f = UEAElement.from_coeff(A, CoeffFn(A.chart, Polynomial.parse("1 + x0", 1)))
        u = uea_mul(f, uea_mul(D, D)) + D
        Fs = [random_polynomial(rng, 2, 3) for _ in range(3)]
        model = pair_model()
        for name in KINKS:
            for g in ARROWS:
                first = commuting_square_gap_numeric(model, model.lookup(name), u, Fs, g)
                again = commuting_square_gap_numeric(model, model.lookup(name), u, Fs, g)
                fresh_model = pair_model()
                fresh = commuting_square_gap_numeric(
                    fresh_model, fresh_model.lookup(name), u, Fs, g)
                assert first == again == fresh
                assert all(gap < 1e-9 for gap in first)
        assert ("flat_series", 0.35) in model.lookup("E01").derived
