import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from convbialg import groupoid
from convbialg.coeffs import Chart, CoeffFn, Polynomial, Q, Region
from convbialg.conv import conv_mul
from convbialg.dist import dist_mul
from convbialg.errors import (
    DomainError,
    UnsupportedComposition,
    UnsupportedRegistry,
    VerificationFailed,
)
from convbialg.groupoid import (
    AffineMap,
    Bisection,
    Diffeo1D,
    EtaleActionModel,
    GroupModel,
    PairModel,
    _product_domain,
    _solve_monotone,
    bisection_germ_eq,
    bisection_inv,
    bisection_mul,
    unit_bisection,
)
from convbialg.lie_rinehart import tangent_line_algebroid
from convbialg.models import (FACTORIES, builtin_models, etale_model, heisenberg_model,
                              model_from_json, pair_model)
from convbialg.suites import SUITES, run_suite
from convbialg.textform import parse_conv, parse_dist


@pytest.fixture(scope="module")
def pair():
    return pair_model()


@pytest.fixture(scope="module")
def h3():
    return heisenberg_model()


@pytest.fixture(scope="module")
def etale():
    return etale_model()


class TestStructureMaps:
    def test_pair_maps(self, pair):
        g = (F(3), F(5))  # arrow 5 -> 3
        assert pair.s_of(g) == (F(5),)
        assert pair.t_of(g) == (F(3),)
        assert pair.inv_arrow(g) == (F(5), F(3))
        h = (F(7), F(3))
        assert pair.mult_arrow(h, g) == (F(7), F(5))

    def test_heisenberg_inverse(self, h3):
        g = (F(2), F(3), F(5))
        # (a, b, c)^-1 = (-a, -b, -c + a b)
        assert h3.inv_arrow(g) == (F(-2), F(-3), F(1))
        assert h3.mult_arrow(h3.inv_arrow(g), g) == (F(0), F(0), F(0))

    def test_heisenberg_noncommutative(self, h3):
        g = (F(1), F(0), F(0))
        h = (F(0), F(1), F(0))
        assert h3.mult_arrow(g, h) != h3.mult_arrow(h, g)

    def test_verify_catches_bad_mult(self):
        v2 = [Polynomial.var(2, i) for i in range(2)]
        v4 = [Polynomial.var(4, i) for i in range(4)]
        x = Polynomial.var(1, 0)
        with pytest.raises(VerificationFailed):
            PairModel(
                name="broken",
                base=Chart.line("M"),
                arrow_chart=Chart(2, "G"),
                algebroid=tangent_line_algebroid(),
                s_map=[v2[1]],
                t_map=[v2[0]],
                unit_map=[x, x],
                inv_map=[v2[1], v2[0]],
                mult_map=[v4[0], v4[2]],  # wrong source slot
                frame=[],
                unit_frame=[],
            )


class TestDiffeo:
    def test_affine_apply_inverse(self):
        d = Diffeo1D.affine(Chart.line("M"), 2, 1)
        assert d.apply(F(3)) == F(7)
        assert d.apply_inv(F(7)) == F(3)

    def test_flat_kink_inverse_numeric(self):
        d = Diffeo1D.flat_kink(Chart.line("M"), 1, 2)
        y = d.apply(1.0)
        assert d.apply_inv(y) == pytest.approx(1.0, abs=1e-9)
        y = d.apply(-0.7)
        assert d.apply_inv(y) == pytest.approx(-0.7, abs=1e-9)

    def test_compose(self):
        ch = Chart.line("M")
        d = Diffeo1D.affine(ch, 2, 0).compose(Diffeo1D.affine(ch, 1, 3))
        assert d.affine_parts() == (Q(2), Q(6))


def _solve_monotone_200_steps(f, y):
    """The bisection solve with all 200 halving steps, as a reference."""
    y = float(y)
    sign = 1.0 if float(f.eval((1.0,))) > float(f.eval((-1.0,))) else -1.0

    def val(t):
        return sign * float(f.eval((t,)))

    y = sign * y
    lo, hi = -1.0, 1.0
    while val(lo) > y:
        lo = 2 * lo - 1
    while val(hi) < y:
        hi = 2 * hi + 1
    for _ in range(200):
        mid = (lo + hi) / 2
        if val(mid) <= y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestSolveMonotone:
    def test_early_stop_returns_the_200_step_float(self, pair):
        rng = random.Random(4)
        ys = [0.0, 0.35, -0.35, 0.8, -0.8, 1e-3, -1e-3, 1e-300]
        ys += [rng.uniform(-3, 3) for _ in range(16)]
        ys += [rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 0) for _ in range(16)]
        for name in ("E00", "E01", "E10", "E11"):
            tau = pair.lookup(name).tau_coeff()
            for y in ys:
                assert _solve_monotone(tau, y) == _solve_monotone_200_steps(tau, y), (name, y)

    def test_decreasing_map(self):
        f = Diffeo1D.flat_kink(Chart.line("M"), 1, 2).coeff().scale(-1)
        for y in (0.0, 0.5, -2.25, 1e-300):
            assert _solve_monotone(f, y) == _solve_monotone_200_steps(f, y)

    @pytest.mark.parametrize("y", [Q(10) ** 400, -Q(10) ** 400])
    def test_a_rational_beyond_float_range_is_a_domain_error(self, pair, y):
        with pytest.raises(DomainError, match="beyond float range"):
            pair.lookup("E00").tau_inv_apply(y)

    @pytest.mark.parametrize("y", [1e300, -1e300])
    def test_brackets_a_root_far_out(self, pair, y):
        tau = pair.lookup("E00").tau_coeff()
        assert _solve_monotone(tau, y) == _solve_monotone_200_steps(tau, y)

    @pytest.mark.parametrize("y", [1.7e308, -1.7e308])
    def test_a_bracket_beyond_float_range_is_a_domain_error(self, pair, y):
        # the bound after 2^1023 - 1 is infinite
        with pytest.raises(DomainError, match="failed to bracket"):
            _solve_monotone(pair.lookup("E00").tau_coeff(), y)

    def test_inverted_kinks_and_affine_maps_are_never_solved(self, monkeypatch):
        model = pair_model()
        calls = []
        monkeypatch.setattr(groupoid, "_solve_monotone", lambda f, y: calls.append(y))
        # the inverted kink has no forward map: tau is refused, not solved
        inverted = bisection_inv(model.lookup("E01"))
        with pytest.raises(UnsupportedComposition):
            inverted.tau_apply(0.5)
        # an affine tau is evaluated, never solved
        assert model.lookup("shift").tau_inv_apply(F(1, 2)) == F(-1, 2)
        assert calls == []

    @pytest.mark.parametrize("name, y", [("E00", 0), ("E01", Q(0)), ("E10", 0), ("E11", Q(0)),
                                         ("shift*E00", 1)])
    def test_the_preimage_of_tau_at_0_is_exact(self, monkeypatch, name, y):
        # the flat part vanishes at 0, so tau(0) is exact and is not solved
        model = pair_model()
        if name == "shift*E00":
            E = model.registered_product(model.lookup("shift"), model.lookup("E00"))
        else:
            E = model.lookup(name)
        calls = []
        monkeypatch.setattr(groupoid, "_solve_monotone", lambda f, y: calls.append(y))
        assert E.is_flat and E.tau_apply(0) == y
        assert E.tau_inv_apply(y) == 0 and type(E.tau_inv_apply(y)) is int
        assert calls == []
        # a float y is still solved
        E.tau_inv_apply(float(y))
        assert calls == [float(y)]


class TestBisections:
    def test_is_flat_is_set_once(self, pair, h3, etale):
        assert "is_flat" in Bisection.__slots__
        assert pair.lookup("E00").is_flat and not pair.lookup("shift").is_flat
        assert not h3.lookup("e").is_flat and not etale.lookup("d").is_flat

    def test_product_domain_of_an_int_affine_factor_is_exact(self, pair):
        # tau_1 = 2x + 1 pulls (0, 1) back to (-1/2, 0)
        E1 = Bisection(pair, tau=Diffeo1D.affine(pair.base, 2, 1))
        E2 = Bisection(pair, tau=Diffeo1D.identity(pair.base), domain=Region.interval(0, 1))
        dom = _product_domain(E2, E1)
        assert dom.intervals == ((F(-1, 2), 0),)
        assert all(type(v) in (int, F) for v in dom.intervals[0])

    def test_pair_mul_inv(self, pair):
        shift = pair.lookup("shift")
        dbl = pair.lookup("dbl")
        prod = bisection_mul(shift, dbl)  # tau = 2x + 1
        assert prod.tau.affine_parts() == (Q(2), Q(1))
        inv = bisection_inv(shift)
        assert inv.tau.affine_parts() == (Q(1), Q(-1))

    def test_group_mul(self, h3):
        kx, ky = h3.lookup("kx"), h3.lookup("ky")
        assert bisection_mul(kx, ky).element == (F(1), F(1), F(1))
        assert bisection_mul(ky, kx).element == (F(1), F(1), F(0))
        # (1,2,3)^-1 = (-1, -2, -3 + 1*2)
        assert bisection_inv(h3.lookup("k123")).element == (F(-1), F(-2), F(-1))

    def test_etale_domain_arithmetic(self, etale):
        w = etale.lookup("w")
        winv = bisection_inv(w)
        # inverse domain is the image gamma(dom)
        assert winv.domain.contains(F(3, 2))
        assert not winv.domain.contains(F(1, 2))
        prod = bisection_mul(etale.lookup("sh"), w)
        assert prod.gamma == AffineMap.of(1, 2)
        assert prod.domain == w.domain

    def test_unit(self, pair, h3, etale):
        assert unit_bisection(pair).tau == Diffeo1D.identity(pair.base)
        assert unit_bisection(h3).element == (F(0), F(0), F(0))
        assert unit_bisection(etale).gamma == AffineMap.of(1, 0)


_ENDS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _intervals(draw):
    """A bounded, half-bounded or whole open interval."""
    lo, hi = sorted(draw(st.lists(_ENDS, min_size=2, max_size=2, unique=True)))
    return Region.interval(*draw(st.sampled_from([(lo, hi), (lo, None), (None, hi),
                                                  (None, None)])))


_REGIONS = st.one_of(_intervals(), st.lists(_intervals(), min_size=2, max_size=3)
                     .map(lambda regions: Region.union(*regions)))


class TestContainsTarget:
    @given(p=_ENDS.filter(bool), q=_ENDS, domain=_REGIONS, data=st.data())
    def test_agrees_with_the_target_domain(self, pair, p, q, domain, data):
        E = Bisection(pair, tau=Diffeo1D.affine(pair.base, p, q), domain=domain)
        t = E.target_domain()
        # the images of the domain's ends, and points around them
        ends = [p * e + q for iv in domain.intervals for e in iv if e is not None]
        points = st.fractions(min_value=-25, max_value=25, max_denominator=8)
        y = data.draw(st.one_of(points, st.sampled_from(ends)) if ends else points)
        assert E.contains_target(y) == (t.is_whole or t.contains(y))
        assert E.contains_target((y,)) == E.contains_target(y)

    @pytest.mark.parametrize("make", [pair_model, heisenberg_model, etale_model])
    def test_a_whole_source_builds_no_target_domain(self, make, monkeypatch):
        # an affine tau or a flat kink maps the whole line onto itself
        model = make()
        whole = [E for E in model.registry.values() if E.domain.is_whole]
        assert whole
        monkeypatch.setattr(Bisection, "target_domain", lambda E: pytest.fail("target_domain"))
        assert all(E.contains_target(y) for E in whole for y in (F(-3), 0, F(7, 2)))


class TestDerivedOnce:
    """Products are derived once per id pair and kept in model.derived,
    beta_E and the inverse once per bisection and kept on it; a derivation
    that raises keeps nothing."""

    def test_registered_product_is_the_registry_object(self):
        model = pair_model()
        shift, dbl = model.lookup("shift"), model.lookup("dbl")
        # shift . dbl has tau = 2x + 1; an equal bisection is registered first
        earlier = model.register(Bisection(model, tau=Diffeo1D.affine(model.base, 2, 1)))
        first = model.registered_product(shift, dbl)
        assert first is earlier and first is model.registry[earlier.bid]
        assert model.registered_product(shift, dbl) is earlier
        # a new product is registered, and the same object comes back
        new = model.registered_product(dbl, shift)
        assert new is model.registry[new.bid]
        assert model.registered_product(dbl, shift) is new

    def test_bisection_mul_runs_once_per_id_pair(self, monkeypatch):
        model = pair_model()
        seen = []
        real = groupoid.bisection_mul

        def counting(E2, E1):
            seen.append((E2.bid, E1.bid))
            return real(E2, E1)

        monkeypatch.setattr(groupoid, "bisection_mul", counting)
        a2 = parse_conv(model, "<1 | shift> + <x0 * D | dbl>")
        a1 = parse_conv(model, "<1 * D | half> + <1 | shift>")
        T2 = parse_dist(model, "[[shift, 1]] + [[dbl, x0 * D]]")
        T1 = parse_dist(model, "[[half, 1 * D]] + [[shift, 1]] + [[M, 1]]")
        for _ in range(2):
            conv_mul(a2, a1)
            dist_mul(T2, T1)
        assert sorted(seen) == sorted(set(seen))
        assert len(seen) == 6  # 4 pairs of conv_mul, 2 more of dist_mul

    def test_a_failing_product_raises_every_time_and_keeps_nothing(self):
        model = pair_model()
        restricted = Bisection(model, tau=Diffeo1D.identity(model.base),
                               domain=Region.interval(0, 1))
        flat = model.lookup("E01")
        for _ in range(2):
            with pytest.raises(UnsupportedRegistry):
                model.registered_product(restricted, flat)
        assert not [k for k in model.derived if k[0] == "product"]

    def test_beta_polys_are_recomputed_and_keep_nothing(self):
        model = pair_model()
        dbl = model.lookup("dbl")
        first = model.beta_polys(dbl)
        assert first == [Polynomial.var(1, 0), Polynomial(1, {(1,): F(1, 2)})]
        again = model.beta_polys(dbl)
        assert again == first and again is not first
        assert "beta_polys" not in dbl.derived
        assert not [k for k in model.derived if k[0] == "beta_polys"]

    def test_flat_beta_polys_raise_every_time_and_keep_nothing(self):
        model = pair_model()
        flat = model.lookup("E01")
        for _ in range(2):
            with pytest.raises(UnsupportedComposition, match="inverse map not representable"):
                model.beta_polys(flat)
            assert "beta_polys" not in flat.derived
        assert not [k for k in model.derived if k[0] == "beta_polys"]

    def test_etale_beta_keeps_one_inverse_group_element(self, monkeypatch):
        model = etale_model()
        model.register(Bisection(model, gamma=AffineMap.of(2, 1), domain=Region.interval(0, 1)))
        bisections = list(model.registry.values())
        assert any(not E.domain.is_whole for E in bisections)
        builds = []
        real = AffineMap.inverse

        def counting(g):
            builds.append(g)
            return real(g)

        monkeypatch.setattr(AffineMap, "inverse", counting)
        ys = (F(3, 2), 2, F(5, 2))  # in the target domain (1, 3) of the restricted one
        for E in bisections:
            for y in ys:
                assert model.beta(E, y) == (E.gamma, real(E.gamma)(y))
                assert E.beta(y) == (E.gamma, real(E.gamma)(y))
            assert E.derived["gamma_inv"] == real(E.gamma)
        assert len(builds) == len(bisections)

    @pytest.mark.parametrize("make", [pair_model, heisenberg_model, etale_model])
    def test_one_inverse_per_bisection(self, make):
        model = make()
        for E in list(model.registry.values()):
            inv = bisection_inv(E)
            assert bisection_inv(E) is inv and E.derived["inverse"] is inv
            assert inv.bid == model.bisection_inv(E).bid
        # inverses are kept on their bisections, never registered
        assert len(model.registry) == len(make().registry)

    @pytest.mark.parametrize("make, name, inverse", [
        (pair_model, "M", "M"), (pair_model, "dbl", "half"), (pair_model, "half", "dbl"),
        (heisenberg_model, "e", "e"), (etale_model, "d", "dinv")])
    def test_an_inverse_of_a_registered_id_is_the_registered_bisection(self, make, name,
                                                                       inverse):
        # so that the two share their derived data (the unit is its own inverse)
        model = make()
        assert bisection_inv(model.lookup(name)) is model.lookup(inverse)

    def test_one_inverse_build_per_model_and_bid_across_suites(self, monkeypatch):
        builds = Counter()
        for cls in (PairModel, GroupModel, EtaleActionModel):
            def counting(model, E, real=cls.bisection_inv):
                builds[model, E.bid] += 1
                return real(model, E)
            monkeypatch.setattr(cls, "bisection_inv", counting)
        for name in ("phi-homomorphism", "prop43", "hopf-etale", "cartier-gabriel"):
            assert run_suite(name)["pass"]
        assert builds and set(builds.values()) == {1}
        models = {model for model, _ in builds}
        assert {model.kind for model in models} == {"pair", "group", "etale_action"}
        # the models keep only data of the model or of two bisections, and
        # what derives from the structure alone is in the structure store
        assert {k if isinstance(k, str) else k[0] for model in models
                for k in model.derived} == {"conjugation_jacobian", "product"}
        assert {k[0] for model in models
                for k in model.structure_store.derived} == {"frame_field", "omega"}


class TestGerms:
    def test_flat_kinks_agree_only_off_origin(self, pair):
        E00, E01 = pair.lookup("E00"), pair.lookup("E01")
        assert bisection_germ_eq(E00, E01, (F(-1),))  # same negative branch
        assert not bisection_germ_eq(E00, E01, (F(1),))
        assert not bisection_germ_eq(E00, E01, (F(0),))

    def test_inverted_kink_against_an_affine_map(self):
        # K = t + phi(t) for t >= 0 is the identity on (-inf, 0], and so is
        # its inverse; but K^-1 has no forward map, so its germ is compared
        # with none, in either order, at any point
        model = model_from_json({"model": "pair", "bisections": [
            {"id": "K", "tau": {"kind": "flat", "c_neg": "0", "c_pos": "1"}}]})
        K, M = model.lookup("K"), model.lookup("M")
        Kinv = bisection_inv(K)
        for x in (F(-1), F(0), F(1)):
            for E1, E2 in ((Kinv, M), (M, Kinv), (K, Kinv), (Kinv, K)):
                with pytest.raises(UnsupportedComposition):
                    bisection_germ_eq(E1, E2, (x,))

    def test_an_inverted_kink_moves_coefficients_and_refuses_its_forward_map(self, pair):
        E00 = pair.lookup("E00")
        inverted = bisection_inv(E00)
        f = CoeffFn(pair.base, Polynomial.parse("3*x0 + 1", 1))
        # f o tau
        assert inverted.to_target(f) == E00.tau_coeff().scale(3) + CoeffFn.const(pair.base, 1)
        for refused in (lambda: inverted.tau_apply(F(1, 2)),
                        lambda: bisection_germ_eq(inverted, E00, (F(1),)),
                        lambda: pair.same_arrow(inverted, E00, F(0)),
                        # its product with an affine map would have no forward map either
                        lambda: bisection_mul(inverted, pair.lookup("shift"))):
            with pytest.raises(UnsupportedComposition):
                refused()

    def test_a_map_without_a_forward_direction_is_not_registered(self):
        model = pair_model()
        held = dict(model.registry)
        for E in (model.lookup("E00"),
                  model.registered_product(model.lookup("shift"), model.lookup("E01"))):
            inverted = bisection_inv(E)
            assert not inverted.has_forward_map and E.has_forward_map
            with pytest.raises(UnsupportedRegistry):
                model.register(inverted)
            assert inverted.bid not in model.registry
        assert set(model.registry) - set(held) == {
            model.registered_product(model.lookup("shift"), model.lookup("E01")).bid}

    def test_no_registry_holds_a_map_without_a_forward_direction(self):
        models = builtin_models()
        for name in SUITES:
            run_suite(name, models=models)
        held = [E for model in models.values() for E in model.registry.values()]
        assert len(held) > sum(len(m().registry) for m in FACTORIES.values())
        assert not [E.bid for E in held if E.tau is not None and E.tau.fwd is None]
