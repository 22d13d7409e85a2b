import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from convbialg.coeffs import Chart, CoeffFn, Polynomial, Q, Region
from convbialg.errors import UnsupportedComposition, UnsupportedProduct

LINE = Chart.line("M")
X = Polynomial.var(1, 0)


def poly1(terms):
    return Polynomial(1, terms)


class TestPolynomial:
    def test_parse_text_round_trip(self):
        p = Polynomial.parse("2*x0^2*x1 + -3*x1 + 1/2", 2)
        assert Polynomial.parse(p.text(), 2) == p

    def test_arithmetic(self):
        p = Polynomial.parse("x0 + 1", 1)
        q = Polynomial.parse("x0 + -1", 1)
        assert (p * q) == Polynomial.parse("x0^2 + -1", 1)
        assert (p - p).is_zero

    def test_eval_exact_iff_rational(self):
        p = Polynomial.parse("x0^2 + 1/3", 1)
        assert p.eval((F(1, 2),)) == F(7, 12)
        assert isinstance(p.eval((0.5,)), float)

    def test_substitute(self):
        p = Polynomial.parse("x0^2", 1)
        assert p.substitute([Polynomial.parse("x0 + x1", 2)]) == Polynomial.parse(
            "x0^2 + 2*x0*x1 + x1^2", 2
        )

    def test_eval_in_exact_and_float_rings(self):
        p = Polynomial.parse("2*x0^2*x1 + -3*x1 + 1/2", 2)
        value = p.eval((F(1, 2), 3))
        assert value == F(-7) and type(value) is F
        zero = Polynomial(2, {}).eval((1, 2))
        assert zero == 0 and type(zero) is F
        # floats: each term from the left, terms added in order from 0.0
        x0, x1 = 0.1, 0.7
        assert p.eval((x0, x1)) == ((0.0 + 2.0 * x0 * x0 * x1) + -3.0 * x1) + 0.5

    def test_embed(self):
        p = Polynomial.parse("x0*x1^2 + 5", 2)
        assert p.embed(4, 1) == Polynomial.parse("x1*x2^2 + 5", 4)
        assert p.embed(3) == Polynomial.parse("x0*x1^2 + 5", 3)
        assert p.embed(2) == p

    def test_derive(self):
        p = Polynomial.parse("x0^3 + 2*x0", 1)
        assert p.derive(0) == Polynomial.parse("3*x0^2 + 2", 1)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3))
    def test_commutativity(self, a, b, c):
        p = poly1({(1,): Q(a), (0,): Q(c)})
        q = poly1({(2,): Q(b)})
        assert p * q == q * p
        assert p + q == q + p


class TestRegion:
    def test_interval_contains(self):
        r = Region.interval(0, 1)
        assert r.contains((F(1, 2),))
        assert not r.contains((2,))

    def test_union_intersect(self):
        r = Region.union(Region.interval(0, 1), Region.interval(2, 3))
        assert r.contains((F(5, 2),)) and not r.contains((F(3, 2),))
        s = r.intersect(Region.interval(F(1, 2), F(5, 2)))
        assert s.contains((F(3, 4),)) and not s.contains((F(1, 4),))

    def test_affine_image(self):
        r = Region.interval(0, 1).affine_image(2, 1)
        assert r.contains((F(3, 2),)) and not r.contains((F(1, 2),))


class TestFlat:
    def test_phi_value(self):
        phi = CoeffFn.phi(LINE)
        assert phi.eval((1.0,)) == pytest.approx(math.exp(-1.0))
        assert phi.eval((-1.0,)) == pytest.approx(-math.exp(-1.0))
        assert phi.eval((F(0),)) == 0

    def test_kink_eval(self):
        # t + phi on t<=0, t + 2 phi on t>=0: value at 1 is 1 + 2 e^-1
        f = CoeffFn.flat_piece(LINE, X, 1, 2)
        assert f.eval((1.0,)) == pytest.approx(1 + 2 * math.exp(-1))
        assert f.eval((-1.0,)) == pytest.approx(-1 - math.exp(-1))

    def test_germ_zero_decisions(self):
        phi = CoeffFn.phi(LINE)
        assert phi.has_zero_germ_at((F(0),)) is False
        zero_right = CoeffFn(LINE, Polynomial(1, {}), flat_neg={0: Q(1)})
        assert not zero_right.has_zero_germ_at((F(0),))
        assert zero_right.is_zero_on(F(1), F(2))
        assert not zero_right.is_zero_on(F(-2), F(-1))

    def test_value_is_zero_exact_uses_transcendence(self):
        # x - phi never vanishes at rational x != 0 unless both parts do
        f = CoeffFn(LINE, X) - CoeffFn.phi(LINE)
        assert not f.value_is_zero_exact(F(1))
        assert f.value_is_zero_exact(F(0))
        g = CoeffFn(LINE, Polynomial.parse("x0^2 + -1", 1))
        assert g.value_is_zero_exact(F(1))

    def test_tiny_arguments_underflow_to_zero(self):
        # exp(-1/t^2) is 0.0 in floats long before t^-k overflows
        d2 = CoeffFn.phi(LINE).derive().derive()
        for t in (1e-60, -1e-60, 1e-200):
            assert d2.eval((t,)) == 0.0

    def test_restricted_products(self):
        phi = CoeffFn.phi(LINE)
        two = CoeffFn.const(LINE, 2)
        assert (two * phi).flat_pos == {0: Q(2)}
        with pytest.raises(UnsupportedProduct):
            _ = phi * phi

    def test_restricted_composition(self):
        phi = CoeffFn.phi(LINE)
        ident = CoeffFn(LINE, X)
        assert phi.compose([ident]) == phi
        with pytest.raises(UnsupportedComposition):
            phi.compose([CoeffFn(LINE, Polynomial.parse("2*x0", 1))])
        # affine outer composes with anything
        outer = CoeffFn(LINE, Polynomial.parse("3*x0 + 1", 1))
        assert outer.compose([phi]) == phi.scale(3) + CoeffFn.const(LINE, 1)


class TestGerm:
    def test_germ_eq(self):
        f = CoeffFn(LINE, Polynomial.parse("x0 + 1", 1))
        g = CoeffFn(LINE, Polynomial.parse("x0 + 1", 1)) + CoeffFn.phi(LINE)
        # flat part has nonzero germ everywhere
        assert not (f - g).has_zero_germ_at((F(1),))
        assert (f - f).has_zero_germ_at((F(1),))
