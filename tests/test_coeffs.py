import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from convbialg.coeffs import Chart, CoeffFn, Polynomial, Q, Region, _q
from convbialg.conv import Stratum
from convbialg.errors import DomainError, UnsupportedComposition, UnsupportedProduct
from convbialg.groupoid import AffineMap, GermArrow, _region_from_json, _region_to_json
from convbialg.suites import run_suite

LINE = Chart.line("M")
X = Polynomial.var(1, 0)


def poly1(terms):
    return Polynomial(1, terms)


class TestPolynomial:
    def test_parse_text_round_trip(self):
        p = Polynomial.parse("2*x0^2*x1 + -3*x1 + 1/2", 2)
        assert Polynomial.parse(p.text(), 2) == p

    def test_parse_a_leading_minus(self):
        # "- " reads as "+ -", which leaves an empty first term
        assert Polynomial.parse("- 1*x0", 1) == -X

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


class TestCheckedConstructors:
    """The public constructors reject what they cannot represent exactly."""

    @pytest.mark.parametrize("exp", [(1.5,), (1.0,), (True,), (-1,), (1, 0)])
    def test_polynomial_rejects_bad_exponents(self, exp):
        with pytest.raises(ValueError):
            Polynomial(1, {exp: 1})

    @pytest.mark.parametrize("i", [-1, 2])
    def test_var_index_in_range(self, i):
        with pytest.raises(ValueError):
            Polynomial.var(2, i)
        with pytest.raises(ValueError):
            CoeffFn.var(Chart(2), i)

    @pytest.mark.parametrize("key", [0.5, -1, True, "0"])
    def test_flat_keys_are_nonnegative_ints(self, key):
        with pytest.raises(ValueError):
            CoeffFn(LINE, Polynomial(1, {}), flat_pos={key: 1})
        with pytest.raises(ValueError):
            CoeffFn(LINE, Polynomial(1, {}), flat_neg={key: 1})

    def test_embed_in_range(self):
        p = Polynomial.parse("x0*x1", 2)
        for total, offset in ((3, 2), (1, 0), (3, -1)):
            with pytest.raises(ValueError):
                p.embed(total, offset)


# Hypothesis operands for the trusted arithmetic.  Coefficients include 0
# and cancelling values, so that results drop terms.
RATIONALS = st.sampled_from([0, 1, -1, 2, -2, F(1, 2), F(-1, 3), F(5, 4)])


def polys(nvars, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, RATIONALS, max_size=4).map(lambda t: Polynomial(nvars, t))


def flat_parts():
    return st.dictionaries(st.integers(0, 3), RATIONALS, max_size=3)


def line_fns():
    return st.builds(lambda p, neg, pos: CoeffFn(LINE, p, neg, pos), polys(1, 3),
                     flat_parts(), flat_parts())


def canonical_scalar(c) -> bool:
    """An int iff the value is integral, else a Fraction with denominator
    > 1: never a float, a bool or Fraction(n, 1)."""
    return type(c) is int or (type(c) is F and c.denominator > 1)


def assert_canonical(p):
    """p is what the checked constructor makes of its own terms, in the
    same order: nonzero canonical scalars on int exponent tuples."""
    again = Polynomial(p.nvars, p.terms)
    assert list(again.terms.items()) == list(p.terms.items())
    for e, c in p.terms.items():
        assert canonical_scalar(c) and c != 0
        assert type(e) is tuple and len(e) == p.nvars
        assert all(type(k) is int for k in e)


def assert_fn_canonical(f):
    again = CoeffFn(f.chart, f.poly, f.flat_neg, f.flat_pos)
    assert again == f
    assert list(again.flat_neg.items()) == list(f.flat_neg.items())
    assert list(again.flat_pos.items()) == list(f.flat_pos.items())
    assert_canonical(f.poly)
    assert f.poly.nvars == f.chart.dim
    for part in (f.flat_neg, f.flat_pos):
        assert all(type(k) is int and canonical_scalar(c) and c != 0 for k, c in part.items())


class TestTrustedResults:
    """Every arithmetic result is built by the trusted constructor; it must
    be exactly what the checked one would build, and have the right values."""

    @given(st.data())
    def test_polynomial_results(self, data):
        n = data.draw(st.integers(1, 3))
        p, q = data.draw(polys(n)), data.draw(polys(n))
        c = data.draw(RATIONALS)
        axis = data.draw(st.integers(0, n - 1))
        subs = [data.draw(polys(2)) for _ in range(n)]
        offset = data.draw(st.integers(0, 2))
        pt = data.draw(st.tuples(*[RATIONALS] * n))
        pt2 = data.draw(st.tuples(RATIONALS, RATIONALS))
        results = {
            "+": p + q, "-": p - q, "neg": -p, "cancel": p - p, "*": p * q,
            "scale": p.scale(c), "derive": p.derive(axis), "substitute": p.substitute(subs),
            "embed": p.embed(n + 2, offset), "const": Polynomial.const(n, c),
            "var": Polynomial.var(n, axis),
        }
        for r in results.values():
            assert_canonical(r)
        assert results["cancel"].is_zero
        assert results["+"].eval(pt) == p.eval(pt) + q.eval(pt)
        assert results["-"].eval(pt) == p.eval(pt) - q.eval(pt)
        assert results["*"].eval(pt) == p.eval(pt) * q.eval(pt)
        assert results["scale"].eval(pt) == c * p.eval(pt)
        assert results["substitute"].eval(pt2) == p.eval([s.eval(pt2) for s in subs])
        padded = (1,) * offset + pt + (1,) * (2 - offset)
        assert results["embed"].eval(padded) == p.eval(pt)
        # derive has no value check above: the product rule is one
        assert (p * q).derive(axis) == p.derive(axis) * q + p * q.derive(axis)

    @given(line_fns(), line_fns(), RATIONALS, polys(1, 3), polys(2))
    def test_coeff_fn_results(self, f, g, c, p, inner):
        plane = Chart(2)
        results = [f + g, f - g, f - f, f.scale(c), f.derive(), f.derive().derive(),
                   CoeffFn.const(LINE, c), CoeffFn.var(LINE),
                   CoeffFn(LINE, p).compose([CoeffFn(plane, inner)])]
        if f.is_poly and g.is_poly or f.is_rational_const() or g.is_rational_const():
            results.append(f * g)
        for r in results:
            assert_fn_canonical(r)
        assert (f - f).is_zero
        for side in ("flat_neg", "flat_pos"):
            a, b = getattr(f, side), getattr(g, side)
            want = {k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}
            assert getattr(f + g, side) == {k: v for k, v in want.items() if v}
            assert getattr(f.scale(c), side) == {k: c * v for k, v in a.items() if c}
        t = (F(3, 7),)
        assert (f + g).poly.eval(t) == f.poly.eval(t) + g.poly.eval(t)
        assert f.scale(c).poly.eval(t) == c * f.poly.eval(t)


def loop_product(p, q):
    """p * q by the general double loop, built by the checked constructor."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Polynomial(p.nvars, terms)


def typed_terms(p):
    return [(e, type(c), c) for e, c in p.terms.items()]


# 1, -1 and nonzero rationals; the polynomials below also get coefficients
# k / c, so that some products become integral (2/3 * 3/2)
CONSTANTS = st.one_of(st.just(1), st.just(-1),
                      st.builds(Q, st.integers(-9, 9).filter(bool), st.integers(1, 9)).map(_q))


class TestConstantFactor:
    """A one-term constant factor, on either side, scales the other factor:
    exactly the terms of the double loop, in its order, with canonical
    scalars."""

    @given(st.data())
    def test_matches_the_double_loop(self, data):
        n = data.draw(st.integers(0, 3))
        c = data.draw(CONSTANTS)
        coeffs = st.one_of(RATIONALS, st.integers(-3, 3).map(lambda k: Q(k) / c))
        exps = st.tuples(*[st.integers(0, 2)] * n)
        p = Polynomial(n, data.draw(st.dictionaries(exps, coeffs, max_size=4)))
        k = Polynomial.const(n, c)
        for got, want in ((k * p, loop_product(k, p)), (p * k, loop_product(p, k))):
            assert typed_terms(got) == typed_terms(want)
            assert_canonical(got)

    def test_integral_products_become_ints(self):
        p = Polynomial(1, {(1,): F(3, 2), (0,): F(1, 3)})
        for got in (Polynomial.const(1, F(2, 3)) * p, p * Polynomial.const(1, F(2, 3))):
            assert typed_terms(got) == [((1,), int, 1), ((0,), F, F(2, 9))]

    @given(polys(1, 3), RATIONALS, RATIONALS, CONSTANTS)
    def test_flat_piece_times_a_rational_constant(self, p, c_neg, c_pos, c):
        f = CoeffFn.flat_piece(LINE, p, c_neg, c_pos)
        k = CoeffFn.const(LINE, c)
        for got in (f * k, k * f):
            assert typed_terms(got.poly) == typed_terms(loop_product(p, k.poly))
            assert got == CoeffFn(LINE, loop_product(p, k.poly),
                                  {0: -c_neg * c}, {0: c_pos * c})
            assert_fn_canonical(got)


def generic_at(p, values, const):
    """The generic evaluator as `Polynomial.at` runs it: each term is
    const(c) times each value k times in variable order, and the terms are
    added in dict order."""
    total = const(0)
    for e, c in p.terms.items():
        term = const(c)
        for v, k in zip(values, e):
            for _ in range(k):
                term = term * v
        total = total + term
    return total


def exact_values(data, n, value):
    """n values: drawn by `value`, the negative of an earlier one (so that
    terms cancel), or a constant."""
    out = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["value", "negative", "constant"]))
        if kind == "negative" and out:
            out.append(-data.draw(st.sampled_from(out)))
        elif kind == "constant":
            out.append(data.draw(RATIONALS))
        else:
            out.append(data.draw(value))
    return out


class TestExactFastPaths:
    """`substitute` and the exact `eval` give what the generic evaluator
    gives in their rings: the same keys in the same order, the same values
    and the same scalar types."""

    @given(st.data())
    def test_substitute_matches_the_generic_path(self, data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        values = [v if isinstance(v, Polynomial) else Polynomial.const(m, v)
                  for v in exact_values(data, n, polys(m))]
        p = data.draw(polys(n, 3))
        want = generic_at(p, values, lambda c: Polynomial.const(m, c))
        assert typed_terms(p.substitute(values)) == typed_terms(want)

    def test_a_cancelled_key_comes_back_at_the_end(self):
        y = Polynomial.var(1, 0)
        p = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 5, (0, 0, 1): 1})
        got = p.substitute([y, -y, y])
        assert typed_terms(got) == [((0,), int, 5), ((1,), int, 1)]
        assert typed_terms(got) == typed_terms(
            generic_at(p, [y, -y, y], lambda c: Polynomial.const(1, c)))

    @given(st.data())
    def test_a_shared_images_store_gives_what_a_fresh_one_gives(self, data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        values = [data.draw(polys(m)) for _ in range(n)]
        exps = st.tuples(*[st.integers(0, 5)] * n).filter(lambda e: sum(e) <= 5)
        ps = data.draw(st.lists(st.dictionaries(exps, RATIONALS, max_size=4).map(
            lambda terms: Polynomial(n, terms)), min_size=1, max_size=4))
        images = {}
        for p in ps:
            got = p.substitute(values, images)
            assert list(got.terms.items()) == list(p.substitute(values).terms.items())
            assert typed_terms(got) == typed_terms(p.at(values, lambda c: Polynomial.const(m, c)))
        assert (0,) * n not in images
        # each kept product is the one for its monomial
        for e, image in images.items():
            assert image == Polynomial(n, {e: 1}).at(values, lambda c: Polynomial.const(m, c))

    @given(st.data())
    def test_exact_eval_matches_the_generic_path(self, data):
        n = data.draw(st.integers(1, 3))
        scalars = st.sampled_from([0, 1, -2, 3, F(1, 2), F(-2, 3), F(4, 1)])
        point = tuple(exact_values(data, n, scalars))
        p = data.draw(polys(n, 3))
        got = p.eval(point)
        want = generic_at(p, point, lambda c: c) if p.terms else Q(0)
        assert got == want and type(got) is type(want)

    @given(st.data())
    def test_exact_eval_matches_at_in_the_rationals(self, data):
        n = data.draw(st.integers(1, 3))
        scalars = st.one_of(st.integers(-5, 5), st.fractions(-4, 4, max_denominator=6))
        exps = st.tuples(*[st.integers(0, 3)] * n)
        p = Polynomial(n, data.draw(st.dictionaries(exps, scalars, max_size=5)))
        point = data.draw(st.tuples(*[scalars] * n))
        got = p.eval(point)
        want = p.at(point, lambda c: c) if p.terms else Q(0)
        assert got == want and type(got) is type(want)

    def test_a_fraction_coordinate_that_no_term_raises_gives_an_int(self):
        p = Polynomial(2, {(2, 0): 3, (0, 0): -1})
        got = p.eval((2, F(1, 3)))
        assert got == 11 and type(got) is int
        # an integral Fraction that a term raises makes a Fraction
        got = p.eval((F(2), F(1, 3)))
        assert got == 11 and type(got) is F


def test_no_float_reaches_a_polynomial(monkeypatch):
    """Every coefficient that the lie-rinehart and uea suites put into a
    Polynomial through the trusted constructor is a canonical scalar."""
    raw = Polynomial._raw
    bad = []

    def checked(nvars, terms):
        p = raw(nvars, terms)
        bad.extend(c for c in p.terms.values() if not canonical_scalar(c))
        return p

    monkeypatch.setattr(Polynomial, "_raw", staticmethod(checked))
    for name in ("lie-rinehart", "uea"):
        assert run_suite(name)["pass"], name
    assert not bad


class TestScalars:
    @pytest.mark.parametrize("x, want", [
        (3, 3), (F(6, 2), 3), (F(-4, 1), -4), (True, 1), ("5", 5), ("1/3", F(1, 3)),
        (F(2, 4), F(1, 2)),
    ])
    def test_q_gives_canonical_scalars(self, x, want):
        c = _q(x)
        assert c == want and canonical_scalar(c)

    def test_q_refuses_floats(self):
        with pytest.raises(TypeError):
            _q(0.5)

    def test_integral_sums_become_ints(self):
        half = Polynomial.const(1, F(1, 2))
        c = (half + half).constant_value()
        assert c == 1 and type(c) is int
        f = CoeffFn(LINE, Polynomial(1, {}), {1: F(1, 2)}, {})
        assert type((f + f).flat_neg[1]) is int


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
POINTS = st.lists(RATIONALS, min_size=1, max_size=5)


@st.composite
def regions(draw):
    """A union of 1-3 open intervals with rational or unbounded ends."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = sorted(draw(st.lists(RATIONALS, min_size=2, max_size=2, unique=True)))
        parts.append(Region.interval(None if draw(st.booleans()) else lo,
                                     None if draw(st.booleans()) else hi))
    return Region.union(*parts)


class TestValues:
    """Region, Chart and the other small value classes behave as the frozen
    dataclasses they replace: equal by class and fields, hashed and shown
    by their fields, immutable, and copied and pickled whole."""

    @pytest.mark.parametrize("value", [
        Chart(1, "M"), Chart.point(), Region.interval(0, F(1, 2)), AffineMap.of(2, 1),
        GermArrow("shift", (F(1),)), Stratum("interval", hi=1), Stratum("point", point=F(1, 3))])
    def test_fields(self, value):
        fields = tuple(getattr(value, name) for name in value.__slots__)
        assert hash(value) == hash(fields)
        assert repr(value) == f"{type(value).__qualname__}(" + ", ".join(
            f"{name}={field!r}" for name, field in zip(value.__slots__, fields)) + ")"
        assert value == type(value)(*fields) and value != fields
        for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert other == value and type(other) is type(value)
        with pytest.raises(AttributeError):
            setattr(value, value.__slots__[0], None)
        with pytest.raises(AttributeError):
            delattr(value, value.__slots__[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_checks(self):
        assert Chart(2) == Chart(2, "chart") != Chart(2, "G")
        assert Chart.line("M") != Chart.point("M")
        with pytest.raises(ValueError, match="dim must be >= 0"):
            Chart(-1)
        with pytest.raises(TypeError):
            Region()
        with pytest.raises(TypeError):
            AffineMap(1, 2, 3)


class TestRegion:
    def test_interval_contains(self):
        r = Region.interval(0, 1)
        assert r.contains(F(1, 2))
        assert not r.contains(2)

    def test_union_intersect(self):
        r = Region.union(Region.interval(0, 1), Region.interval(2, 3))
        assert r.contains(F(5, 2)) and not r.contains(F(3, 2))
        s = r.intersect(Region.interval(F(1, 2), F(5, 2)))
        assert s.contains(F(3, 4)) and not s.contains(F(1, 4))

    def test_affine_image(self):
        r = Region.interval(0, 1).affine_image(2, 1)
        assert r.contains(F(3, 2)) and not r.contains(F(1, 2))

    @given(regions(), regions(), POINTS)
    def test_intersect_is_the_and_of_memberships(self, r, s, points):
        both = r.intersect(s)
        for x in points:
            assert both.contains(x) == (r.contains(x) and s.contains(x))

    @given(regions(), RATIONALS.filter(bool), RATIONALS, POINTS)
    def test_affine_image_contains_exactly_the_images(self, r, p, q, points):
        image = r.affine_image(p, q)
        for x in points:
            assert image.contains(p * x + q) == r.contains(x)

    @given(regions())
    def test_json_round_trip(self, r):
        # the document of a region that covers the line is "R", read back
        # as the whole line
        back = _region_from_json(_region_to_json(r))
        assert back == (Region.whole() if r.is_whole else r)


class TestFlat:
    def test_phi_value(self):
        phi = CoeffFn.phi(LINE)
        assert phi.eval((1.0,)) == pytest.approx(math.exp(-1.0))
        assert phi.eval((-1.0,)) == pytest.approx(-math.exp(-1.0))
        assert phi.eval((F(0),)) == 0

    @pytest.mark.parametrize("f, t", [
        (CoeffFn.phi(LINE), -Q(10) ** 400),  # the point
        (CoeffFn.flat_piece(LINE, X, 1, Q(10) ** 400), Q(1)),  # a flat coefficient
        (CoeffFn.flat_piece(LINE, X.scale(Q(10) ** 400), 1, 1), Q(1)),  # the polynomial part
    ])
    def test_float_value_beyond_float_range_is_a_domain_error(self, f, t):
        with pytest.raises(DomainError, match="beyond float range"):
            f.eval((t,))

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
        # 3^-1 - 81 * 3^-5 is 0 exactly, but not in floats
        h = CoeffFn(LINE, Polynomial(1, {}), {}, {1: 1, 5: -81})
        assert h.value_is_zero_exact(3) and h.value_is_zero_exact(F(3))

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
