"""Left-invariant differential operators and t-transversal distributions.

Ω maps an enveloping-algebra element to the left-invariant t-fiber-tangential
differential operator it generates; a transversal distribution is a finite
sum of terms [[E, Ω(u)]] acting on test functions F by

    [[E, D]](F)(x) = D(F)(beta_E(x)),

kept as a BisectionSum (see conv) keyed by the bisection ids.

The *-product follows Prop-style term rewriting
    [[E', D']] * [[E, D]] = [[E'.E, Adbar_{E^-1}(D') D]],
and dist_mul_defcheck evaluates the *defining* double formula
    T'(g -> T|_{s(g)}(F o L_g))(x)
independently via doubled-variable polynomial manipulation, as an oracle.
term_products yields the rewritten terms of a sweep over term pairs (dist_mul
is one sweep); E^-1 is the one kept on E (groupoid.bisection_inv), Adbar
is computed once per (bid, D') and Adbar(D') D once per (right term, D'),
and both are dropped when the sweep ends.  The first
stage of the defining formula, which depends on (F, E, D) alone, is kept on
E (see Bisection).

At rank 0 a test function F is read through model.test_value(F, g).  The
etale action groupoid is the one rank-0 kind: F is a table {gamma: f} read
with .get, and Ω(u) multiplies by u's coefficient along s: [[E, f]](F)(x) =
f(s(g)) F(g) at g = beta_E(x), and the defining formula is
f2(s(g2)) f1(s(g1)) F(g2 g1) with g1 = beta_{E1}(s(g2)).

Functions on the arrow space appearing along the way are kept in the form
sum (f_i o s) * P_i with f_i a coefficient function on the base and P_i a
polynomial on the arrow chart; this block is closed under the frame fields.
Those are the fields kept in the structure store (see GroupoidModel), made
from the frame stored on the model; lie_rinehart.algebroid_of_groupoid
derives them independently when the model is built.

Ω(u) is left-invariant and linear in F, so Ω(sum f_a X^a)(F) is
sum (f_a o s) * Ω(X^a)(F), and Ω(X^a)(F) is sum_m c_m Ω(X^a)(x^m) over the
terms c_m x^m of F.  The polynomial Ω(X^a)(x^m) is made by the frame walk
(ArrowFn.lift, then apply_frame along the word of X^a) once per model
structure, and kept in the model's structure store, which every model of
the structure shares (see GroupoidModel); omega_apply reads it.

Both branches of the commuting-square check take a list of test functions
and return one gap per F.  The exact one computes U(Ad_E)u once per (E, u)
and pulls each coefficient of U(Ad_E)u and of u back to the arrow chart
once per call; each F then costs one Ω(X^a)(F) per term, read from the
structure store, and its pullbacks along R_E^{-1}, which multiply out the
components of R_E^{-1} once per monomial and bisection: the products are
kept in an images store that E keeps with R_E^{-1} (see
Polynomial.substitute).  The series one, for flat kinks, builds U(Ad_E)u's
operator jets and the values f(s0) of u's coefficients once per
(E, u, arrow).  Both sides read those values, since side A's
(f o tau^{-1})(x0) is f(s0).
"""

from __future__ import annotations

from .adjoint import ad_uea
from .coeffs import CoeffFn, Polynomial, Q
from .conv import BisectionSum
from .errors import ChartMismatch, DomainError, UnsupportedComposition
from .groupoid import Bisection, bisection_inv
from .uea import UEAElement, act, pbw_word, uea_mul


# ---------------------------------------------------------------------------
# Functions on the arrow space:  sum (f o s)(h-block) * P
# ---------------------------------------------------------------------------


class ArrowFn:
    """sum_i (f_i o s)(h) * P_i over a variable space that contains the
    arrow coordinates of h as a contiguous block at h_offset."""

    __slots__ = ("model", "nvars", "h_offset", "terms")

    def __init__(self, model, nvars, h_offset, terms):
        self.model = model
        self.nvars = nvars
        self.h_offset = h_offset
        self.terms = [(c, P) for c, P in terms if not (c.is_zero or P.is_zero)]

    @staticmethod
    def lift(model, P: Polynomial) -> "ArrowFn":
        if P.nvars != model.arrow_chart.dim:
            raise ValueError("polynomial variable count mismatch")
        one = CoeffFn.const(model.base, 1)
        return ArrowFn(model, P.nvars, 0, [(one, P)])

    def apply_frame(self, i: int) -> "ArrowFn":
        """Apply the left-invariant frame field X-bar_i in the h-block."""
        fields = _frame_terms(self.model, i, self.nvars, self.h_offset)
        new = []
        for c, P in self.terms:
            for d, pd, dsms in fields:
                dP = P.derive(self.h_offset + d)
                if not dP.is_zero:
                    new.append((c, pd * dP))
                for m, dsm in dsms:
                    cm = c.derive(m)
                    if not cm.is_zero:
                        new.append((cm, pd * dsm * P))
        return ArrowFn(self.model, self.nvars, self.h_offset, new)

    def apply_uea(self, u: UEAElement) -> "ArrowFn":
        terms = [(f * c, P) for f, acc in act(lambda i, y: y.apply_frame(i), u, self)
                 for c, P in acc.terms]
        return ArrowFn(self.model, self.nvars, self.h_offset, terms)

    def substitute(self, new_nvars, subs, move) -> "ArrowFn":
        """Substitute all variables (subs: polynomials in the new space);
        move maps every base coefficient on the way (subs changes the
        source point, so c o s must become move(c) o s)."""
        terms = [(move(c), P.substitute(subs)) for c, P in self.terms]
        # the h-block is consumed; treat the result as plain parameters
        return ArrowFn(self.model, new_nvars, 0, terms)

    def eval_arrow(self, g, total=0):
        """total plus the value at an arrow (h-block = the whole variable
        space); summed term by term, so float sums keep their order."""
        x = self.model.s_of(g)
        for c, P in self.terms:
            total = total + c.eval(x) * P.eval(g)
        return total


def _frame_terms(model, i, nvars, h_offset):
    """The frame field X-bar_i in an h-block at h_offset of nvars variables:
    [(d, frame[i][d], [(m, d/dh_d of s_m), ...]), ...] embedded, the zero
    entries left out.  Derived once per (model structure, i, nvars,
    h_offset)."""

    def compute():
        fields = []
        for d in range(model.arrow_chart.dim):
            pd = model.frame[i][d].embed(nvars, h_offset)
            if pd.is_zero:
                continue
            dsms = []
            for m in range(model.base.dim):
                dsm = model.s_map[m].derive(d).embed(nvars, h_offset)
                if not dsm.is_zero:
                    dsms.append((m, dsm))
            fields.append((d, pd, dsms))
        return fields

    return model.structure_store.derive_once(("frame_field", i, nvars, h_offset), compute)


def _omega_walk(model, exp, mono) -> Polynomial:
    """Ω(X^exp)(x^mono) on the arrow chart, by the frame walk: the lift of
    x^mono, then X-bar_i for each i of the word of X^exp, last first.  A
    lift's coefficient is the constant 1, which no frame field derives, so
    the walk's polynomials are summed as they stand."""
    n = model.arrow_chart.dim
    acc = ArrowFn.lift(model, Polynomial._raw(n, {mono: 1}))
    for i in reversed(pbw_word(exp)):
        acc = acc.apply_frame(i)
    return sum((P for _, P in acc.terms), Polynomial(n, {}))


def _omega_poly(model, exp, F: Polynomial) -> Polynomial:
    """Ω(X^exp)(F) = sum_m c_m Ω(X^exp)(x^m) over the terms c_m x^m of F, in
    F's order; each Ω(X^exp)(x^m) is walked once per model structure."""
    store = model.structure_store
    terms = {}
    for mono, c in F.terms.items():
        entry = store.derive_once(("omega", exp, mono), lambda: _omega_walk(model, exp, mono))
        for e, k in entry.terms.items():
            terms[e] = terms.get(e, 0) + c * k
    return Polynomial._raw(F.nvars, terms)


def omega_apply(model, u: UEAElement, F: Polynomial) -> ArrowFn:
    """Ω(u) applied to a test function F (a polynomial on the arrow chart):
    one term (f_a, Ω(X^a)(F)) per term f_a X^a of u."""
    if F.nvars != model.arrow_chart.dim:
        raise ValueError("polynomial variable count mismatch")
    return ArrowFn(model, F.nvars, 0,
                   [(f, _omega_poly(model, exp, F)) for exp, f in u.terms.items()])


# ---------------------------------------------------------------------------
# Transversal distributions
# ---------------------------------------------------------------------------


class TransvDist(BisectionSum):
    """Finite formal sum of terms [[E, Ω(u)]], keyed by bisection id;
    phi.dist_is_zero tests zero as a distribution."""

    __slots__ = ()
    _TERM = "[[{E}, {u}]]"

    def __repr__(self):
        return f"TransvDist({self.text()})"


def dist_eval_at(T: TransvDist, F, x):
    """Numeric (or exact, when the data is rational) value of T(F)(x)."""
    model = T.model
    total = 0
    try:
        for bid, u in T.terms.items():
            E = model.registry[bid]
            if E.contains_target(x):
                # [[E, D]](F)(x) = D(F)(beta_E(x))
                total = _omega_value(model, u, F, E.beta(x), total)
    except OverflowError:  # a float value met a rational beyond float range
        raise DomainError("a value beyond float range") from None
    return total


def _omega_value(model, u: UEAElement, F, g, total):
    """total plus Ω(u)(F) at the arrow g.  At rank 0, Ω(u) multiplies by
    u's coefficient along s."""
    if not model.algebroid.rank:
        return total + u.degree0().eval(model.s_of(g)) * model.test_value(F, g)
    return omega_apply(model, u, F).eval_arrow(g, total)


def term_products(model, left, right):
    """(bid of E'.E, Adbar_{E^-1}(u') u) for each term (bid', u') of left
    and each term (bid, u) of right, left-major: the terms of
    [[E', u']] * [[E, u]].  Adbar = ad_uea(E^-1, u') is computed once per
    (bid, value of u'), and the product Adbar u once per (right term, value
    of u'), since a value of u' may come again on another left bisection.
    Both are kept for one sweep only: keeping every image of ad_uea, or
    every product, costs more memory than computing it again costs time."""
    right = list(right)
    adbars, products = {}, {}
    for bid2, u2 in left:
        E2 = model.registry[bid2]
        for i, (bid1, u1) in enumerate(right):
            E1 = model.registry[bid1]
            v = products.get((i, u2))
            if v is None:
                adbar = adbars.get((bid1, u2))
                if adbar is None:
                    adbar = adbars[bid1, u2] = ad_uea(bisection_inv(E1), u2)
                v = products[i, u2] = uea_mul(adbar, u1)
            yield model.registered_product(E2, E1).bid, v


def dist_mul(T2: TransvDist, T1: TransvDist) -> TransvDist:
    """[[E', u']] * [[E, u]] = [[E'.E, Adbar_{E^-1}(u') u]] termwise."""
    if T2.model is not T1.model:
        raise ChartMismatch("distributions over different models")
    model = T2.model
    return TransvDist(model, term_products(model, T2.terms.items(), T1.terms.items()))


# ---------------------------------------------------------------------------
# The defining double formula, evaluated independently
# ---------------------------------------------------------------------------


def _defcheck_term_pair(model, E2, u2, E1, u1, F, x0):
    """T'(g -> T|_{s(g)}(F o L_g))(x0) for single terms T' = [[E2, u2]],
    T = [[E1, u1]], via doubled-variable symbolic composition."""
    # the product is evaluated at g := beta_{E2}(x0), and T1 at s(g), so
    # both factors must reach their points: x0 in t(E2) and s(g) in t(E1)
    if not E2.contains_target(x0):
        return Q(0)
    g = E2.beta(x0)
    if not E1.contains_target(model.s_of(g)):
        return Q(0)
    if not model.algebroid.rank:
        # f2(s(g2)) f1(s(g1)) F(g2 g1) with g2 = g (see the module docstring)
        g1 = E1.beta(model.s_of(g))
        return (u2.degree0().eval(model.s_of(g)) * u1.degree0().eval(model.s_of(g1))
                * model.test_value(F, model.mult_arrow(g, g1)))

    def stage1():
        # H(g, h) = F(mult(g, h)) on doubled variables (g block first)
        n = model.arrow_chart.dim
        H = F.substitute(model.mult_map)
        af = ArrowFn(model, 2 * n, n, [(CoeffFn.const(model.base, 1), H)])
        af = af.apply_uea(u1)
        # substitute h := beta_{E1}(s(g)); the g block survives, and
        # c o s(h) = c o tau_1^{-1} o s(g)
        gvars = [Polynomial.var(n, k) for k in range(n)]
        h_vals = [model.along_source(p) for p in model.beta_polys(E1)]
        return af.substitute(n, gvars + h_vals, E1.to_target)

    # stage 1 depends on (F, E1, u1) alone, so it is derived once per triple
    inner = E1.derive_once(("defcheck_stage1", F, u1), stage1)
    # stage 2: apply the outer operator in the g block and evaluate at g
    return inner.apply_uea(u2).eval_arrow(g)


def dist_mul_defcheck(T2: TransvDist, T1: TransvDist, F, x):
    """Evaluate the defining *-product formula at x, bilinearly over terms."""
    model = T2.model
    total = Q(0)
    for bid2, u2 in T2.terms.items():
        for bid1, u1 in T1.terms.items():
            total = total + _defcheck_term_pair(
                model, model.registry[bid2], u2, model.registry[bid1], u1, F, x
            )
    return total


# ---------------------------------------------------------------------------
# Adbar with the commuting-square verification
# ---------------------------------------------------------------------------


def commuting_square_gap(model, E: Bisection, u: UEAElement, Fs):
    """Ω(U(Ad_E)u)(F) o R_E^{-1}  minus  Ω(u)(F o R_E^{-1}), exactly, for
    each test function F in Fs: one gap per F, in order.

    Both sides of the section-4.1 square are composed with R_E^{-1} so that
    only the forward map tau enters; for the representable (polynomial)
    cases the gap is returned as a polynomial on the arrow chart:

        sum_a (g_a o tau o s) * (Ω(X^a)(F) o R_E^{-1})
          - sum_a (f_a o s) * Ω(X^a)(F o R_E^{-1})

    over the terms g_a X^a of U(Ad_E)u and f_a X^a of u.  U(Ad_E)u and the
    coefficients, pulled back to the arrow chart, do not depend on F, so
    they are computed once for all of Fs.
    """
    v = ad_uea(E, u)
    if not model.algebroid.rank:
        # rank 0: u is a coefficient; the square reduces to a base identity
        gap = E.to_source(v.degree0()) - u.degree0()
        return [gap] * len(Fs)
    rinv, images = _right_translation_inv(E)
    # s o R_E^{-1} = tau o s, so (c o s) o R_E^{-1} = (c o tau) o s
    lhs_terms = [(exp, _along_source(model, E.to_source(g))) for exp, g in v.terms.items()]
    rhs_terms = [(exp, _along_source(model, f)) for exp, f in u.terms.items()]
    zero = Polynomial(model.arrow_chart.dim, {})
    gaps = []
    for F in Fs:
        F_rinv = F.substitute(rinv, images)
        gap = zero
        for exp, c in lhs_terms:
            gap = gap + c * _omega_poly(model, exp, F).substitute(rinv, images)
        for exp, c in rhs_terms:
            gap = gap - c * _omega_poly(model, exp, F_rinv)
        gaps.append(gap)
    return gaps


def _along_source(model, c: CoeffFn) -> Polynomial:
    """c o s as a polynomial on the arrow chart."""
    if not c.is_poly:
        raise UnsupportedComposition("flat coefficient has no polynomial form")
    return model.along_source(c.poly)


def _right_translation_inv(E: Bisection):
    """(R_E^{-1}, images): R_E^{-1}(g) = g . alpha_E(s(g))^{-1} as
    polynomials on the arrow chart, and the images store of pulling back
    along it (see Polynomial.substitute), derived once per bisection.  The
    two are one entry, so a store is never read with another map."""
    model = E.model

    def compute():
        n = model.arrow_chart.dim
        gvars = [Polynomial.var(n, k) for k in range(n)]
        alpha_s = [model.along_source(p) for p in model.alpha_polys(E)]
        alpha_inv = [q.substitute(alpha_s) for q in model.inv_map]
        return [p.substitute(gvars + alpha_inv) for p in model.mult_map], {}

    return E.derive_once("right_translation_inv", compute)


# ---------------------------------------------------------------------------
# Truncated series (jets): numeric commuting-square check for flat bisections
# ---------------------------------------------------------------------------


JET_ORDER = 8


class Jet:
    """Truncated Taylor series sum a_k eps^k of fixed order."""

    __slots__ = ("a",)

    def __init__(self, coeffs):
        a = list(coeffs)[:JET_ORDER]
        self.a = a + [0.0] * (JET_ORDER - len(a))

    @staticmethod
    def const(c):
        return Jet([float(c)])

    @staticmethod
    def variable(x0):
        return Jet([float(x0), 1.0])

    def __add__(self, other):
        return Jet([x + y for x, y in zip(self.a, other.a)])

    def __sub__(self, other):
        return Jet([x - y for x, y in zip(self.a, other.a)])

    def __mul__(self, other):
        out = [0.0] * JET_ORDER
        for i, x in enumerate(self.a):
            if x == 0.0:
                continue
            for j, y in enumerate(other.a):
                if i + j < JET_ORDER and y != 0.0:
                    out[i + j] += x * y
        return Jet(out)

    def scale(self, c):
        return Jet([float(c) * x for x in self.a])

    def shift(self) -> "Jet":
        """The derivative series: d/deps."""
        return Jet([(k + 1) * self.a[k + 1] for k in range(JET_ORDER - 1)])

    def value(self):
        return self.a[0]


def _derivative_tower(f: CoeffFn, order: int):
    """[f, f', ..., f^(order-1)] of a 1-D coefficient function, exactly."""
    tower = [f]
    while len(tower) < order:
        tower.append(tower[-1].derive(0))
    return tower


def _jet_at(tower, x0: float) -> Jet:
    """The jet at x0 of the function whose derivative tower is given."""
    coeffs = []
    fact = 1.0
    for k, g in enumerate(tower[:JET_ORDER]):
        coeffs.append(float(g.eval((x0,))) / fact)
        fact *= k + 1
    return Jet(coeffs)


def jet_inverse(tj: Jet, s0: float) -> Jet:
    """Jet at x0 = tj.value() of the compositional inverse of t -> tau(t),
    given the jet of tau at s0 (Newton iteration on truncated series)."""
    x0 = tj.value()
    # seek sigma with tau(sigma(x)) = x; sigma(x0) = s0
    sigma = Jet([s0, 1.0 / tj.a[1]])
    ident = Jet.variable(x0)
    for _ in range(JET_ORDER):
        tau_comp = _jet_compose(tj, sigma, s0)
        dtau = _jet_compose(tj.shift(), sigma, s0)
        err = tau_comp - ident
        sigma = sigma - err * _jet_reciprocal(dtau)
    return sigma


def _jet_compose(outer: Jet, inner: Jet, inner_center) -> Jet:
    """outer(inner(eps)) where outer is a jet in (t - inner_center)."""
    dev = Jet([inner.a[0] - float(inner_center)] + inner.a[1:])
    total = Jet.const(0)
    power = Jet.const(1)
    for k in range(JET_ORDER):
        total = total + power.scale(outer.a[k])
        power = power * dev
    return total


def _jet_reciprocal(j: Jet) -> Jet:
    inv = Jet.const(1.0 / j.a[0])
    two = Jet.const(2.0)
    for _ in range(JET_ORDER):
        inv = inv * (two - j * inv)
    return inv


def _flat_series_data(E: Bisection, x0: float):
    """(s0, jet of tau at s0, jet of w = tau' o tau^{-1} at x0) with
    s0 = tau^{-1}(x0).  They depend on E and x0 alone, so they are computed
    once per (E, x0), from one tower of tau's derivatives."""

    def compute():
        tower = _derivative_tower(E.tau_coeff(), JET_ORDER + 1)
        s0 = float(E.tau_inv_apply(x0))
        tau_jet = _jet_at(tower, s0)
        w = _jet_compose(_jet_at(tower[1:], s0), jet_inverse(tau_jet, s0), s0)
        return s0, tau_jet, w

    return E.derive_once(("flat_series", x0), compute)


def commuting_square_gap_numeric(model, E: Bisection, u: UEAElement, Fs, g):
    """|LHS - RHS| of the commuting square at the arrow g for each test
    function F in Fs: one gap per F, in order.  For a bisection whose tau is
    a flat kink (rank-1 case, series arithmetic); ValueError on any other.

    Side A's operator jets and side B's values of u's coefficients depend
    on (E, u, g) alone, so they are built once for all of Fs."""
    if not E.is_flat:
        raise ValueError(f"series check is for flat bisections, not {E.bid}")
    y0, x0 = float(g[0]), float(g[1])
    s0, tau_jet, w = _flat_series_data(E, x0)
    # ---- side B: Ω(u)(F o R_E^{-1}) at R_E(g) = (y0, s0) -------------------
    # H(y, x) = F(y, tau(x)); D^j H via the jet of x -> F(y0, tau(x)) at s0.
    side_b = [(exp[0], float(f.eval((s0,)))) for exp, f in u.terms.items()]
    # ---- side A: Ω(U(Ad_E)u)(F) at (y0, x0) -------------------------------
    # U(Ad_E)(f * D^j) = (f o tau^{-1}) * (w D)^j with w = tau' o tau^{-1}:
    # with (wD)^j = sum c_k D^k, side A is sum ((f o tau^{-1}) c_k)(x0) D^k F,
    # and side_a keeps the pairs (k, ((f o tau^{-1}) c_k)(x0)) in sum order;
    # (f o tau^{-1})(x0) is f(s0), side B's value.
    side_a = []
    for j, fs0 in side_b:
        # operator coefficients c_k with (wD)^j = sum c_k D^k, as jets
        coeffs = {0: Jet.const(1)}
        for _ in range(j):
            new = {}
            for k, c in coeffs.items():
                # (c D^k)(w D g) : c * sum_m C(k,m) w^(m) D^(k-m+1)
                wm = w
                binom = 1
                for m in range(k + 1):
                    key = k - m + 1
                    term = (c * wm).scale(binom)
                    new[key] = new.get(key, Jet.const(0)) + term
                    wm = wm.shift()
                    binom = binom * (k - m) // (m + 1)
            coeffs = new
        # a product's value reads only its factors' values, so f o tau^{-1}
        # enters as the constant jet f(s0)
        fx = Jet.const(fs0)
        side_a.extend((k, (fx * c).value()) for k, c in coeffs.items())
    fact = [1.0]
    for k in range(1, JET_ORDER):
        fact.append(fact[-1] * k)
    gaps = []
    for F in Fs:
        dF = [F]   # dF[k] = D^k F
        a = 0.0
        for k, ck in side_a:
            while len(dF) <= k:
                dF.append(dF[-1].derive(1))
            a += ck * float(dF[k].eval((y0, x0)))
        H_jet = F.at([Jet.const(y0), tau_jet], Jet.const)
        b = 0.0
        for j, fs0 in side_b:
            b += fs0 * H_jet.a[j] * fact[j]
        gaps.append(abs(a - b))
    return gaps
