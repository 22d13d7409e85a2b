"""The convolution bialgebra of a groupoid model.

A ConvElement is a finite formal sum of sections <u, E#> over the bisection
registry, with u an enveloping-algebra element over t(E).  The product
twists by the adjoint action of the leading bisection,

    <u', E'#> . <u, E#> = <u' . U(Ad_{E'})(u), (E'.E)#>,

the coproduct and counit are applied termwise through U(g), and the
degree-0 part over an etale model carries the antipode
S<f, E> = <f o tau_E, E^{-1}>.

Canonical form merges terms with syntactically identical bisection ids
(ids are content-derived, so products of registered bisections merge);
semantic equality is germ-pointwise and uses the stratification machinery.
"""

from __future__ import annotations

from .adjoint import ad_uea
from .coeffs import CoeffFn
from .errors import ChartMismatch, NotEtaleElement
from .groupoid import (
    Bisection,
    GermArrow,
    bisection_germ_eq,
    bisection_inv,
    bisection_mul,
    unit_bisection,
)
from .uea import (
    GermUEA,
    TensorElement,
    UEAElement,
    coproduct,
    counit,
    uea_germ,
    uea_mul,
)


class ConvElement:
    __slots__ = ("model", "terms")

    def __init__(self, model, terms=None):
        self.model = model
        clean = {}
        for bid, u in dict(terms or {}).items():
            if bid not in model.registry:
                raise KeyError(f"unregistered bisection {bid!r}")
            if not u.is_zero:
                clean[bid] = clean[bid] + u if bid in clean else u
        self.terms = {bid: u for bid, u in clean.items() if not u.is_zero}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def single(model, E: Bisection, u: UEAElement) -> "ConvElement":
        model.register(E)
        return ConvElement(model, {E.bid: u})

    @staticmethod
    def zero(model) -> "ConvElement":
        return ConvElement(model, {})

    @staticmethod
    def from_coeff(model, f: CoeffFn) -> "ConvElement":
        """iota_R: a base function supported on the unit bisection."""
        A = model.algebroid
        return ConvElement.single(model, unit_bisection(model), UEAElement.from_coeff(A, f))

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "ConvElement") -> "ConvElement":
        terms = dict(self.terms)
        for bid, u in other.terms.items():
            terms[bid] = terms[bid] + u if bid in terms else u
        return ConvElement(self.model, terms)

    def __neg__(self):
        return ConvElement(self.model, {bid: -u for bid, u in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "ConvElement":
        return ConvElement(self.model, {bid: u.scale(c) for bid, u in self.terms.items()})

    @property
    def is_zero_canonical(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        """Canonical-form equality; use conv_eq for germ-pointwise equality."""
        return (
            isinstance(other, ConvElement)
            and self.model is other.model
            and self.terms == other.terms
        )

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = {bid: alias for alias, bid in self.model.aliases.items()}
        return " + ".join(
            f"<{u.text()} | {names.get(bid, bid)}>" for bid, u in sorted(self.terms.items())
        )

    def __repr__(self):
        return f"Conv({self.text()})"


# ---------------------------------------------------------------------------
# Section semantics and product
# ---------------------------------------------------------------------------


def eval_germ(a: ConvElement, e: GermArrow) -> GermUEA:
    """a(e): the sum of u's over terms whose bisection has germ e."""
    model = a.model
    Ee = e.bisection(model)
    total = UEAElement.zero(model.algebroid)
    for bid, u in a.terms.items():
        E = model.registry[bid]
        if not E.contains_source(e.source):
            continue
        if bisection_germ_eq(E, Ee, e.source):
            total = total + u
    tpoint = model.t_of(Ee.alpha(e.source))
    return uea_germ(total, tpoint)


def conv_mul(a2: ConvElement, a1: ConvElement) -> ConvElement:
    if a2.model is not a1.model:
        raise ChartMismatch("elements of different models")
    model = a2.model
    out = {}
    for bid2, u2 in a2.terms.items():
        E2 = model.registry[bid2]
        for bid1, u1 in a1.terms.items():
            E1 = model.registry[bid1]
            v = uea_mul(u2, ad_uea(E2, u1))
            prod = model.register(bisection_mul(E2, E1))
            out[prod.bid] = out[prod.bid] + v if prod.bid in out else v
    return ConvElement(model, out)


def conv_counit(a: ConvElement) -> CoeffFn:
    """epsilon(a) = sum of epsilon(u_i), a function on the base."""
    total = CoeffFn.const(a.model.algebroid.chart, 0)
    for u in a.terms.values():
        total = total + counit(u)
    return total


# ---------------------------------------------------------------------------
# Coproduct: tensors of ConvElements
# ---------------------------------------------------------------------------


class ConvTensor:
    """Finite sum of <.,E> tensor <.,F> terms; per bisection pair the
    enveloping data is a TensorElement with coefficients on the base."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms=None):
        self.model = model
        clean = {}
        for key, t in dict(terms or {}).items():
            if not t.is_zero:
                clean[key] = clean[key] + t if key in clean else t
        self.terms = {k: t for k, t in clean.items() if not t.is_zero}

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, ConvTensor)
            and self.model is other.model
            and self.terms == other.terms
        )

    def __add__(self, other):
        terms = dict(self.terms)
        for k, t in other.terms.items():
            terms[k] = terms[k] + t if k in terms else t
        return ConvTensor(self.model, terms)

    def __neg__(self):
        return ConvTensor(self.model, {k: -t for k, t in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def swap(self) -> "ConvTensor":
        return ConvTensor(self.model, {(b, a): t.swap() for (a, b), t in self.terms.items()})

    def pure_terms(self):
        """(E_left_id, u, E_right_id, v) quadruples with coefficients on u."""
        out = []
        for (bl, br), t in self.terms.items():
            for u, v in t.pure_tensors():
                out.append((bl, u, br, v))
        return out

    def mul(self, other: "ConvTensor") -> "ConvTensor":
        model = self.model
        out = ConvTensor(model, {})
        for bl1, u1, br1, v1 in self.pure_terms():
            for bl2, u2, br2, v2 in other.pure_terms():
                left = conv_mul(
                    ConvElement(model, {bl1: u1}), ConvElement(model, {bl2: u2})
                )
                right = conv_mul(
                    ConvElement(model, {br1: v1}), ConvElement(model, {br2: v2})
                )
                for bidl, ul in left.terms.items():
                    for bidr, vr in right.terms.items():
                        out = out + ConvTensor(
                            model, {(bidl, bidr): TensorElement.of(ul, vr)}
                        )
        return out

    def mu(self) -> ConvElement:
        """Multiply the two slots together."""
        model = self.model
        out = ConvElement.zero(model)
        for bl, u, br, v in self.pure_terms():
            out = out + conv_mul(ConvElement(model, {bl: u}), ConvElement(model, {br: v}))
        return out

    def apply_counit_left(self) -> ConvElement:
        """(epsilon tensor id): iota(epsilon(u)) . <v, F> summed."""
        model = self.model
        out = ConvElement.zero(model)
        for bl, u, br, v in self.pure_terms():
            eps = counit(u)
            if eps.is_zero:
                continue
            out = out + conv_mul(ConvElement.from_coeff(model, eps), ConvElement(model, {br: v}))
        return out

    def apply_counit_right(self) -> ConvElement:
        model = self.model
        out = ConvElement.zero(model)
        for bl, u, br, v in self.pure_terms():
            eps = counit(v)
            if eps.is_zero:
                continue
            out = out + conv_mul(ConvElement(model, {bl: u}), ConvElement.from_coeff(model, eps))
        return out

    def act_right_left(self, r: CoeffFn) -> "ConvTensor":
        """The right R-action on the left tensor factor."""
        model = self.model
        rr = ConvElement.from_coeff(model, r)
        out = ConvTensor(model, {})
        for bl, u, br, v in self.pure_terms():
            acted = conv_mul(ConvElement(model, {bl: u}), rr)
            for bid, w in acted.terms.items():
                out = out + ConvTensor(model, {(bid, br): TensorElement.of(w, v)})
        return out

    def act_right_right(self, r: CoeffFn) -> "ConvTensor":
        """The right R-action on the right tensor factor."""
        model = self.model
        rr = ConvElement.from_coeff(model, r)
        out = ConvTensor(model, {})
        for bl, u, br, v in self.pure_terms():
            acted = conv_mul(ConvElement(model, {br: v}), rr)
            for bid, w in acted.terms.items():
                out = out + ConvTensor(model, {(bl, bid): TensorElement.of(u, w)})
        return out

    def apply_antipode_left(self) -> "ConvTensor":
        """(S tensor id), defined on tensors with degree-0 left slots."""
        model = self.model
        out = ConvTensor(model, {})
        for bl, u, br, v in self.pure_terms():
            s = antipode_etale(ConvElement(model, {bl: u}))
            for bid, w in s.terms.items():
                out = out + ConvTensor(model, {(bid, br): TensorElement.of(w, v)})
        return out


def conv_coproduct(a: ConvElement) -> ConvTensor:
    return ConvTensor(a.model, {(bid, bid): coproduct(u) for bid, u in a.terms.items()})


# ---------------------------------------------------------------------------
# Antipode on the etale subalgebra
# ---------------------------------------------------------------------------


def antipode_etale(b: ConvElement) -> ConvElement:
    """S<f, E> = <f o tau_E, E^{-1}> termwise; degree-0 terms only."""
    model = b.model
    out = {}
    for bid, u in b.terms.items():
        if u.degree() > 0:
            raise NotEtaleElement("antipode needs degree-0 terms")
        E = model.registry[bid]
        f = u.degree0()
        if model.kind == "group":
            fs = f
        else:
            fs = f.compose([E.tau_coeff()])
        Einv = model.register(bisection_inv(E))
        w = UEAElement.from_coeff(model.algebroid, fs)
        out[Einv.bid] = out[Einv.bid] + w if Einv.bid in out else w
    return ConvElement(model, out)


# ---------------------------------------------------------------------------
# Germ-pointwise equality
# ---------------------------------------------------------------------------


def conv_is_zero(a: ConvElement) -> bool:
    """Zero germ-pointwise: every germ-class sum vanishes along every
    stratum of the element's bisections."""
    if not a.terms:
        return True
    from .phi import element_strata

    model = a.model
    for stratum, classes in element_strata(a):
        for cls in classes:
            total = UEAElement.zero(model.algebroid)
            for E in cls:
                if E.bid in a.terms:
                    total = total + a.terms[E.bid]
            if total.is_zero:
                continue
            # the sum is a function of the target point tau(x), x in stratum
            if not stratum.image(cls[0]).vanishes(total):
                return False
    return True


def conv_eq(a: ConvElement, b: ConvElement) -> bool:
    return conv_is_zero(a - b)
