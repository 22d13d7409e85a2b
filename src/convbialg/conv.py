"""The convolution bialgebra of a groupoid model.

A ConvElement is a finite formal sum of sections <u, E#> over the bisection
registry, with u an enveloping-algebra element over t(E).  The product
twists by the adjoint action of the leading bisection,

    <u', E'#> . <u, E#> = <u' . U(Ad_{E'})(u), (E'.E)#>,

the coproduct and counit are applied termwise through U(g), and the
degree-0 part over an etale model carries the antipode
S<f, E> = <f o tau_E, E^{-1}>.

ConvElement and TransvDist (in dist) are BisectionSums: TermSums keyed by
registered bisection ids.  Canonical form merges terms with syntactically
identical ids (ids are content-derived, so products of registered
bisections merge); semantic equality is germ-pointwise.  ConvTensor is the
TermSum keyed by pairs of ids.  Its product, mu and map_slots share one
walk over its pure terms <u|E> tensor <v|F>; map_slots applies a map to
either slot, such as the right action of a base function or the antipode.

stratify cuts the base at the breakpoints of a set of bisections into open
intervals and points, on which their germ-class structure is constant; a
point base is one point stratum.  class_sums is the one walk over those
strata and their germ classes, giving each class with the sum of its
terms: conv_is_zero tests each sum on the image of its stratum, and the
zero test of phi sums the classes through one arrow first.  The line
geometry of a bisection (its breakpoints, the image of a stratum under
tau_E) is groupoid's: this module reads no tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .adjoint import ad_uea
from .coeffs import CoeffFn, Q, Region
from .errors import ChartMismatch, NotEtaleElement, UnsupportedRegistry
from .groupoid import (
    Bisection,
    GermArrow,
    bisection_germ_eq,
    bisection_inv,
    breakpoints,
    germ_classes,
    unit_bisection,
)
from .uea import (
    GermUEA,
    TensorElement,
    TermSum,
    UEAElement,
    coproduct,
    counit,
    uea_mul,
)


class BisectionSum(TermSum):
    """A finite formal sum over the bisection registry of a model: terms map
    registered bisection ids to enveloping-algebra elements.  Subclasses
    differ in how one term is printed."""

    __slots__ = ()
    model = TermSum.ctx
    _TERM = ""  # format of one term, with fields u and E

    def __init__(self, model, terms=None):
        pairs = list(self._pairs(terms))
        for bid, _ in pairs:
            if bid not in model.registry:
                raise KeyError(f"unregistered bisection {bid!r}")
        super().__init__(model, pairs)

    @classmethod
    def single(cls, model, E: Bisection, u: UEAElement):
        model.register(E)
        return cls(model, {E.bid: u})

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self.model.bid_names()
        return " + ".join(
            self._TERM.format(u=u.text(), E=names.get(bid, bid))
            for bid, u in sorted(self.terms.items())
        )


class ConvElement(BisectionSum):
    """A section sum of terms <u | E>; `==` compares canonical forms, conv_eq
    compares germ-pointwise."""

    __slots__ = ()
    _TERM = "<{u} | {E}>"

    @staticmethod
    def from_coeff(model, f: CoeffFn) -> "ConvElement":
        """iota_R: a base function supported on the unit bisection."""
        A = model.algebroid
        return ConvElement.single(model, unit_bisection(model), UEAElement.from_coeff(A, f))

    def __repr__(self):
        return f"Conv({self.text()})"


# ---------------------------------------------------------------------------
# Section semantics and product
# ---------------------------------------------------------------------------


def eval_germ(a: ConvElement, e: GermArrow) -> GermUEA:
    """a(e): the sum of u's over terms whose bisection has germ e."""
    model = a.model
    Ee = e.bisection(model)
    members = []
    for bid, u in a.terms.items():
        E = model.registry[bid]
        if E.contains_source(e.source) and bisection_germ_eq(E, Ee, e.source):
            members.append(u)
    total = UEAElement.zero(model.algebroid).plus(members)
    tpoint = model.t_of(Ee.alpha(e.source))
    return GermUEA(tpoint, total)


def conv_mul(a2: ConvElement, a1: ConvElement) -> ConvElement:
    if a2.model is not a1.model:
        raise ChartMismatch("elements of different models")
    model = a2.model
    pairs = []
    for bid2, u2 in a2.terms.items():
        E2 = model.registry[bid2]
        for bid1, u1 in a1.terms.items():
            E1 = model.registry[bid1]
            v = uea_mul(u2, ad_uea(E2, u1))
            pairs.append((model.registered_product(E2, E1).bid, v))
    return ConvElement(model, pairs)


def conv_counit(a: ConvElement) -> CoeffFn:
    """epsilon(a) = sum of epsilon(u_i), a function on the base."""
    total = CoeffFn.const(a.model.algebroid.chart, 0)
    for u in a.terms.values():
        total = total + counit(u)
    return total


# ---------------------------------------------------------------------------
# Coproduct: tensors of ConvElements
# ---------------------------------------------------------------------------


class ConvTensor(TermSum):
    """Finite sum of <.,E> tensor <.,F> terms; per bisection pair the
    enveloping data is a TensorElement with coefficients on the base."""

    __slots__ = ()
    model = TermSum.ctx

    def swap(self) -> "ConvTensor":
        return self._like(((b, a), t.swap()) for (a, b), t in self.terms.items())

    def _pure(self):
        """The pure terms as (<u|E>, <v|F>) pairs, the coefficient on u."""
        model = self.model
        for (bl, br), t in self.terms.items():
            for u, v in t.pure_tensors():
                yield ConvElement(model, {bl: u}), ConvElement(model, {br: v})

    def _sum(self, slot_pairs) -> "ConvTensor":
        """The sum of x tensor y over (x, y) pairs of ConvElements."""
        return self._like(((bl, br), TensorElement.of(u, v)) for x, y in slot_pairs
                          for bl, u in x.terms.items() for br, v in y.terms.items())

    def mul(self, other: "ConvTensor") -> "ConvTensor":
        return self._sum((conv_mul(x1, x2), conv_mul(y1, y2))
                         for x1, y1 in self._pure() for x2, y2 in other._pure())

    def mu(self) -> ConvElement:
        """Multiply the two slots together."""
        return ConvElement.zero(self.model).plus(conv_mul(x, y) for x, y in self._pure())

    def map_slots(self, left=None, right=None) -> "ConvTensor":
        """The sum of left(x) tensor right(y) over the pure terms x tensor y;
        None is the identity.  With x -> x . iota(r) on either slot this is
        the right R-action there; with left=antipode_etale, (S tensor id)."""
        return self._sum((x if left is None else left(x), y if right is None else right(y))
                         for x, y in self._pure())


def conv_coproduct(a: ConvElement) -> ConvTensor:
    return ConvTensor(a.model, {(bid, bid): coproduct(u) for bid, u in a.terms.items()})


# ---------------------------------------------------------------------------
# Antipode on the etale subalgebra
# ---------------------------------------------------------------------------


def antipode_etale(b: ConvElement) -> ConvElement:
    """S<f, E> = <f o tau_E, E^{-1}> termwise; degree-0 terms only, and no
    flat kink, whose inverse no registry holds."""
    model = b.model
    pairs = []
    for bid, u in b.terms.items():
        E = model.registry[bid]
        inv = bisection_inv(E)
        if u.degree() > 0 or not inv.has_forward_map:
            raise NotEtaleElement("antipode needs degree-0 terms and forward inverses")
        w = UEAElement.from_coeff(model.algebroid, E.to_source(u.degree0()))
        pairs.append((model.register(inv).bid, w))
    return ConvElement(model, pairs)


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """An open interval or a single breakpoint of the base line; a model
    over a point base has the single point stratum, with no point."""

    kind: str  # "interval" | "point"
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    point: Optional[Fraction] = None

    def sample(self):
        if self.kind == "point":
            return self.point
        if self.lo is None and self.hi is None:
            return Q(0)
        if self.lo is None:
            return self.hi - 1
        if self.hi is None:
            return self.lo + 1
        return Q(self.lo + self.hi, 2)

    def second_sample(self):
        s = self.sample()
        if self.kind == "point":
            return s
        if self.hi is None:
            return s + 1
        return Q(s + self.hi, 2)

    def vanishes(self, v: UEAElement) -> bool:
        """Does v, an element over the base, vanish on this stratum?"""
        if self.kind == "interval":
            return all(f.is_zero_on(self.lo, self.hi) for f in v.terms.values())
        if self.point is None:  # the point base
            return v.is_zero
        return GermUEA((self.point,), v).is_zero

    def image(self, E: Bisection) -> "Stratum":
        """tau_E of this stratum, exactly as far as vanishing reads it
        (Bisection.image and point_image)."""
        if self.kind == "point":
            return self if self.point is None else Stratum("point", point=E.point_image(self.point))
        ((lo, hi),) = E.image(Region.interval(self.lo, self.hi)).intervals
        return Stratum("interval", lo=lo, hi=hi)

    def text(self) -> str:
        if self.kind == "point":
            return "pt" if self.point is None else f"{{{self.point}}}"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"({lo},{hi})"


class Stratification:
    """Strata paired with the germ-class partition of the active bisections,
    constant on each stratum."""

    def __init__(self, model, strata):
        self.model = model
        self.strata = strata  # list of (Stratum, [class: [Bisection]])

    def table(self):
        names = self.model.bid_names()
        return [
            (st.text(), [[names.get(E.bid, E.bid) for E in cls] for cls in classes])
            for st, classes in self.strata
        ]


def stratify(model, bisections) -> Stratification:
    if not model.base.dim:
        # a point base: one stratum, on which the germ classes are the
        # bisections (for a group, its elements)
        return Stratification(model, [(Stratum("point"), [[E] for E in bisections])])
    strata_shapes = []
    prev = None
    for b in breakpoints(bisections):
        strata_shapes.append(Stratum("interval", lo=prev, hi=b))
        strata_shapes.append(Stratum("point", point=b))
        prev = b
    strata_shapes.append(Stratum("interval", lo=prev, hi=None))
    out = []
    for st in strata_shapes:
        active = [E for E in bisections if E.contains_source(st.sample())]
        classes = germ_classes(active, st.sample())
        if st.kind == "interval" and active:
            # the germ-class structure must be literally constant on the stratum
            check = germ_classes(active, st.second_sample())
            if [[E.bid for E in c] for c in classes] != [[E.bid for E in c] for c in check]:
                raise UnsupportedRegistry(
                    f"germ-class structure not constant on stratum {st.text()}"
                )
        out.append((st, classes))
    return Stratification(model, out)


def class_sums(model, terms):
    """The one stratum walk: terms maps bisection ids to elements over the
    base.  Yields each stratum of their bisections with its germ classes,
    each paired with the sum of its terms (summed as they are read)."""
    zero = UEAElement.zero(model.algebroid)
    for stratum, classes in stratify(model, [model.registry[bid] for bid in terms]).strata:
        yield stratum, ((cls, zero.plus(terms[E.bid] for E in cls)) for cls in classes)


# ---------------------------------------------------------------------------
# Germ-pointwise equality
# ---------------------------------------------------------------------------


def conv_is_zero(a: ConvElement) -> bool:
    """Zero germ-pointwise: every germ-class sum vanishes along every
    stratum of the element's bisections."""
    for stratum, sums in class_sums(a.model, a.terms):
        for cls, total in sums:
            # the sum is a function of the target point tau(x), x in stratum
            if not total.is_zero and not stratum.image(cls[0]).vanishes(total):
                return False
    return True


def conv_eq(a: ConvElement, b: ConvElement) -> bool:
    return conv_is_zero(a - b)
