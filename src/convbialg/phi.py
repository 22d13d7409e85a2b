"""The representation Phi into transversal distributions and its kernel.

Phi sends <u, E#> to [[E, U(Ad_{E^{-1}})(u)]] termwise.  Its kernel is
characterized arrowwise: a is in the kernel iff for every arrow g the sum
of the source-transported germs e^{-1}.a(e) over all germs e above g
vanishes.  The check is mechanized by a stratification of the base into
finitely many intervals and breakpoints on which the germ-class structure
of the registered bisections is constant; on each stratum the transported
class sums are representable coefficient elements whose vanishing is
decidable branchwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .adjoint import ad_uea
from .coeffs import CoeffFn, Polynomial, Q
from .conv import ConvElement, conv_is_zero, conv_mul, eval_germ
from .errors import UnsupportedComposition, UnsupportedRegistry
from .groupoid import (
    Bisection,
    bisection_germ_eq,
    bisection_inv,
    germ_classes,
    germ_of,
    unit_bisection,
)
from .lie_rinehart import random_polynomial
from .uea import GermUEA, UEAElement
from .dist import TransvDist, dist_eval_at, max_keep_nan, test_bank


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """An open interval or a single breakpoint of the base line; a group
    model has the single point stratum over the one-point base."""

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
        return (self.lo + self.hi) / 2

    def second_sample(self):
        s = self.sample()
        if self.kind == "point":
            return s
        if self.hi is None:
            return s + 1
        return (s + self.hi) / 2

    def vanishes(self, v: UEAElement) -> bool:
        """Does v, an element over the base, vanish on this stratum?"""
        if self.kind == "interval":
            return all(f.is_zero_on(self.lo, self.hi) for f in v.terms.values())
        if self.point is None:  # the point base
            return v.is_zero
        return GermUEA((self.point,), v).is_zero

    def image(self, E: Bisection) -> "Stratum":
        """tau_E of this stratum.  Flat kinks fix 0 and preserve order, so
        they map each sign interval into itself; that is all vanishing on
        an interval needs to know."""
        if self.kind == "point":
            return self if self.point is None else Stratum("point", point=E.tau_apply(self.point))
        aff = E.tau_diffeo().affine_parts()
        if aff is None:
            return self
        a, b = aff
        lo = None if self.lo is None else a * self.lo + b
        hi = None if self.hi is None else a * self.hi + b
        return Stratum("interval", lo=lo, hi=hi) if a > 0 else Stratum("interval", lo=hi, hi=lo)

    def text(self) -> str:
        if self.kind == "point":
            return "pt" if self.point is None else f"{{{self.point}}}"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"({lo},{hi})"


class Stratification:
    """Strata paired with the germ-class partition of the active bisections,
    constant on each stratum."""

    def __init__(self, model, bisections, strata):
        self.model = model
        self.bisections = bisections
        self.strata = strata  # list of (Stratum, [class: [Bisection]])

    def table(self):
        names = {bid: alias for alias, bid in self.model.aliases.items()}
        return [
            (st.text(), [[names.get(E.bid, E.bid) for E in cls] for cls in classes])
            for st, classes in self.strata
        ]


def _breakpoints(model, bisections):
    pts = set()
    diffeos = []
    for E in bisections:
        for box in E.domain.boxes:
            for end in box[0]:
                if end is not None:
                    pts.add(Q(end))
        d = E.tau_diffeo()
        aff = d.affine_parts()
        if aff is None:
            pts.add(Q(0))  # flat kinks break exactly at the origin
        diffeos.append(aff)
    # pairwise coincidence points of affine maps (arrow crossings)
    seen = [a for a in diffeos if a is not None]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            (a1, b1), (a2, b2) = seen[i], seen[j]
            if a1 != a2:
                pts.add((b2 - b1) / (a1 - a2))
    return sorted(pts)


def _active(E: Bisection, stratum: Stratum) -> bool:
    if E.domain.is_whole:
        return True
    return E.domain.contains((stratum.sample(),))


def stratify(model, bisections=None) -> Stratification:
    if bisections is None:
        bisections = list(model.registry.values())
    if model.kind == "group":
        classes = [[E] for E in bisections]  # germ classes = group elements
        return Stratification(model, bisections, [(Stratum("point"), classes)])
    bps = _breakpoints(model, bisections)
    strata_shapes = []
    prev = None
    for b in bps:
        strata_shapes.append(Stratum("interval", lo=prev, hi=b))
        strata_shapes.append(Stratum("point", point=b))
        prev = b
    strata_shapes.append(Stratum("interval", lo=prev, hi=None))
    out = []
    for st in strata_shapes:
        active = [E for E in bisections if _active(E, st)]
        classes = germ_classes(active, st.sample())
        if st.kind == "interval" and active:
            # the germ-class structure must be literally constant on the stratum
            check = germ_classes(active, st.second_sample())
            if [[E.bid for E in c] for c in classes] != [[E.bid for E in c] for c in check]:
                raise UnsupportedRegistry(
                    f"germ-class structure not constant on stratum {st.text()}"
                )
        out.append((st, classes))
    return Stratification(model, bisections, out)


def element_strata(a: ConvElement):
    """Strata and germ-class partitions for the bisections of a."""
    model = a.model
    return stratify(model, [model.registry[bid] for bid in a.terms]).strata


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------


def phi(a: ConvElement) -> TransvDist:
    """<u, E#> -> [[E, U(Ad_{E^{-1}})(u)]], termwise."""
    model = a.model
    return TransvDist(model, [(bid, ad_uea(bisection_inv(model.registry[bid]), u))
                              for bid, u in a.terms.items()])


# ---------------------------------------------------------------------------
# Kernel predicate
# ---------------------------------------------------------------------------


def _same_arrow_at(E: Bisection, F: Bisection, x0) -> bool:
    """Exact test: do the pair-model bisections E and F pass through the
    same arrow over source x0?"""
    try:
        gap = E.tau_coeff() - F.tau_coeff()
    except UnsupportedComposition:
        if bisection_germ_eq(E, F, (x0,)):
            return True
        raise UnsupportedRegistry(
            "cannot decide arrow coincidence for inverted flat bisections"
        )
    return gap.value_is_zero_exact(x0)


def _stratified_zero(model, terms):
    """Shared arrowwise-vanishing core: terms maps bisection ids to
    source-side coefficient elements.  Returns (all_zero, witness)."""
    if not terms:
        return True, None
    bisections = [model.registry[bid] for bid in terms]
    strat = stratify(model, bisections)
    A = model.algebroid
    for st, classes in strat.strata:
        # on interval strata arrow-groups coincide with germ classes (arrow
        # crossings are breakpoints); on point strata germ-distinct classes
        # through the same arrow must be summed together
        if st.kind == "point" and model.kind == "pair":
            groups = []
            for cls in classes:
                for grp in groups:
                    if _same_arrow_at(cls[0], grp[0][0], st.point):
                        grp.append(cls)
                        break
                else:
                    groups.append([cls])
        else:
            groups = [[cls] for cls in classes]
        for grp in groups:
            total = UEAElement.zero(A).plus(terms[E.bid] for cls in grp for E in cls)
            if not st.vanishes(total):  # a function of the source point
                witness = {
                    "stratum": st.text(),
                    "classes": [[E.bid for E in cls] for cls in grp],
                    "sum": total.text(),
                }
                return False, witness
    return True, None


def kernel_test(a: ConvElement) -> dict:
    """Theorem criterion: a is in ker(Phi) iff for every arrow g the sum of
    e^{-1}.a(e) over the germs e above g vanishes (as a germ at the source)."""
    model = a.model
    transported = {}
    for bid, u in a.terms.items():
        E = model.registry[bid]
        transported[bid] = ad_uea(bisection_inv(E), u)
    ok, witness = _stratified_zero(model, transported)
    return {"in_kernel": ok, "witness": witness}


def dist_is_zero(T: TransvDist) -> bool:
    """Zero as a t-transversal distribution.

    The coefficients of [[E, Omega(v)]] are already the source-transported
    germ sums appearing in the kernel criterion, so the same stratified
    arrowwise check applies verbatim.
    """
    ok, _ = _stratified_zero(T.model, dict(T.terms))
    return ok


# ---------------------------------------------------------------------------
# Named scenarios
# ---------------------------------------------------------------------------


def scenario_kernel_example(model=None, npoints: int = 20, tol: float = 1e-9) -> dict:
    """The four flat-kink bisections: a nonzero element of ker(Phi)."""
    if model is None:
        from .models import pair_model

        model = pair_model()
    A = model.algebroid
    f = CoeffFn(A.chart, Polynomial(1, {(0,): Q(1), (1,): Q(1)}))  # 1 + t, f(0) != 0
    fu = UEAElement.from_coeff(A, f)
    a = ConvElement(model, [(model.lookup(f"E{i}{j}").bid, fu if (i + j) % 2 == 0 else -fu)
                            for i in (0, 1) for j in (0, 1)])
    checks = []

    g0 = eval_germ(a, germ_of(model.lookup("E00"), (Q(0),)))
    checks.append({"name": "a != 0 (origin germ class nonzero)", "pass": not g0.is_zero})

    kt = kernel_test(a)
    checks.append({"name": "kernel_test(a) = true", "pass": kt["in_kernel"],
                   "witness": kt["witness"]})

    T = phi(a)
    checks.append({"name": "phi(a) = 0 (stratified exact)", "pass": dist_is_zero(T)})

    rng = random.Random(0xC0FFEE)
    worst = 0.0
    bank = test_bank(model, max_deg=3)
    xs = [rng.uniform(-3, 3) for _ in range(npoints)]
    for F in bank[:12] + bank[-3:]:
        for x in xs:
            worst = max_keep_nan(worst, abs(float(dist_eval_at(T, F, x))))
    checks.append({"name": f"|phi(a)(F)(x)| < {tol} at {npoints} float points",
                   "pass": worst < tol, "max_abs": worst})

    return {
        "scenario": "kernel-example",
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
        "strata": stratify(model, [model.registry[b] for b in a.terms]).table(),
    }


def _random_heisenberg_u(rng, A, max_deg: int = 2) -> UEAElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * A.rank
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(A.rank)] += 1
        c = Q(rng.randint(-4, 4))
        if c:
            terms[tuple(exp)] = CoeffFn.const(A.chart, c)
    return UEAElement(A, terms)


def scenario_cartier_gabriel(model=None, npairs: int = 20, seed: int = 0xC0FFEE) -> dict:
    """Finite-support distributions on a Lie group: U(k) twisted by the
    group algebra via Ad."""
    if model is None:
        from .models import heisenberg_model

        model = heisenberg_model()
    A = model.algebroid
    rng = random.Random(seed)
    elements = [E for E in model.registry.values()]
    unit = model.register(unit_bisection(model))
    checks = []

    inj_ok, inj_witness = True, None
    for _ in range(npairs):
        ks = rng.sample(elements, k=min(len(elements), rng.randint(1, 5)))
        a = ConvElement(model, [(E.bid, _random_heisenberg_u(rng, A)) for E in ks])
        if a.is_zero:
            continue
        kt = kernel_test(a)
        if kt["in_kernel"]:
            inj_ok, inj_witness = False, a.text()
            break
    checks.append({"name": "injective on sums over <= 5 group elements",
                   "pass": inj_ok, "witness": inj_witness})

    twist_ok, twist_witness = True, None
    for _ in range(npairs):
        kp = rng.choice(elements)
        k = rng.choice(elements)
        u = _random_heisenberg_u(rng, A)
        delta = ConvElement.single(model, kp, UEAElement.one(A))
        b = ConvElement.single(model, k, u)
        from .dist import dist_mul

        if dist_mul(phi(delta), phi(b)) != phi(conv_mul(delta, b)):
            twist_ok, twist_witness = False, (kp.bid, k.bid, u.text())
            break
    checks.append({"name": "twisted product delta_k' * Phi<u,k> = Phi(conv product)",
                   "pass": twist_ok, "witness": twist_witness})

    dec_ok, dec_witness = True, None
    for _ in range(npairs):
        k = rng.choice(elements)
        u = _random_heisenberg_u(rng, A)
        full = ConvElement.single(model, k, u)
        left = conv_mul(ConvElement.single(model, unit, u),
                        ConvElement.single(model, k, UEAElement.one(A)))
        kinv = bisection_inv(k)
        right = conv_mul(ConvElement.single(model, k, UEAElement.one(A)),
                         ConvElement.single(model, unit, ad_uea(kinv, u)))
        if left != full or right != full:
            dec_ok, dec_witness = False, (k.bid, u.text())
            break
    checks.append({"name": "grouplike x primitive decomposition up to Ad twist",
                   "pass": dec_ok, "witness": dec_witness})

    return {"scenario": "cartier-gabriel",
            "pass": all(c["pass"] for c in checks), "checks": checks}


def scenario_etale_iso(model=None, n: int = 20, seed: int = 0xC0FFEE) -> dict:
    """Phi is an isomorphism onto the degree-0 span for the etale model."""
    if model is None:
        from .models import etale_model

        model = etale_model()
    A = model.algebroid
    rng = random.Random(seed)
    bisections = list(model.registry.values())
    checks = []

    inj_ok, inj_witness = True, None
    for _ in range(n):
        ks = rng.sample(bisections, k=min(len(bisections), rng.randint(1, 4)))
        a = ConvElement(model, [
            (E.bid, UEAElement.from_coeff(A, CoeffFn(A.chart, random_polynomial(rng, 1, 2))))
            for E in ks
        ])
        if kernel_test(a)["in_kernel"] != conv_is_zero(a):
            inj_ok, inj_witness = False, a.text()
            break
    checks.append({"name": "ker(Phi) = 0: kernel_test agrees with germwise zero",
                   "pass": inj_ok, "witness": inj_witness})

    surj_ok, surj_witness = True, None
    for E in bisections:
        for P in (Polynomial.const(1, 3), Polynomial(1, {(2,): Q(1), (0,): Q(-1)})):
            f = CoeffFn(A.chart, P)
            target = TransvDist.single(model, E, UEAElement.from_coeff(A, f))
            pre = ConvElement.single(model, E, UEAElement.from_coeff(A, E.to_target(f)))
            if phi(pre) != target:
                surj_ok, surj_witness = False, (E.bid, P.text())
                break
        if not surj_ok:
            break
    checks.append({"name": "every [[E, f]] has preimage <f o tau^-1, E#>",
                   "pass": surj_ok, "witness": surj_witness})

    return {"scenario": "etale-iso",
            "pass": all(c["pass"] for c in checks), "checks": checks}
