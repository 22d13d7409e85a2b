"""The representation Phi into transversal distributions and its kernel.

Phi sends <u, E#> to [[E, U(Ad_{E^{-1}})(u)]] termwise.  Its kernel is
characterized arrowwise: a is in the kernel iff for every arrow g the sum
of the source-transported germs e^{-1}.a(e) over all germs e above g
vanishes.  The check walks the strata of conv.stratify with
conv.class_sums, as conv_is_zero does: on each stratum the germ-class
structure of the bisections is constant, and the transported class sums
are representable coefficient elements whose vanishing is decidable
branchwise.  On a point stratum the classes through one arrow, which the
model's same_arrow hook tells, are summed before the test.  A transversal
distribution is zero by the same check (dist_is_zero).
"""

from __future__ import annotations

from .adjoint import ad_uea
from .conv import ConvElement, class_sums, stratify
from .dist import TransvDist
from .groupoid import bisection_inv

# stratify is conv's, and is also read (and traced) under this module's name
__all__ = ["dist_is_zero", "kernel_test", "phi", "stratify"]


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


def _stratified_zero(T: TransvDist):
    """Shared arrowwise-vanishing core: the coefficients of T are
    source-side elements.  Returns (all_zero, witness)."""
    model = T.model
    for st, sums in class_sums(model, T.terms):
        # germ-distinct classes through one arrow are summed together on a
        # point stratum only.  Bisections can also cross inside an interval
        # stratum (a flat kink is not affine, so groupoid.breakpoints adds
        # no such crossing), but each class sum is continuous there: if it
        # vanishes off the crossing, it vanishes at it
        arrows = []  # per arrow: a bisection through it, its classes, their sum
        for cls, total in sums:
            for arrow in arrows:
                if st.kind == "point" and model.same_arrow(cls[0], arrow[0], st.point):
                    arrow[1].append(cls)
                    arrow[2] += total
                    break
            else:
                arrows.append([cls[0], [cls], total])
        for _, classes, total in arrows:
            if not st.vanishes(total):  # a function of the source point
                bids = [[E.bid for E in cls] for cls in classes]
                return False, {"stratum": st.text(), "classes": bids, "sum": total.text()}
    return True, None


def kernel_test(a: ConvElement) -> dict:
    """Theorem criterion: a is in ker(Phi) iff for every arrow g the sum of
    e^{-1}.a(e) over the germs e above g vanishes (as a germ at the source).
    The coefficients of Phi(a) are these transported germs."""
    ok, witness = _stratified_zero(phi(a))
    return {"in_kernel": ok, "witness": witness}


def dist_is_zero(T: TransvDist) -> bool:
    """Zero as a t-transversal distribution.  The coefficients of
    [[E, Omega(v)]] are already the source-transported germ sums of the
    kernel criterion, so the same arrowwise check applies verbatim."""
    return _stratified_zero(T)[0]
