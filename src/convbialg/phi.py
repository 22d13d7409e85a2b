"""The representation Phi into transversal distributions and its kernel.

Phi sends <u, E#> to [[E, U(Ad_{E^{-1}})(u)]] termwise.  Its kernel is
characterized arrowwise: a is in the kernel iff for every arrow g the sum
of the source-transported germs e^{-1}.a(e) over all germs e above g
vanishes.  The check runs on the stratification of conv.stratify: on each
stratum the germ-class structure of the bisections is constant, and the
transported class sums are representable coefficient elements whose
vanishing is decidable branchwise.  A transversal distribution is zero
by the same check (dist_is_zero).
"""

from __future__ import annotations

from .adjoint import ad_uea
from .conv import ConvElement, stratify
from .dist import TransvDist
from .errors import UnsupportedComposition, UnsupportedRegistry
from .groupoid import Bisection, bisection_germ_eq, bisection_inv
from .uea import UEAElement


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
