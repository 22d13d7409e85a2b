"""The adjoint action of bisections: C_E, Ad_E, U(Ad_E) and germ-level Ad_e.

Ad_E is the derivative of the conjugation C_E(h) = alpha_E(t(h)) . h .
alpha_E(s(h))^{-1}.  For each model the matrix of Ad_E in the frame is
obtained in two independent ways (a closed-form expression, and symbolic
or numeric differentiation of C_E) and cross-checked:

* group kind: the Jacobian of k h k^-1 at the unit, as polynomials in k, is
  derived once per model, on the first ad_matrix call; every call evaluates
  it at the element and compares it with the stored closed form;
* pair kind: the matrix tau' is rebuilt on every call, and its
  finite-difference check against C_E runs once per (model, bisection id),
  the first time it passes.

U(Ad_E) sends the generator X_j to column j of the matrix, with entries
moved to t(E) by Bisection.to_target, and a coefficient f to f o tau^{-1}.
"""

from __future__ import annotations

from .coeffs import CoeffFn, Polynomial, Q
from .errors import DomainError, UnsupportedComposition, VerificationFailed
from .groupoid import Bisection, GermArrow
from .uea import GermUEA, UEAElement, uea_germ, uea_mul


def conjugate_arrow(E: Bisection, h):
    """C_E(h) = alpha_E(t(h)) . h . alpha_E(s(h))^{-1}."""
    model = E.model
    sx, tx = model.s_of(h), model.t_of(h)
    for x in (sx, tx):
        if not E.contains_source(x):
            raise DomainError("arrow endpoints outside s(E)")
    left = E.alpha(tx)
    right = model.inv_arrow(E.alpha(sx))
    return model.mult_arrow(left, model.mult_arrow(h, right))


def _pair_matrix(E: Bisection):
    d = E.tau_diffeo()
    if d.fwd is None:
        raise UnsupportedComposition("Ad matrix of an inverted flat bisection")
    return [[d.fwd.derive()]]


def _conjugation_jacobian(model):
    """d/dh (k h k^-1) at h = e, as an n x n matrix of polynomials in k."""
    n = model.arrow_chart.dim
    kvars = [Polynomial.var(2 * n, i) for i in range(n)]
    hvars = [Polynomial.var(2 * n, n + i) for i in range(n)]
    kinv = [p.substitute(kvars) for p in model.inv_map]
    kh = [p.substitute(kvars + hvars) for p in model.mult_map]
    conj = [p.substitute(kh + kinv) for p in model.mult_map]
    at_unit = [Polynomial.var(n, i) for i in range(n)] + [
        Polynomial.const(n, c) for c in model.unit_of(())
    ]
    return [[conj[i].derive(n + j).substitute(at_unit) for j in range(n)] for i in range(n)]


def _group_matrix_derived(E: Bisection):
    """Jacobian of h -> C_k(h) at the unit, from the structure polynomials."""
    model = E.model
    J = model.derive_once("conjugation_jacobian", lambda: _conjugation_jacobian(model))
    return [[CoeffFn.const(model.base, p.eval(E.element)) for p in row] for row in J]


def ad_matrix(E: Bisection):
    """The r x r matrix of Ad_E in the frame, as CoeffFns over s(E).

    Ad_E(X_j) = sum_i (M[i][j] o tau^{-1}) X_i.
    """
    model = E.model
    A = model.algebroid
    if A.rank == 0:
        return []
    if model.kind == "group":
        M = _group_matrix_derived(E)
        stored = model.stored_ad_matrix(E.element)
        for i in range(A.rank):
            for j in range(A.rank):
                if M[i][j] != A._fn(stored[i][j]):
                    raise VerificationFailed(
                        f"Ad matrix mismatch at ({i},{j}) for {E.bid}"
                    )
        return M
    M = _pair_matrix(E)
    checked = model.derive_once("ad_crosschecked", set)
    if E.bid not in checked:
        _crosscheck_pair(E, M)
        checked.add(E.bid)
    return M


def _crosscheck_pair(E: Bisection, M):
    """Numeric check: d/dx of the source leg of C_E matches tau'.  It fails
    unless the gap is within the tolerance, so a NaN fails it too."""
    eps = 1e-6
    for x in (Q(-3, 4), Q(1, 2)):
        if not (E.domain.is_whole or E.domain.contains((x,))):
            continue
        y = E.tau_apply(x)
        plus = conjugate_arrow(E, (float(y), float(x) + eps))[1]
        minus = conjugate_arrow(E, (float(y), float(x) - eps))[1]
        fd = (plus - minus) / (2 * eps)
        gap = abs(fd - float(M[0][0].eval((x,))))
        if not gap <= 1e-4 * (1 + abs(fd)):
            raise VerificationFailed(
                f"Ad cross-check failed for {E.bid} at x={x}: |gap|={gap}"
            )


def ad_uea(E: Bisection, u: UEAElement) -> UEAElement:
    """U(Ad_E): f -> f o tau^{-1} on degree 0, Ad_E on degree 1, extended
    multiplicatively and renormalized."""
    A = u.parent
    if u.is_zero:
        return u
    # the coefficients move first, so that a bisection without a
    # representable tau^{-1} fails before ad_matrix cross-checks it
    moved = [(exp, E.to_target(f)) for exp, f in u.terms.items()]
    if u.degree() <= 0:
        return UEAElement(A, moved)
    # Ad_E(X_j) = sum_i (M[i][j] o tau^{-1}) X_i: column j of the matrix
    M = ad_matrix(E)
    units = [tuple(int(i == k) for k in range(A.rank)) for i in range(A.rank)]
    gens = [UEAElement(A, [(units[i], E.to_target(M[i][j])) for i in range(A.rank)])
            for j in range(A.rank)]
    pairs = []
    for exp, tf in moved:
        acc = UEAElement.one(A)
        for j, k in enumerate(exp):
            for _ in range(k):
                acc = uea_mul(acc, gens[j])
        pairs.extend((e, tf * g) for e, g in acc.terms.items())
    return UEAElement(A, pairs)


def ad_germ(e: GermArrow, model, germ_u: GermUEA) -> GermUEA:
    """Ad_e on germs; independent of the representative bisection."""
    E = e.bisection(model)
    if tuple(germ_u.base_point) != e.source:
        raise DomainError("germ base point must be the source of e")
    image = model.t_of(E.alpha(e.source))
    return uea_germ(ad_uea(E, germ_u.elem), image)
