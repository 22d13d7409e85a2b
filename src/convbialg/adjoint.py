"""The adjoint action of bisections: Ad_E and U(Ad_E).

Ad_E is the derivative at the units of the conjugation C_E(h) =
alpha_E(t(h)) . h . alpha_E(s(h))^{-1}.  ad_matrix compares, on every call
(ad_uea makes one per bisection, see below) and for every kind with
polynomial structure maps, two independent forms of its matrix in the
frame: the model's closed form (`closed_ad_matrix`: tau' for the pair
groupoid, the stored matrix of a group), and one derivation from the
structure polynomials, made once per model and evaluated at alpha_E
(`alpha_fns`) and its first derivatives by Polynomial.at in the CoeffFn
ring, whether these are polynomial or flat (a flat kink's tau).

U(Ad_E) sends the generator X_j to column j of the matrix, with entries
moved to t(E) by Bisection.to_target, and a coefficient f to f o tau^{-1};
the image of a monomial is the PBW product of the images of the
generators of its word (uea.pbw_word), from the first factor on.  The
generator images are kept on the bisection ("ad_gens"), built once from an
ad_matrix that passed its comparison; a mismatch raises and keeps nothing,
so it fails every ad_uea call on that bisection.
"""

from __future__ import annotations

from functools import reduce

from .coeffs import CoeffFn, Polynomial
from .errors import VerificationFailed
from .groupoid import Bisection
from .uea import UEAElement, pbw_word, uea_mul


def _conjugation_jacobian(model):
    """Entry (i, j): the v_i-component of d/de_j C_E(unit(x) + sum_j e_j v_j) at
    e = 0, a polynomial in x, a = alpha_E(x) and d[k][m] = d alpha_E^k / dx_m
    at x, since alpha_E(x + dx) = a + d dx to first order in dx."""
    b, n, r = model.base.dim, model.arrow_chart.dim, len(model.unit_frame)
    nv = b + n + n * b + r  # x, a, d and e
    var = [Polynomial.var(nv, i) for i in range(nv)]
    x, a, e = var[:b], var[b:b + n], var[nv - r:]
    d = [var[b + n + k * b:b + n + (k + 1) * b] for k in range(n)]

    def alpha_near(maps, h):
        """alpha_E at y = maps(h), to first order in y - x."""
        y = [p.substitute(h) for p in maps]
        return [sum((dk[m] * (y[m] - x[m]) for m in range(b)), ak) for ak, dk in zip(a, d)]

    def at_zero(p):
        return Polynomial(nv - r, {ex[:-r]: c for ex, c in p.terms.items() if not any(ex[-r:])})

    h = [sum((ej * v[k].embed(nv) for ej, v in zip(e, model.unit_frame)), u.embed(nv))
         for k, u in enumerate(model.unit_map)]
    right = [p.substitute(alpha_near(model.s_map, h)) for p in model.inv_map]
    left_h = [p.substitute(alpha_near(model.t_map, h) + h) for p in model.mult_map]
    conj = [p.substitute(left_h + right) for p in model.mult_map]
    # each unit-frame vector is a constant coordinate vector e_k, so row i
    # reads coordinate k of frame vector i (ad_matrix's comparison with the
    # closed form fails on any other frame)
    rows = [next(k for k, p in enumerate(v) if not p.is_zero) for v in model.unit_frame]
    return [[at_zero(conj[k].derive(nv - r + j)) for j in range(r)] for k in rows]


def ad_matrix(E: Bisection):
    """The r x r matrix of Ad_E in the frame, as CoeffFns over s(E).

    Ad_E(X_j) = sum_i (M[i][j] o tau^{-1}) X_i.
    """
    model = E.model
    A = model.algebroid
    closed = model.closed_ad_matrix(E)
    J = model.derive_once("conjugation_jacobian", lambda: _conjugation_jacobian(model))
    base = model.base
    alpha = model.alpha_fns(E)
    args = ([CoeffFn.var(base, m) for m in range(base.dim)] + alpha
            + [f.derive(m) for f in alpha for m in range(base.dim)])
    M = [[p.at(args, lambda c: CoeffFn.const(base, c)) for p in row] for row in J]
    for i in range(A.rank):
        for j in range(A.rank):
            if M[i][j] != A._fn(closed[i][j]):
                raise VerificationFailed(f"Ad matrix mismatch at ({i},{j}) for {E.bid}")
    return M


def _generator_images(E: Bisection):
    """Ad_E(X_j) = sum_i (M[i][j] o tau^{-1}) X_i for each j: column j of
    ad_matrix(E), moved to t(E)."""
    A = E.model.algebroid
    M = ad_matrix(E)
    units = [tuple(int(i == k) for k in range(A.rank)) for i in range(A.rank)]
    return [UEAElement._raw(A, [(units[i], E.to_target(M[i][j])) for i in range(A.rank)])
            for j in range(A.rank)]


def ad_uea(E: Bisection, u: UEAElement) -> UEAElement:
    """U(Ad_E): f -> f o tau^{-1} on degree 0, Ad_E on degree 1, extended
    multiplicatively and renormalized."""
    A = u.parent
    if u.is_zero:
        return u
    # the coefficients move first, so that a bisection without a
    # representable tau^{-1} fails before ad_matrix derives its matrix
    moved = [(exp, E.to_target(f)) for exp, f in u.terms.items()]
    if u.degree() <= 0:
        return UEAElement._raw(A, moved)
    gens = E.derive_once("ad_gens", lambda: _generator_images(E))
    pairs = []
    for exp, tf in moved:
        # the product starts from its first factor: 1 . g has the terms of g
        factors = [gens[j] for j in pbw_word(exp)]
        acc = reduce(uea_mul, factors) if factors else UEAElement.one(A)
        pairs.extend((e, tf * g) for e, g in acc.terms.items())
    return UEAElement._raw(A, pairs)
