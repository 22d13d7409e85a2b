"""Symbolic oracle for the value of a transversal distribution.

dist_eval(T, F) is T(F) as one coefficient function on the base, built with
polynomials: [[E, D]](F) = D(F) o beta_E, with beta_E the polynomial map of
model.beta_polys, and c o s o beta_E = c o tau^{-1}.  The package evaluates
T(F) at one point at a time (dist.dist_eval_at), through model.test_value;
the tests compare the two.
"""

from convbialg.coeffs import CoeffFn
from convbialg.dist import omega_apply
from convbialg.errors import UnsupportedRegistry


def dist_eval(T, F):
    """T(F) as a coefficient function on the base; UnsupportedComposition
    where model.beta_polys has no polynomial beta_E."""
    model = T.model
    out = CoeffFn.const(model.base, 0)
    for bid, u in T.terms.items():
        E = model.registry[bid]
        if not E.target_domain().is_whole:
            raise UnsupportedRegistry(f"dist_eval needs t(E) to be the whole base: {bid}")
        beta = model.beta_polys(E)
        for c, P in omega_apply(model, u, F).terms:
            out = out + E.to_target(c) * CoeffFn(model.base, P.substitute(beta))
    return out
