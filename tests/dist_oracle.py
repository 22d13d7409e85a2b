"""Symbolic oracle for the value of a transversal distribution.

dist_eval(T, F) is T(F) as one coefficient function on the base, built with
polynomials: [[E, D]](F) = D(F) o beta_E, with beta_E the polynomial map of
model.beta_polys, and c o s o beta_E = c o tau^{-1}.  D(F) is made by the
frame walk of dist.ArrowFn, not read from the table of dist.omega_apply.  The package evaluates
T(F) at one point at a time (dist.dist_eval_at), through model.test_value;
the tests compare the two.  function_bank gives them test functions to
compare on.
"""

import random
from itertools import product

from convbialg.coeffs import CoeffFn, Polynomial
from convbialg.dist import ArrowFn
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
        # Ω(u)(F) by the frame walk, not by dist.omega_apply's table
        for c, P in ArrowFn.lift(model, F).apply_uea(u).terms:
            out = out + E.to_target(c) * CoeffFn(model.base, P.substitute(beta))
    return out


def function_bank(model, seed=0xC0FFEE, max_deg=4):
    """Polynomial test functions on the arrow chart of a model of positive
    rank: every monomial of degree <= max_deg, and five random ones."""
    rng = random.Random(seed)
    n = model.arrow_chart.dim
    bank = [Polynomial(n, {e: 1}) for e in product(range(max_deg + 1), repeat=n)
            if sum(e) <= max_deg]
    return bank + [model.random_test_function(rng, 3) for _ in range(5)]
