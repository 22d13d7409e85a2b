"""Lie-Rinehart algebras (Lie algebroids with a global frame).

A LieRinehart value stores a chart, a module rank r, an anchor matrix
(rho(X_i) as a vector field, one row per frame element) and the bracket
structure table c[i][j] with [X_i, X_j] = sum_k c[i][j][k] * X_k.  All
structure data are CoeffFn's on the chart, held in nested tuples: an
algebra never changes after construction, so the PBW products that `uea`
keeps in its `derived` store (see coeffs.DeriveOnce) stay valid.  A
changed algebra is a new LieRinehart.

algebroid_of_groupoid re-verifies the algebroid a groupoid model stores:
frame_field derives each left-invariant frame field from the model's
multiplication polynomials, and their commutators must give the table.
"""

from __future__ import annotations

import random
from itertools import product

from .coeffs import Chart, CoeffFn, DeriveOnce, Polynomial
from .errors import ParentMismatch, VerificationFailed


def random_polynomial(rng: random.Random, nvars: int, max_deg: int = 2) -> Polynomial:
    """Small random polynomial with coefficients in {-3..3}, built by the
    trusted constructor: its terms are int tuples with int values."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            if nvars:
                exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-3, 3)
    return Polynomial._raw(nvars, terms)


def law(name, cases, holds, describe):
    """The check of a law: it fails on the first case where holds(*case) is
    false, with describe(*case) as its witness.  cases is consumed lazily,
    so no case after the first failure is drawn."""
    for case in cases:
        if not holds(*case):
            return {"name": name, "pass": False, "witness": describe(*case)}
    return {"name": name, "pass": True, "witness": None}


class LieRinehart(DeriveOnce):
    """A free Lie-Rinehart algebra over the coefficient ring of a chart."""

    def __init__(self, chart: Chart, rank: int, anchor, bracket, basis_names=None):
        self.chart = chart
        self.rank = rank
        self.zero = CoeffFn.const(chart, 0)
        self.one = CoeffFn.const(chart, 1)
        # anchor[i][d]: CoeffFn, the d-th component of rho(X_i)
        self.anchor = tuple(tuple(self._fn(c) for c in row) for row in anchor)
        if len(self.anchor) != rank or any(len(row) != chart.dim for row in self.anchor):
            raise ValueError("anchor must be a rank x dim matrix")
        # bracket[i][j]: r CoeffFn
        self.bracket_table = tuple(
            tuple(tuple(self._fn(c) for c in bracket[i][j]) for j in range(rank))
            for i in range(rank)
        )
        for i in range(rank):
            for j in range(rank):
                if len(self.bracket_table[i][j]) != rank:
                    raise ValueError("bracket entries must have length rank")
        self.basis_names = tuple(basis_names or (f"X{i+1}" for i in range(rank)))
        # ("pbw", i, exp) -> X_i * X^exp in PBW normal form, filled by uea
        self.derived = {}

    def _fn(self, c) -> CoeffFn:
        if isinstance(c, CoeffFn):
            return c
        return CoeffFn.const(self.chart, c)

    def __eq__(self, other):
        return (
            isinstance(other, LieRinehart)
            and self.chart == other.chart
            and self.rank == other.rank
            and self.anchor == other.anchor
            and self.bracket_table == other.bracket_table
        )

    def __hash__(self):
        return hash((self.chart, self.rank))

    # -- sections -----------------------------------------------------------

    def basis_section(self, i: int) -> "Section":
        return Section(self, [self.one if k == i else self.zero for k in range(self.rank)])

    def frame_anchor_apply(self, i: int, f: CoeffFn) -> CoeffFn:
        """rho(X_i) applied to f."""
        return _sum([a * f.derive(d) for d, a in enumerate(self.anchor[i]) if not a.is_zero],
                    self.zero)


def _sum(terms, zero: CoeffFn) -> CoeffFn:
    """The sum of a list of CoeffFns, started from its first term: the terms
    in the order of zero + terms[0] + ..., without the zero."""
    return sum(terms[1:], terms[0]) if terms else zero


class Section:
    """X = sum_i h_i * X_i with CoeffFn coefficients."""

    def __init__(self, parent: LieRinehart, coeffs):
        if len(coeffs) != parent.rank:
            raise ValueError("need one coefficient per frame element")
        self.parent = parent
        self.coeffs = [parent._fn(c) for c in coeffs]

    def _check(self, other: "Section"):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ParentMismatch("sections of different Lie-Rinehart algebras")

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and self.parent == other.parent
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "Section") -> "Section":
        self._check(other)
        return Section(self.parent, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Section":
        return Section(self.parent, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def rmul(self, f: CoeffFn) -> "Section":
        return Section(self.parent, [f * a for a in self.coeffs])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __repr__(self):
        parts = [
            f"({c.text()})*{n}" for c, n in zip(self.coeffs, self.parent.basis_names) if not c.is_zero
        ]
        return " + ".join(parts) if parts else "0"


def anchor_apply(X: Section, f: CoeffFn) -> CoeffFn:
    """The derivation rho(X) applied to f."""
    A = X.parent
    if f.chart != A.chart:
        raise ParentMismatch("function lives on a different chart")
    # a term with h_i = 0 or rho(X_i)(f) = 0 is zero, and is left out
    terms = []
    for i, h in enumerate(X.coeffs):
        if not h.is_zero:
            rho_f = A.frame_anchor_apply(i, f)
            if not rho_f.is_zero:
                terms.append(h * rho_f)
    return _sum(terms, A.zero)


def bracket(X: Section, Y: Section) -> Section:
    """[X, Y] extended from the structure table by the Leibniz rule:
    [X, Y]_k = sum_ij h_i k_j c_ij^k + rho(X)(k_k) - rho(Y)(h_k)."""
    X._check(Y)
    A = X.parent
    pairs = [(h * k, A.bracket_table[i][j])
             for i, h in enumerate(X.coeffs) if not h.is_zero
             for j, k in enumerate(Y.coeffs) if not k.is_zero]
    return Section(A, [sum((hk * c[m] for hk, c in pairs),
                           anchor_apply(X, Y.coeffs[m]) - anchor_apply(Y, X.coeffs[m]))
                       for m in range(A.rank)])


def check_axioms(A: LieRinehart, seed: int = 0xC0FFEE) -> dict:
    """Verify the Lie-Rinehart axioms exactly; returns a pass/fail report.

    Checks antisymmetry of the table, Jacobi on frame triples, anchor
    compatibility rho([X,Y]) = [rhoX, rhoY] on random polynomials, and the
    Leibniz rule with random functions, in the right argument and then in
    the left one.
    """
    rng = random.Random(seed)
    c = A.bracket_table
    basis = [A.basis_section(i) for i in range(A.rank)]

    def with_functions():
        """(x, y, f) on every pair of basis sections, with 5 draws of f each."""
        return ((x, y, CoeffFn(A.chart, random_polynomial(rng, A.chart.dim)))
                for x, y in product(basis, repeat=2) for _ in range(5))

    # Leibniz in the right argument, [X, f Y] - rho(X)(f) Y = f [X, Y], then
    # in the left one, [f X, Y] + rho(Y)(f) X = f [X, Y]
    sides = (("Leibniz fails on",
              lambda x, y, f: bracket(x, y.rmul(f)) - y.rmul(anchor_apply(x, f))),
             ("Leibniz fails in the left argument on",
              lambda x, y, f: bracket(x.rmul(f), y) + x.rmul(anchor_apply(y, f))))
    checks = [
        law("antisymmetry", product(range(A.rank), repeat=3),
            lambda i, j, k: (c[i][j][k] + c[j][i][k]).is_zero,
            lambda i, j, k: f"c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]"),
        law("jacobi", product(basis, repeat=3),
            lambda x, y, z: (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                             + bracket(z, bracket(x, y))).is_zero,
            lambda x, y, z: f"Jacobi fails on ({x!r}, {y!r}, {z!r})"),
        law("anchor_bracket", with_functions(),
            lambda x, y, p: anchor_apply(bracket(x, y), p)
            == anchor_apply(x, anchor_apply(y, p)) - anchor_apply(y, anchor_apply(x, p)),
            lambda x, y, p: f"anchor not a Lie map on ({x!r},{y!r},{p!r})"),
        law("leibniz", ((fails, moved, *case) for fails, moved in sides
                        for case in with_functions()),
            lambda _, moved, x, y, f: (moved(x, y, f) - bracket(x, y).rmul(f)).is_zero,
            lambda fails, _, x, y, f: f"{fails} ({x!r},{y!r},{f!r})"),
    ]
    return {"passed": all(check["pass"] for check in checks), "checks": checks}


def frame_field(model, i):
    """X-bar_i: the left-invariant extension of the i-th frame element,
    derived from the multiplication polynomials (independent of the frame
    stored on the model)."""
    n = model.arrow_chart.dim
    gvars = [Polynomial.var(n, k) for k in range(n)]
    subs = gvars + [model.along_source(p) for p in model.unit_map]
    v = [model.along_source(p) for p in model.unit_frame[i]]
    field = []
    for d in range(n):
        acc = Polynomial(n, {})
        for e in range(n):
            J = model.mult_map[d].derive(n + e).substitute(subs)
            acc = acc + J * v[e]
        field.append(acc)
    return field


def _along(V, P: Polynomial) -> Polynomial:
    """The derivative of P along the polynomial vector field V."""
    return sum((v * P.derive(e) for e, v in enumerate(V)), Polynomial(P.nvars, {}))


def field_commutator(V, W):
    return [_along(V, w) - _along(W, v) for v, w in zip(V, W)]


def algebroid_of_groupoid(model) -> LieRinehart:
    """The stored algebroid of a groupoid model, re-verified independently.

    For each frame element the left-invariant extension must be tangent to
    t-fibers, push to the anchor under ds at units, and the commutators of
    the extensions must reproduce the bracket table.  Every call runs the
    whole check; the structure builders of models call it once per kind.
    """
    A = model.algebroid
    nv = model.arrow_chart.dim
    fields = [frame_field(model, i) for i in range(A.rank)]
    for i, V in enumerate(fields):
        if V != list(model.frame[i]):
            raise VerificationFailed(f"stored frame field {i} disagrees with dL_g derivation")
        # tangency: dt(V) = 0 as a polynomial identity
        if not all(_along(V, tm).is_zero for tm in model.t_map):
            raise VerificationFailed(f"frame field {i} is not tangent to t-fibers")
        # anchor: ds(V) at units equals rho(X_i)
        for m, sm in enumerate(model.s_map):
            at_units = _along(V, sm).substitute(model.unit_map)
            expected = A.anchor[i][m]
            if not (expected.is_poly and expected.poly == at_units):
                raise VerificationFailed(f"frame field {i} anchor mismatch on axis {m}")
    for i in range(A.rank):
        for j in range(A.rank):
            comm = field_commutator(fields[i], fields[j])
            want = [Polynomial(nv, {}) for _ in range(nv)]
            for k in range(A.rank):
                c = A.bracket_table[i][j][k]
                if c.is_zero:
                    continue
                if not c.is_poly:
                    raise VerificationFailed("non-polynomial structure constants")
                ck = model.along_source(c.poly)
                want = [w + ck * v for w, v in zip(want, fields[k])]
            if comm != want:
                raise VerificationFailed(f"bracket table mismatch at pair ({i},{j})")
    return A


# ---------------------------------------------------------------------------
# Desk-model structure data
# ---------------------------------------------------------------------------


def tangent_line_algebroid() -> LieRinehart:
    """Rank-1 algebroid of the pair groupoid over the line: anchor d/dt."""
    chart = Chart.line("M")
    one = CoeffFn.const(chart, 1)
    zero = CoeffFn.const(chart, 0)
    return LieRinehart(chart, 1, [[one]], [[[zero]]], ["D"])


def heisenberg_algebra() -> LieRinehart:
    """h3 over a point: [X, Y] = Z, anchor zero."""
    chart = Chart.point("pt")
    zero = CoeffFn.const(chart, 0)
    one = CoeffFn.const(chart, 1)
    z3 = [zero, zero, zero]
    bracket_table = [[list(z3) for _ in range(3)] for _ in range(3)]
    bracket_table[0][1] = [zero, zero, one]
    bracket_table[1][0] = [zero, zero, -one]
    return LieRinehart(chart, 3, [[], [], []], bracket_table, ["X", "Y", "Z"])


def rank_zero_algebroid(chart: Chart) -> LieRinehart:
    """The zero algebroid of an etale groupoid."""
    return LieRinehart(chart, 0, [], [], [])
