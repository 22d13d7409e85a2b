"""Universal enveloping algebra of a Lie-Rinehart algebra, in PBW form.

Elements are stored as a map from exponent vectors (a_1, ..., a_r) to
CoeffFn coefficients, representing  sum f_a * X_1^a1 ... X_r^ar.  The
product is computed by terminating rewriting:

    X_i * f   ->  f * X_i + X_i(f)          (anchor)
    X_j * X_i ->  X_i * X_j + [X_j, X_i]    (bracket table, j > i)

Each rewrite strictly decreases (degree, inversions), so normalization
terminates even with function coefficients in the bracket table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import CoeffFn
from .errors import ChartMismatch, DomainError, ParentMismatch, VerificationFailed
from .lie_rinehart import LieRinehart, Section


class UEAElement:
    __slots__ = ("parent", "terms")

    def __init__(self, parent: LieRinehart, terms=None):
        self.parent = parent
        clean = {}
        for exp, f in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != parent.rank or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if not isinstance(f, CoeffFn):
                f = parent._fn(f)
            if f.chart != parent.chart:
                raise ChartMismatch("coefficient on wrong chart")
            if not f.is_zero:
                clean[exp] = clean.get(exp, CoeffFn.const(parent.chart, 0)) + f
        self.terms = {e: f for e, f in clean.items() if not f.is_zero}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(parent) -> "UEAElement":
        return UEAElement(parent, {})

    @staticmethod
    def one(parent) -> "UEAElement":
        return UEAElement.from_coeff(parent, CoeffFn.const(parent.chart, 1))

    @staticmethod
    def from_coeff(parent, f) -> "UEAElement":
        if not isinstance(f, CoeffFn):
            f = parent._fn(f)
        return UEAElement(parent, {tuple([0] * parent.rank): f})

    @staticmethod
    def generator(parent, i: int) -> "UEAElement":
        exp = [0] * parent.rank
        exp[i] = 1
        return UEAElement(parent, {tuple(exp): CoeffFn.const(parent.chart, 1)})

    @staticmethod
    def from_section(X: Section) -> "UEAElement":
        terms = {}
        for i, h in enumerate(X.coeffs):
            exp = [0] * X.parent.rank
            exp[i] = 1
            terms[tuple(exp)] = h
        return UEAElement(X.parent, terms)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Filtration degree; -1 for zero."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree0(self) -> CoeffFn:
        return self.terms.get(tuple([0] * self.parent.rank), CoeffFn.const(self.parent.chart, 0))

    def __eq__(self, other):
        return (
            isinstance(other, UEAElement)
            and self.parent == other.parent
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.parent), frozenset(self.terms.items())))

    def _check(self, other: "UEAElement"):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ParentMismatch("elements of different enveloping algebras")

    def __add__(self, other: "UEAElement") -> "UEAElement":
        self._check(other)
        terms = dict(self.terms)
        for e, f in other.terms.items():
            terms[e] = terms.get(e, CoeffFn.const(self.parent.chart, 0)) + f
        return UEAElement(self.parent, terms)

    def __neg__(self):
        return UEAElement(self.parent, {e: -f for e, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "UEAElement":
        return UEAElement(self.parent, {e: f.scale(c) for e, f in self.terms.items()})

    def coeff_mul(self, f: CoeffFn) -> "UEAElement":
        """Left multiplication by the coefficient ring: f * u."""
        return UEAElement(self.parent, {e: f * g for e, g in self.terms.items()})

    def map_coeffs(self, fn) -> "UEAElement":
        return UEAElement(self.parent, {e: fn(f) for e, f in self.terms.items()})

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self.parent.basis_names
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            f = self.terms[e]
            mono = " ".join(
                names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k
            )
            ftxt = f.text()
            if "+" in ftxt or (mono and "*" in ftxt):
                ftxt = f"({ftxt})"
            parts.append(f"{ftxt} * {mono}" if mono else ftxt)
        return " + ".join(parts)

    def __repr__(self):
        return f"UEA[{self.text()}]"


# ---------------------------------------------------------------------------
# Product by rewriting
# ---------------------------------------------------------------------------


def _left_mul_gen(i: int, u: UEAElement) -> UEAElement:
    """Normal form of X_i * u."""
    A = u.parent
    out = UEAElement.zero(A)
    for exp, g in u.terms.items():
        # X_i * g X^exp = g * (X_i X^exp) + X_i(g) X^exp
        body = _gen_times_monomial(A, i, exp)
        out = out + body.coeff_mul(g)
        dg = A.frame_anchor_apply(i, g)
        if not dg.is_zero:
            out = out + UEAElement(A, {exp: dg})
    return out


def _gen_times_monomial(A: LieRinehart, i: int, exp: tuple) -> UEAElement:
    """Normal form of X_i * X^exp for a bare monomial."""
    first = next((j for j, k in enumerate(exp) if k), None)
    if first is None or i <= first:
        e2 = list(exp)
        e2[i] += 1
        return UEAElement(A, {tuple(e2): CoeffFn.const(A.chart, 1)})
    # i > first: X_i X_first X^rest = X_first X_i X^rest + [X_i, X_first] X^rest
    rest = list(exp)
    rest[first] -= 1
    rest = tuple(rest)
    straight = _left_mul_gen(first, _gen_times_monomial(A, i, rest))
    corr = UEAElement.zero(A)
    rest_elem = UEAElement(A, {rest: CoeffFn.const(A.chart, 1)})
    for k, c in enumerate(A.bracket_table[i][first]):
        if not c.is_zero:
            corr = corr + _left_mul_gen(k, rest_elem).coeff_mul(c)
    return straight + corr


def uea_mul(u: UEAElement, v: UEAElement) -> UEAElement:
    """PBW normal form of the product u * v."""
    u._check(v)
    A = u.parent
    out = UEAElement.zero(A)
    for exp, f in u.terms.items():
        word = [i for i, k in enumerate(exp) for _ in range(k)]
        acc = v
        for i in reversed(word):
            acc = _left_mul_gen(i, acc)
        out = out + acc.coeff_mul(f)
    return out


# ---------------------------------------------------------------------------
# Coalgebra structure
# ---------------------------------------------------------------------------


class TensorElement:
    """Element of U tensor_R U, coefficients pulled to a single scalar slot.

    Both factors are left R-modules and the tensor product is balanced over
    the commutative coefficient ring, so every term can be written as
    f * (X^a tensor X^b); terms maps (a, b) to f.
    """

    __slots__ = ("parent", "terms")

    def __init__(self, parent: LieRinehart, terms=None):
        self.parent = parent
        clean = {}
        for (a, b), f in (terms or {}).items():
            a, b = tuple(a), tuple(b)
            if not f.is_zero:
                key = (a, b)
                clean[key] = clean.get(key, CoeffFn.const(parent.chart, 0)) + f
        self.terms = {k: f for k, f in clean.items() if not f.is_zero}

    @staticmethod
    def of(u: UEAElement, v: UEAElement) -> "TensorElement":
        """u tensor v, canonicalized by pulling both coefficients out."""
        A = u.parent
        terms = {}
        for a, f in u.terms.items():
            for b, g in v.terms.items():
                key = (a, b)
                fg = f * g
                prev = terms.get(key)
                terms[key] = fg if prev is None else prev + fg
        return TensorElement(A, terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.parent == other.parent
            and self.terms == other.terms
        )

    def __add__(self, other: "TensorElement") -> "TensorElement":
        terms = dict(self.terms)
        for k, f in other.terms.items():
            terms[k] = terms.get(k, CoeffFn.const(self.parent.chart, 0)) + f
        return TensorElement(self.parent, terms)

    def __neg__(self):
        return TensorElement(self.parent, {k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def swap(self) -> "TensorElement":
        return TensorElement(self.parent, {(b, a): f for (a, b), f in self.terms.items()})

    def pure_tensors(self):
        """List of (u, v) pairs with the coefficient carried by u."""
        A = self.parent
        out = []
        for (a, b), f in self.terms.items():
            out.append((UEAElement(A, {a: f}), UEAElement(A, {b: CoeffFn.const(A.chart, 1)})))
        return out

    def mul(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product (u tensor v)(u' tensor v') = uu' tensor vv'."""
        A = self.parent
        out = TensorElement(A, {})
        for u1, v1 in self.pure_tensors():
            for u2, v2 in other.pure_tensors():
                out = out + TensorElement.of(uea_mul(u1, u2), uea_mul(v1, v2))
        return out

    def act_right_left_slot(self, f: CoeffFn) -> "TensorElement":
        """Multiply f into the left tensor factor from the right."""
        A = self.parent
        out = TensorElement(A, {})
        rf = UEAElement.from_coeff(A, f)
        for u, v in self.pure_tensors():
            out = out + TensorElement.of(uea_mul(u, rf), v)
        return out

    def act_right_right_slot(self, f: CoeffFn) -> "TensorElement":
        """Multiply f into the right tensor factor from the right."""
        A = self.parent
        out = TensorElement(A, {})
        rf = UEAElement.from_coeff(A, f)
        for u, v in self.pure_tensors():
            out = out + TensorElement.of(u, uea_mul(v, rf))
        return out


def coproduct(u: UEAElement) -> TensorElement:
    """Delta(u): generators are primitive, coefficients are grouplike-scalar."""
    A = u.parent
    out = TensorElement(A, {})
    one = UEAElement.one(A)
    for exp, f in u.terms.items():
        acc = TensorElement.of(one, one)
        for i, k in enumerate(exp):
            gen = UEAElement.generator(A, i)
            prim = TensorElement.of(one, gen) + TensorElement.of(gen, one)
            for _ in range(k):
                acc = acc.mul(prim)
        out = out + TensorElement(A, {key: f * g for key, g in acc.terms.items()})
    return out


def counit(u: UEAElement) -> CoeffFn:
    """epsilon(u): the degree-0 coefficient, checked equal to rho(u)(1)."""
    eps = u.degree0()
    if eps != anchor_rep(u, CoeffFn.const(u.parent.chart, 1)):
        raise VerificationFailed("counit characterizations disagree")
    return eps


def anchor_rep(u: UEAElement, f: CoeffFn) -> CoeffFn:
    """The anchor representation rho(u) applied to f."""
    A = u.parent
    if f.chart != A.chart:
        raise ChartMismatch("function on wrong chart")
    out = CoeffFn.const(A.chart, 0)
    for exp, g in u.terms.items():
        word = [i for i, k in enumerate(exp) for _ in range(k)]
        acc = f
        for i in reversed(word):
            acc = A.frame_anchor_apply(i, acc)
        out = out + g * acc
    return out


def is_primitive(u: UEAElement) -> bool:
    """Delta(u) = 1 tensor u + u tensor 1, exactly."""
    one = UEAElement.one(u.parent)
    diff = coproduct(u) - TensorElement.of(one, u) - TensorElement.of(u, one)
    return diff.is_zero


# ---------------------------------------------------------------------------
# Germs (localization at a base point)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GermUEA:
    """An enveloping-algebra element considered near a base point."""

    base_point: tuple
    elem: UEAElement

    def __post_init__(self):
        dom = self.elem.parent.chart.domain
        if not dom.contains(self.base_point) and not dom.is_whole:
            raise DomainError("base point outside chart domain")

    @property
    def is_zero(self) -> bool:
        return all(f.has_zero_germ_at(self.base_point) for f in self.elem.terms.values())


def uea_germ(u: UEAElement, x) -> GermUEA:
    return GermUEA(tuple(x), u)


def uea_germ_eq(a: GermUEA, b: GermUEA) -> bool:
    if a.base_point != b.base_point:
        raise ChartMismatch("germs at different base points")
    return GermUEA(a.base_point, a.elem - b.elem).is_zero
