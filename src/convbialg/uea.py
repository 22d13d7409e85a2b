"""Universal enveloping algebra of a Lie-Rinehart algebra, in PBW form.

Elements are stored as a map from exponent vectors (a_1, ..., a_r) to
CoeffFn coefficients, representing  sum f_a * X_1^a1 ... X_r^ar.  The
product is computed by terminating rewriting:

    X_i * f   ->  f * X_i + X_i(f)          (anchor)
    X_j * X_i ->  X_i * X_j + [X_j, X_i]    (bracket table, j > i)

Each rewrite strictly decreases (degree, inversions), so normalization
terminates even with function coefficients in the bracket table.  The
normal form of X_i * X^exp for a bare monomial depends only on the algebra,
so it is rewritten once per (algebra, i, exp) and kept in the algebra's
`derived` store (key ("pbw", i, exp)); an algebra's anchor and table are
tuples and never change.

An action of U(A) is fixed by its generators: `act` walks the word of each
monomial (`pbw_word`) for uea_mul, anchor_rep and Omega (dist), and
adjoint.ad_uea multiplies the images of the same word.

TermSum is the canonical form shared by every finite formal sum of the
package: UEAElement and TensorElement here, ConvElement, ConvTensor and
TransvDist (through BisectionSum) in conv and dist.  A sum is built once,
from (key, value) pairs, by TermSum.merge.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod

from .coeffs import CoeffFn, Value, check_exponents
from .errors import ChartMismatch, ParentMismatch, VerificationFailed
from .lie_rinehart import LieRinehart


class TermSum:
    """A finite formal sum  sum_k v_k [k]  over a context: the algebra or
    model its keys and values belong to.

    `terms` maps each key to its nonzero value, in the order the keys first
    appear.  Values are immutable and support `+`, unary `-`, `scale` and
    `is_zero`.  The constructor takes a dict or an iterable of (key, value)
    pairs; subclasses name the context `parent` or `model`.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = self.merge(self._pairs(terms))

    @staticmethod
    def _pairs(terms):
        """The (key, value) pairs of a dict, or the given iterable of pairs."""
        if terms is None:
            return ()
        return terms.items() if isinstance(terms, dict) else terms

    @staticmethod
    def merge(pairs) -> dict:
        """The canonical form of a list of terms: zero values are skipped,
        values with equal keys are added in the order the keys first
        appear, and keys whose values cancel are dropped.  A key that
        cancels keeps its place, so one that comes back later stays where
        it first appeared; the dict is filtered, in a second pass, only
        when some addition cancelled."""
        out = {}
        cancelled = False
        for k, v in pairs:
            if v.is_zero:
                continue
            prev = out.get(k)
            if prev is not None:
                v = prev + v
                cancelled = cancelled or v.is_zero
            out[k] = v
        if not cancelled:
            return out
        return {k: v for k, v in out.items() if not v.is_zero}

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @property
    def is_zero(self) -> bool:
        """Zero in canonical form (no terms)."""
        return not self.terms

    def _check(self, other: "TermSum"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ParentMismatch("sums over different algebras or models")

    def _like(self, pairs):
        """A sum of the same type over the same context."""
        return type(self)(self.ctx, pairs)

    def plus(self, parts) -> "TermSum":
        """self plus every sum in parts, merged in one pass."""
        pairs = list(self.terms.items())
        for p in parts:
            self._check(p)
            pairs.extend(p.terms.items())
        return self._like(pairs)

    def __add__(self, other: "TermSum") -> "TermSum":
        return self.plus((other,))

    def __neg__(self):
        return self._like((k, -v) for k, v in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like((k, v.scale(c)) for k, v in self.terms.items())

    def __eq__(self, other):
        """Canonical-form equality: same type, same context, same terms."""
        return (
            type(other) is type(self)
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class UEAElement(TermSum):
    __slots__ = ()
    parent = TermSum.ctx  # the context slot under its usual name

    def __init__(self, parent: LieRinehart, terms=None):
        """Terms map exponent vectors to coefficients; each exponent and
        chart is checked, and plain numbers become constant coefficients."""
        self.parent = parent
        self.terms = self.merge(_uea_term(parent, exp, f) for exp, f in self._pairs(terms))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(parent: LieRinehart, terms) -> "UEAElement":
        """The trusted constructor: every exponent is already a tuple of
        parent.rank ints >= 0 and every coefficient a CoeffFn on parent's
        chart.  The terms are merged, not checked again."""
        u = UEAElement.__new__(UEAElement)
        TermSum.__init__(u, parent, terms)
        return u

    def _like(self, pairs):
        return UEAElement._raw(self.parent, pairs)

    @staticmethod
    def one(parent) -> "UEAElement":
        return UEAElement._raw(parent, [((0,) * parent.rank, parent.one)])

    @staticmethod
    def from_coeff(parent, f) -> "UEAElement":
        """f as an element of degree 0; f is checked to be on parent's chart."""
        return UEAElement._raw(parent, [(tuple([0] * parent.rank), _uea_coeff(parent, f))])

    @staticmethod
    def generator(parent, i: int) -> "UEAElement":
        exp = [0] * parent.rank
        exp[i] = 1
        return UEAElement._raw(parent, {tuple(exp): parent.one})

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        """Filtration degree; -1 for zero."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree0(self) -> CoeffFn:
        return self.terms.get((0,) * self.parent.rank, self.parent.zero)

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


def _uea_term(parent: LieRinehart, exp, f):
    """One term of an enveloping-algebra element, checked."""
    return check_exponents(exp, parent.rank), _uea_coeff(parent, f)


def _uea_coeff(parent: LieRinehart, f) -> CoeffFn:
    """A coefficient over parent, checked; numbers and polynomials convert."""
    f = parent._fn(f)
    if f.chart != parent.chart:
        raise ChartMismatch("coefficient on wrong chart")
    return f


# ---------------------------------------------------------------------------
# Product by rewriting
# ---------------------------------------------------------------------------


def _left_mul_gen(i: int, u: UEAElement) -> UEAElement:
    """Normal form of X_i * u."""
    A = u.parent
    pairs = []
    for exp, g in u.terms.items():
        # X_i * g X^exp = g * (X_i X^exp) + X_i(g) X^exp
        body = _gen_monomial(A, i, exp)
        pairs.extend((e, g * f) for e, f in body.terms.items())
        pairs.append((exp, A.frame_anchor_apply(i, g)))
    return UEAElement._raw(A, pairs)


def _gen_monomial(A: LieRinehart, i: int, exp: tuple) -> UEAElement:
    """Normal form of X_i * X^exp, kept on A: rewritten by
    _gen_times_monomial once per (A, i, exp)."""
    return A.derive_once(("pbw", i, exp), lambda: _gen_times_monomial(A, i, exp))


def _gen_times_monomial(A: LieRinehart, i: int, exp: tuple) -> UEAElement:
    """Normal form of X_i * X^exp for a bare monomial, by rewriting."""
    first = next((j for j, k in enumerate(exp) if k), None)
    if first is None or i <= first:
        e2 = list(exp)
        e2[i] += 1
        return UEAElement._raw(A, {tuple(e2): A.one})
    # i > first: X_i X_first X^rest = X_first X_i X^rest + [X_i, X_first] X^rest
    rest = list(exp)
    rest[first] -= 1
    rest = tuple(rest)
    pairs = list(_left_mul_gen(first, _gen_monomial(A, i, rest)).terms.items())
    rest_elem = UEAElement._raw(A, {rest: A.one})
    for k, c in enumerate(A.bracket_table[i][first]):
        if not c.is_zero:
            pairs.extend((e, c * f) for e, f in _left_mul_gen(k, rest_elem).terms.items())
    return UEAElement._raw(A, pairs)


def pbw_word(exp: tuple) -> list:
    """The generators whose product is X^exp = X_1^a_1 ... X_r^a_r, in order."""
    return [i for i, k in enumerate(exp) for _ in range(k)]


def act(gen, u: UEAElement, x):
    """(f, X^a . x) for each term f X^a of u, given the generator action
    gen(i, y) = X_i . y: the word of X^a is applied to x last generator first."""
    for exp, f in u.terms.items():
        acc = x
        for i in reversed(pbw_word(exp)):
            acc = gen(i, acc)
        yield f, acc


def uea_mul(u: UEAElement, v: UEAElement) -> UEAElement:
    """PBW normal form of the product u * v."""
    u._check(v)
    return UEAElement._raw(u.parent, [(e, f * g) for f, acc in act(_left_mul_gen, u, v)
                                      for e, g in acc.terms.items()])


# ---------------------------------------------------------------------------
# Coalgebra structure
# ---------------------------------------------------------------------------


class TensorElement(TermSum):
    """Element of U tensor_R U, coefficients pulled to a single scalar slot.

    Both factors are left R-modules and the tensor product is balanced over
    the commutative coefficient ring, so every term can be written as
    f * (X^a tensor X^b); terms maps (a, b) to f.
    """

    __slots__ = ()
    parent = TermSum.ctx

    @staticmethod
    def of(u: UEAElement, v: UEAElement) -> "TensorElement":
        """u tensor v, canonicalized by pulling both coefficients out."""
        return TensorElement(u.parent, [((a, b), f * g) for a, f in u.terms.items()
                                        for b, g in v.terms.items()])

    def swap(self) -> "TensorElement":
        return self._like(((b, a), f) for (a, b), f in self.terms.items())

    def pure_tensors(self):
        """List of (u, v) pairs with the coefficient carried by u."""
        A = self.parent
        return [(UEAElement._raw(A, {a: f}), UEAElement._raw(A, {b: A.one}))
                for (a, b), f in self.terms.items()]

    def mul(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product (u tensor v)(u' tensor v') = uu' tensor vv'."""
        return TensorElement.zero(self.parent).plus(
            TensorElement.of(uea_mul(u1, u2), uea_mul(v1, v2))
            for u1, v1 in self.pure_tensors()
            for u2, v2 in other.pure_tensors()
        )

    def map_slots(self, left=None, right=None) -> "TensorElement":
        """The sum of left(u) tensor right(v) over the pure tensors u tensor v;
        None is the identity.  With u -> u * f on either slot this is the
        right R-action there."""
        return TensorElement.zero(self.parent).plus(
            TensorElement.of(u if left is None else left(u), v if right is None else right(v))
            for u, v in self.pure_tensors()
        )


def coproduct(u: UEAElement) -> TensorElement:
    """Delta(f X^a) = sum_{b <= a} prod_i C(a_i, b_i) * f X^b tensor X^(a-b):
    generators are primitive, coefficients are grouplike-scalar."""
    return TensorElement(u.parent, [
        ((b, tuple(k - j for k, j in zip(a, b))), f.scale(prod(map(comb, a, b))))
        for a, f in u.terms.items()
        for b in product(*(range(k + 1) for k in a))])


def counit(u: UEAElement) -> CoeffFn:
    """epsilon(u): the degree-0 coefficient, checked equal to rho(u)(1)."""
    eps = u.degree0()
    if eps != anchor_rep(u, u.parent.one):
        raise VerificationFailed("counit characterizations disagree")
    return eps


def anchor_rep(u: UEAElement, f: CoeffFn) -> CoeffFn:
    """The anchor representation rho(u) applied to f."""
    A = u.parent
    if f.chart != A.chart:
        raise ChartMismatch("function on wrong chart")
    out = A.zero
    for g, acc in act(A.frame_anchor_apply, u, f):
        out = out + g * acc
    return out


# ---------------------------------------------------------------------------
# Germs (localization at a base point)
# ---------------------------------------------------------------------------


class GermUEA(Value):
    """An enveloping-algebra element considered near a base point."""

    __slots__ = ("base_point", "elem")

    @property
    def is_zero(self) -> bool:
        return all(f.has_zero_germ_at(self.base_point) for f in self.elem.terms.values())
