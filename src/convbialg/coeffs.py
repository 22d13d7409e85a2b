"""Exact coefficient functions on charts.

Coefficient functions play the role of scalar functions on the base or
arrow space of a groupoid model.  Two families are supported:

* multivariate polynomials with rational coefficients, and
* a one-dimensional "flat piecewise" family: a polynomial plus, on each
  side of t = 0, a finite sum  sum_k c_k * t^(-k) * exp(-1/t^2).

The second family contains the increasing diffeomorphism kinks
t + c*phi(t), where phi(t) = sign(t)*exp(-1/t^2) (phi(0) = 0), and is
closed under derivative, addition and scaling by rationals.  It is *not*
closed under general products or compositions; those raise
UnsupportedProduct / UnsupportedComposition.

Scalars are exact rationals in one canonical form: an int when the value
is integral, else a Fraction with denominator > 1; never a float, a bool
or Fraction(n, 1).  Most coefficients are integral, and int arithmetic is
much cheaper than Fraction arithmetic.  An int keeps the ==, hash and str
of the equal Fraction, but int / int is a float: every division that can
see two ints goes through Q (Fraction), as in Q(a, b) or Q(a) / b, and a
negative power needs a Fraction base.

`Polynomial.at` puts values into a polynomial in any ring that has `*`,
`+` and a constant map: coefficient functions, floats (`Polynomial.eval`
at a point with a float), float jets.  Two rings have their own loops with
the results of `at`: `Polynomial.substitute` puts polynomials in and adds
the terms in place into one dict, building no constant per term, and
`Polynomial.eval` at a rational point sums the terms as one integer
numerator over one integer denominator, building one Fraction per value.
`substitute` builds the product of the values for a monomial from the one
for the monomial with one unit less in its last nonzero variable, as `at`
associates it, and keeps each product in an images store: a fresh one per
call, or one that the owner of a fixed map keeps with it, so that each
product is made once per map.

Coefficient arithmetic that does nothing costs nothing: a `CoeffFn`
product with a zero factor returns that zero and one with a factor 1 the
other factor itself, a sum with a zero summand returns the other summand,
and `scale(1)` returns the function itself (no `Polynomial` or `CoeffFn`
is ever mutated, so a result may be an operand).  A product or a sum of
two rational constants, as every coefficient on a point chart is, is one
rational operation, built by `CoeffFn.const`.  Each result equals the
general path's, key for key, in order and in scalar type.

A Region, the domain of a bisection, is a finite union of open intervals of
the line: the base of every model is the line or a point.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    ChartMismatch,
    DomainError,
    ParseError,
    UnsupportedComposition,
    UnsupportedProduct,
)

Q = Fraction


def _q(x):
    """x as a canonical scalar: an int when it is integral, else a Fraction
    (with denominator > 1).  A float is refused; a bool becomes its int."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x if x.denominator != 1 else x.numerator
    if isinstance(x, (int, str)):
        return _q(Fraction(x))
    raise TypeError(f"not an exact rational: {x!r}")


def _canonical(terms: dict) -> dict:
    """terms without zero values, and each integral Fraction value as its
    int numerator; the order is kept."""
    return {k: c if type(c) is int or c.denominator != 1 else c.numerator
            for k, c in terms.items() if c}


def to_float(x) -> float:
    """float(x), where a float path starts; DomainError beyond float range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError("a value beyond float range") from None


def check_exponents(exp, n: int) -> tuple:
    """exp as a tuple of n ints >= 0, else ValueError.  Only an int is an
    exponent: a float or a bool is rejected even where int() would take it."""
    exp = tuple(exp)
    if len(exp) != n or not all(type(e) is int and e >= 0 for e in exp):
        raise ValueError(f"bad exponent tuple {exp!r}")
    return exp


# Caps on input: the total degree of a parsed term, the magnitude of a flat
# key or power, and the magnitude of a decimal exponent in a rational literal.
MAX_DEGREE = 64
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"e([+-]?\d+(?:_\d+)*)\s*$", re.I)


def _bounded_int(text: str, cap: int):
    """The int that text writes (as int() reads it), when its magnitude is
    at most cap; else None.  A long digit string, leading zeros counted,
    is never converted: int() refuses one past 4,300 digits."""
    m = re.fullmatch(r"\s*([+-]?)(\d+(?:_\d+)*)\s*", text)
    digits = m and (m.group(2).replace("_", "").lstrip("0") or "0")
    if m and len(digits) <= len(str(cap)) and int(digits) <= cap:
        return int(m.group(1) + digits)
    return None


def read_degree(text, what: str) -> int:
    """An exponent or flat key from input, as an int of magnitude at most
    MAX_DEGREE; ParseError otherwise."""
    value = _bounded_int(str(text), MAX_DEGREE)
    if value is None:
        raise ParseError(f"{what} above {MAX_DEGREE} in magnitude")
    return value


def check_degree(exp) -> None:
    """ParseError when a parsed term's total degree is above MAX_DEGREE."""
    if sum(exp) > MAX_DEGREE:
        raise ParseError(f"a term of total degree above {MAX_DEGREE}")


def _clipped(text: str) -> str:
    """text for an error message: as it is, or its first 20 characters and
    its length when it is longer."""
    return text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"


def parse_rational(value) -> Fraction:
    """A rational read from outside the program: a literal such as "3",
    "-2/5", "0.25" or "1e300", or a number; ParseError when it is not one,
    or when its decimal exponent is above MAX_EXPONENT in magnitude.  The
    exponent is rewritten from its value, so leading zeros cost nothing."""
    literal = value
    m = _EXPONENT.search(value) if isinstance(value, str) else None
    if m:
        exponent = _bounded_int(m.group(1), MAX_EXPONENT)
        if exponent is None:
            raise ParseError(f"decimal exponent above {MAX_EXPONENT} in magnitude")
        literal = f"{value[:m.start(1)]}{exponent}{value[m.end(1):]}"
    try:
        return Q(literal)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise ParseError(f"bad rational {_clipped(repr(value))}") from None


class DeriveOnce:
    """An owner (a model, a model structure, a bisection, an algebra) whose
    data never change once built: `derived` keeps each datum derived from
    them, by key, from its first use on; a computation that raises stores
    nothing."""

    __slots__ = ()

    def derive_once(self, key, compute):
        """derived[key], computed by compute() on first use."""
        value = self.derived.get(key)
        if value is None:
            value = self.derived[key] = compute()
        return value


# ---------------------------------------------------------------------------
# Value classes: regions and charts
# ---------------------------------------------------------------------------


class Value:
    """A small immutable value, as a frozen dataclass is one: the fields
    named in `__slots__` are set once, by __init__ in their order, and kept
    together in `_values` too; two values are equal when they are of one
    class with equal fields; the hash and the repr are those of the fields.
    (The dataclasses module, with the inspect module that it imports, costs
    every process about 1 MB and 10 ms of import.)"""

    __slots__ = ("_values",)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        object.__setattr__(self, "_values", values)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Region(Value):
    """A finite union of open intervals of the line: `intervals` is a tuple of
    (lo, hi) pairs of rationals, None on an unbounded side.  A point-base
    bisection takes the whole region, of which only is_whole is asked."""

    __slots__ = ("intervals",)

    @staticmethod
    def whole() -> "Region":
        return Region(((None, None),))

    @staticmethod
    def interval(lo, hi) -> "Region":
        lo = None if lo is None else _q(lo)
        hi = None if hi is None else _q(hi)
        if lo is not None and hi is not None and not lo < hi:
            raise ValueError("need lo < hi")
        return Region(((lo, hi),))

    @staticmethod
    def union(*regions: "Region") -> "Region":
        if not regions:
            raise ValueError("empty union")
        return Region(tuple(iv for r in regions for iv in r.intervals))

    @property
    def is_whole(self) -> bool:
        return (None, None) in self.intervals

    def contains(self, x) -> bool:
        """Is the coordinate x in the region?"""
        return any((lo is None or x > lo) and (hi is None or x < hi)
                   for lo, hi in self.intervals)

    def intersect(self, other: "Region") -> "Region":
        out = []
        for lo1, hi1 in self.intervals:
            for lo2, hi2 in other.intervals:
                lo = lo1 if lo2 is None else (lo2 if lo1 is None else max(lo1, lo2))
                hi = hi1 if hi2 is None else (hi2 if hi1 is None else min(hi1, hi2))
                if lo is None or hi is None or lo < hi:
                    out.append((lo, hi))
        return Region(tuple(out))

    def affine_image(self, p: Fraction, q: Fraction) -> "Region":
        """Image of the region under t -> p*t + q (p != 0)."""
        p, q = _q(p), _q(q)
        if p == 0:
            raise ValueError("degenerate affine map")
        ends = [tuple(None if e is None else p * e + q for e in iv) for iv in self.intervals]
        return Region(tuple(iv if p > 0 else iv[::-1] for iv in ends))


class Chart(Value):
    """A chart: R^dim with a name.  A 0-dimensional chart is a single point."""

    __slots__ = ("dim", "name")

    def __init__(self, dim: int, name: str = "chart"):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        super().__init__(dim, name)

    @staticmethod
    def line(name: str = "R") -> "Chart":
        return Chart(1, name)

    @staticmethod
    def point(name: str = "pt") -> "Chart":
        return Chart(0, name)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse multivariate polynomial over the rationals.

    terms maps exponent tuples to nonzero canonical scalars: an int when
    the coefficient is integral, else a Fraction (see the module docstring;
    int / int is a float).  The constructor checks and merges terms from
    outside; the results of the arithmetic below are built by `_raw`, which
    only drops zeros and turns integral Fractions into ints.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exp, c in (terms or {}).items():
            exp = check_exponents(exp, nvars)
            c = _q(c)
            if c != 0:
                clean[exp] = clean.get(exp, 0) + c
        self.terms = _canonical(clean)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(nvars: int, terms: dict) -> "Polynomial":
        """The trusted constructor: terms already maps tuples of nvars ints
        >= 0 to ints or Fractions, each exponent once.  Zero coefficients
        are dropped, integral Fractions become ints, and the order is kept."""
        p = Polynomial.__new__(Polynomial)
        p.nvars = nvars
        p.terms = _canonical(terms)
        return p

    @staticmethod
    def const(nvars: int, c) -> "Polynomial":
        return Polynomial._raw(nvars, {(0,) * nvars: _q(c)})

    @staticmethod
    def var(nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range (nvars={nvars})")
        exp = [0] * nvars
        exp[i] = 1
        return Polynomial._raw(nvars, {tuple(exp): 1})

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get(tuple([0] * self.nvars), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Polynomial._raw(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        # a one-term constant factor (most products in `at`) scales the
        # other factor: the same terms in the same order as the loop below
        for const, poly in ((self, other), (other, self)):
            if len(const.terms) == 1:
                (e, c), = const.terms.items()
                if not any(e):
                    return poly if c == 1 else poly.scale(c)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._raw(self.nvars, terms)

    def scale(self, c) -> "Polynomial":
        c = _q(c)
        return Polynomial._raw(self.nvars, {e: c * k for e, k in self.terms.items()})

    def derive(self, axis: int) -> "Polynomial":
        if not 0 <= axis < self.nvars:
            raise ValueError("axis out of range")
        terms = {}
        for e, c in self.terms.items():
            if e[axis] == 0:
                continue
            e2 = list(e)
            e2[axis] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), 0) + c * e[axis]
        return Polynomial._raw(self.nvars, terms)

    def substitute(self, values: Sequence["Polynomial"], images=None) -> "Polynomial":
        """Plug a polynomial (on a common target variable set) into each of
        its one or more variables.

        The result is `self.at(values, lambda c: Polynomial.const(tgt, c))`
        key for key, in order and in scalar type: each term's values are
        multiplied in variable order and then scaled by its coefficient, and
        the terms are added in dict order into one dict, where a key whose
        sum cancels is dropped at once (so it goes to the end if it comes
        back).

        images keeps the product of the values for each nonconstant
        monomial met, by exponent: a fresh dict by default, else a store
        that its owner keeps for these values alone (see `_image`)."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        tgt = values[0].nvars
        if any(v.nvars != tgt for v in values):
            raise ValueError("substitution targets disagree")
        if images is None:
            images = {}
        total = {}
        for e, c in self.terms.items():
            term = images.get(e)
            if term is None:
                term = _image(e, values, images)
            pairs = (((0,) * tgt, c),) if term is None else (
                (m, c * a) for m, a in term.terms.items())
            for m, a in pairs:
                a += total.get(m, 0)
                if a:
                    total[m] = a
                else:
                    del total[m]
        return Polynomial._raw(tgt, total)

    def at(self, values: Sequence, const):
        """self with values[i] put in for variable i, in the ring of the
        values: coefficient functions, floats or float jets (`substitute`
        and `eval` at a rational point have their own loops).  const(c) is
        the ring's constant c.  Each term is const(c) times each value k
        times in variable order, and the terms are added in dict order, so
        a float ring sees one fixed order of operations."""
        total = const(0)
        for e, c in self.terms.items():
            term = const(c)
            for v, k in zip(values, e):
                for _ in range(k):
                    term = term * v
            total = total + term
        return total

    def embed(self, total: int, offset: int = 0) -> "Polynomial":
        """self on variables offset .. offset + nvars - 1 of a total-variable
        space."""
        if not 0 <= offset <= total - self.nvars:
            raise ValueError("embedding out of range")
        pad = (0,) * (total - offset - self.nvars)
        return Polynomial._raw(total, {(0,) * offset + e + pad: c for e, c in self.terms.items()})

    def eval(self, point: Sequence):
        """The value at a point: a float when a coordinate is one (through
        `at`, in its order of operations), else exact, with the scalar type
        that `at` gives in the rationals.  That is a Fraction when a Fraction
        coefficient, or a Fraction coordinate with a nonzero exponent,
        enters a term, an int otherwise, and Q(0) for the zero polynomial.
        The terms are summed as one integer numerator over one integer
        denominator, so the value makes one Fraction, not one per
        operation."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        if not all(isinstance(x, (int, Fraction)) for x in point):
            return self.at(point, float)
        if not self.terms:
            return Q(0)
        num, den, exact = 0, 1, False
        for e, c in self.terms.items():
            tn, td = c.numerator, c.denominator
            exact = exact or type(c) is not int
            for x, k in zip(point, e):
                if k:
                    tn *= x.numerator ** k
                    td *= x.denominator ** k
                    exact = exact or isinstance(x, Fraction)
            if td == den:
                num += tn
            else:
                num, den = num * td + tn * den, den * td
        return Q(num, den) if exact else num

    # -- text form ----------------------------------------------------------

    def text(self) -> str:
        """Canonical sparse form `c*x0^a0*x1^a1 + ...`."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [str(c)]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i}")
                elif k > 1:
                    factors.append(f"x{i}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.text()})"

    _TERM_RE = re.compile(r"\s*(?P<coeff>[+-]?\d+(?:/\d+)?)?\s*(?P<mons>(?:\*?\s*x\d+(?:\^\d+)?\s*)*)")

    @staticmethod
    def parse(text: str, nvars: int) -> "Polynomial":
        """Parse the canonical sparse form (inverse of .text())."""
        text = text.strip()
        if not text:
            raise ParseError("empty polynomial", 0)
        if text == "0":
            return Polynomial(nvars, {})
        terms = {}
        for chunk in re.split(r"(?<![\^*/])\s*\+\s*", text.replace("- ", "+ -")):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = Polynomial._TERM_RE.fullmatch(chunk)
            if not m or (m.group("coeff") is None and not m.group("mons").strip()):
                raise ParseError(f"bad polynomial term {_clipped(repr(chunk))}")
            coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Q(1)
            exp = [0] * nvars
            for vm in re.finditer(r"x(\d+)(?:\^(\d+))?", m.group("mons")):
                i = _bounded_int(vm.group(1), nvars - 1)
                if i is None:
                    raise ParseError(f"variable x{_clipped(vm.group(1))} out of range "
                                     f"(nvars={nvars})")
                exp[i] += read_degree(vm.group(2) or 1, "exponent")
            check_degree(exp)
            key = tuple(exp)
            terms[key] = terms.get(key, Q(0)) + coeff
        return Polynomial(nvars, terms)


def _image(e: tuple, values: Sequence[Polynomial], images: dict):
    """The product of the values for the monomial e, which images lacks;
    None when e is constant.  It is the product for e with one unit taken
    off its last nonzero variable, times that variable's value: the left to
    right association of `at`.  The products made are kept in images."""
    term, pending = None, []
    while term is None and any(e):
        j = len(e) - 1
        while not e[j]:
            j -= 1
        pending.append((e, values[j]))
        e = e[:j] + (e[j] - 1,) + e[j + 1:]
        term = images.get(e)
    for e, v in reversed(pending):
        term = v if term is None else term * v
        images[e] = term
    return term


# ---------------------------------------------------------------------------
# Flat parts
# ---------------------------------------------------------------------------

# A flat part is a finite sum  sum_k c_k * t^(-k) * exp(-1/t^2)  on one side
# of t = 0, stored as {k: c_k}.  The family is closed under d/dt:
#   d/dt [t^(-k) e^(-1/t^2)] = (-k t^(-k-1) + 2 t^(-k-3)) e^(-1/t^2).


# The two helpers below may leave zero values; CoeffFn._raw drops them.


def _flat_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


def _flat_derive(a: dict) -> dict:
    out = {}
    for k, c in a.items():
        out[k + 1] = out.get(k + 1, 0) - k * c
        out[k + 3] = out.get(k + 3, 0) + 2 * c
    return out


def _flat_checked(part) -> dict:
    """A flat part from outside: keys are ints >= 0, values rationals."""
    out = {}
    for k, c in (part or {}).items():
        if type(k) is not int or k < 0:
            raise ValueError(f"bad flat-part key {k!r}")
        if c != 0:
            out[k] = _q(c)
    return out


def _flat_eval(a: dict, t) -> float:
    tf = to_float(t)
    if tf * tf < 1 / 746:
        # exp(-1/t^2) underflows to 0.0 past 1/t^2 = 745.13
        return 0.0
    damp = math.exp(-1.0 / (tf * tf))
    return sum(to_float(c) * tf ** (-k) for k, c in a.items()) * damp


def _flat_value_coeff(a: dict, t: Fraction) -> Fraction:
    """Exact rational r with value = r * exp(-1/t^2) at rational t != 0."""
    t = Q(t)  # a Fraction, so that t ** (-k) stays exact
    if t == 0:
        raise ValueError("flat value coefficient undefined at 0")
    return sum((c * t ** (-k) for k, c in a.items()), Q(0))


# ---------------------------------------------------------------------------
# Coefficient functions
# ---------------------------------------------------------------------------


class CoeffFn:
    """A coefficient function on a chart: polynomial plus optional flat parts.

    Flat parts exist only on 1-D charts.  All arithmetic is exact; the only
    floating point enters through .eval at points where a flat part is
    active.  The constructor checks its arguments; the results of the
    arithmetic below are built by `_raw`.
    """

    __slots__ = ("chart", "poly", "flat_neg", "flat_pos")

    def __init__(self, chart: Chart, poly: Polynomial, flat_neg=None, flat_pos=None):
        if poly.nvars != chart.dim:
            raise ValueError("polynomial variable count != chart dim")
        flat_neg = _flat_checked(flat_neg)
        flat_pos = _flat_checked(flat_pos)
        if (flat_neg or flat_pos) and chart.dim != 1:
            raise ValueError("flat parts exist only on 1-D charts")
        self.chart = chart
        self.poly = poly
        self.flat_neg = flat_neg
        self.flat_pos = flat_pos

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(chart: Chart, poly: Polynomial, flat_neg: dict, flat_pos: dict) -> "CoeffFn":
        """The trusted constructor: poly has chart.dim variables, and the flat
        parts map ints >= 0 to ints or Fractions and are empty off 1-D
        charts.  Zero flat values are dropped and integral Fractions become
        ints; an empty flat part is kept as given (no flat part is ever
        mutated, so it may be shared)."""
        f = CoeffFn.__new__(CoeffFn)
        f.chart = chart
        f.poly = poly
        f.flat_neg = _canonical(flat_neg) if flat_neg else flat_neg
        f.flat_pos = _canonical(flat_pos) if flat_pos else flat_pos
        return f

    @staticmethod
    def const(chart: Chart, c) -> "CoeffFn":
        return CoeffFn._raw(chart, Polynomial.const(chart.dim, c), {}, {})

    @staticmethod
    def var(chart: Chart, i: int = 0) -> "CoeffFn":
        return CoeffFn._raw(chart, Polynomial.var(chart.dim, i), {}, {})

    @staticmethod
    def flat_piece(chart: Chart, p: Polynomial, c_neg, c_pos) -> "CoeffFn":
        """p(t) + c_neg*phi(t) for t <= 0 and p(t) + c_pos*phi(t) for t >= 0,
        with phi(t) = sign(t)*exp(-1/t^2)."""
        if chart.dim != 1:
            raise ValueError("flat pieces exist only on 1-D charts")
        return CoeffFn(chart, p, flat_neg={0: -_q(c_neg)}, flat_pos={0: _q(c_pos)})

    @staticmethod
    def phi(chart: Chart) -> "CoeffFn":
        return CoeffFn.flat_piece(chart, Polynomial(1, {}), 1, 1)

    # -- queries ------------------------------------------------------------

    @property
    def is_poly(self) -> bool:
        return not self.flat_neg and not self.flat_pos

    @property
    def is_zero(self) -> bool:
        return not self.poly.terms and not self.flat_neg and not self.flat_pos

    def _constant(self):
        """The value of self when it is a rational constant (0 when it is
        zero), else None."""
        if self.flat_neg or self.flat_pos:
            return None
        terms = self.poly.terms
        if not terms:
            return 0
        if len(terms) == 1:
            (e, c), = terms.items()
            if not any(e):
                return c
        return None

    def phi_coeffs(self):
        """(c_neg, c_pos) if self is polynomial + c*phi branchwise, else None."""
        if set(self.flat_neg) - {0} or set(self.flat_pos) - {0}:
            return None
        return (-self.flat_neg.get(0, 0), self.flat_pos.get(0, 0))

    def __eq__(self, other):
        return (
            isinstance(other, CoeffFn)
            and self.chart == other.chart
            and self.poly == other.poly
            and self.flat_neg == other.flat_neg
            and self.flat_pos == other.flat_pos
        )

    def __hash__(self):
        return hash(
            (
                self.chart,
                self.poly,
                frozenset(self.flat_neg.items()),
                frozenset(self.flat_pos.items()),
            )
        )

    def _check(self, other: "CoeffFn"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch("coefficient functions on different charts")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        self._check(other)
        a, b = self._constant(), other._constant()
        if a == 0:
            return other
        if b == 0:
            return self
        if a is not None and b is not None:
            return CoeffFn.const(self.chart, a + b)
        return CoeffFn._raw(
            self.chart,
            self.poly + other.poly,
            _flat_add(self.flat_neg, other.flat_neg),
            _flat_add(self.flat_pos, other.flat_pos),
        )

    def __neg__(self) -> "CoeffFn":
        return self.scale(-1)

    def __sub__(self, other: "CoeffFn") -> "CoeffFn":
        return self + (-other)

    def scale(self, c) -> "CoeffFn":
        c = _q(c)
        if c == 1:
            return self
        return CoeffFn._raw(
            self.chart,
            self.poly.scale(c),
            {k: c * v for k, v in self.flat_neg.items()},
            {k: c * v for k, v in self.flat_pos.items()},
        )

    def __mul__(self, other: "CoeffFn") -> "CoeffFn":
        self._check(other)
        a, b = self._constant(), other._constant()
        if a == 0 or b == 1:
            return self
        if b == 0 or a == 1:
            return other
        if a is not None and b is not None:
            return CoeffFn.const(self.chart, a * b)
        if a is not None:
            return other.scale(a)
        if b is not None:
            return self.scale(b)
        if self.is_poly and other.is_poly:
            return CoeffFn._raw(self.chart, self.poly * other.poly, {}, {})
        raise UnsupportedProduct(
            "only Poly*Poly and rational*FlatPiece products are representable"
        )

    def derive(self, axis: int = 0) -> "CoeffFn":
        if not 0 <= axis < self.chart.dim:
            raise ValueError("axis out of range")
        return CoeffFn._raw(
            self.chart,
            self.poly.derive(axis),
            _flat_derive(self.flat_neg),
            _flat_derive(self.flat_pos),
        )

    # -- composition --------------------------------------------------------

    def affine_parts(self):
        """(a, b) with self = a*t + b if self is a 1-D affine polynomial."""
        if not (self.chart.dim == 1 and self.is_poly and self.poly.degree() <= 1):
            return None
        a = self.poly.terms.get((1,), 0)
        b = self.poly.terms.get((0,), 0)
        return a, b

    def compose(self, inner: Sequence["CoeffFn"]) -> "CoeffFn":
        """self after the map whose components are `inner` (on a common chart)."""
        if len(inner) != self.chart.dim:
            raise ValueError("need one inner function per variable")
        if not inner:
            raise UnsupportedComposition("0-dim composition needs a target chart")
        target = inner[0].chart
        if any(g.chart != target for g in inner):
            raise ChartMismatch("inner functions on different charts")
        if self.is_poly and all(g.is_poly for g in inner):
            return CoeffFn._raw(target, self.poly.substitute([g.poly for g in inner]), {}, {})
        if self.chart.dim == 1:
            g = inner[0]
            aff = self.affine_parts()
            if aff is not None:
                a, b = aff
                return g.scale(a) + CoeffFn.const(target, b)
            ginner = g.affine_parts()
            if ginner == (1, 0) and target.dim == 1:
                # flat piece after the identity; only a chart change
                return CoeffFn(target, self.poly, self.flat_neg, self.flat_pos)
        raise UnsupportedComposition(
            "composition leaves the representable coefficient class"
        )

    # -- evaluation ---------------------------------------------------------

    def eval(self, point: Sequence):
        """Exact rational where possible; float once a flat part is active."""
        if len(point) != self.chart.dim:
            raise ValueError("point dimension mismatch")
        base = self.poly.eval(point)
        if self.is_poly:
            return base
        t = point[0]
        if isinstance(t, (int, Fraction)) and t == 0:
            return base
        flat = self.flat_neg if t < 0 else self.flat_pos
        return to_float(base) + _flat_eval(flat, t)

    # -- germ structure -----------------------------------------------------

    def has_zero_germ_at(self, point: Sequence) -> bool:
        """True iff self vanishes identically on a neighbourhood of point."""
        if len(point) != self.chart.dim:
            raise ValueError("point dimension mismatch")
        if self.chart.dim != 1:
            return self.poly.is_zero
        t = point[0]
        if not self.poly.is_zero:
            return False
        if t < 0:
            return not self.flat_neg
        if t > 0:
            return not self.flat_pos
        return not self.flat_neg and not self.flat_pos

    def is_zero_on(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> bool:
        """True iff self vanishes identically on the open interval (lo, hi).

        Only for 1-D functions; the interval must be nonempty.  Analyticity
        away from 0 makes this decidable coefficientwise.
        """
        if self.chart.dim != 1:
            raise ValueError("interval vanishing is a 1-D question")
        if not self.poly.is_zero:
            return False
        meets_neg = lo is None or lo < 0
        meets_pos = hi is None or hi > 0
        if meets_neg and self.flat_neg:
            return False
        if meets_pos and self.flat_pos:
            return False
        return True

    def value_is_zero_exact(self, t: Fraction) -> bool:
        """Exact vanishing at a rational point (1-D).

        exp(-1/t^2) is transcendental for rational t != 0, so the value is 0
        iff the polynomial value and the flat coefficient vanish separately.
        """
        if self.chart.dim != 1:
            raise ValueError("use eval for higher-dimensional charts")
        t = _q(t)
        if self.poly.eval((t,)) != 0:
            return False
        if t == 0:
            return True
        flat = self.flat_neg if t < 0 else self.flat_pos
        return not flat or _flat_value_coeff(flat, t) == 0

    # -- text ---------------------------------------------------------------

    def text(self) -> str:
        if self.is_poly:
            return self.poly.text()
        pc = self.phi_coeffs()
        if pc is not None:
            return f"{self.poly.text()} + phi[{pc[0]},{pc[1]}]"
        # every value prints as a Fraction (an int n as Fraction(n, 1)), so the
        # text does not depend on which canonical type a scalar has
        neg = {k: Q(c) for k, c in sorted(self.flat_neg.items())}
        pos = {k: Q(c) for k, c in sorted(self.flat_pos.items())}
        return f"{self.poly.text()} + flat[neg={neg}, pos={pos}]"

    def __repr__(self):
        return f"CoeffFn({self.text()})"

