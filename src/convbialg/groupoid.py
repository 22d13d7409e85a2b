"""Groupoid models, local bisections and the germ groupoid.

Each model kind is one subclass of GroupoidModel:

* PairModel: the pair groupoid over the line (arrows (y, x), bisections =
  graphs of diffeomorphisms of a restricted class),
* GroupModel: a Lie group over a point (bisections = group elements), and
* EtaleActionModel: the action groupoid of a finitely generated group of
  affine maps acting on the line (an etale groupoid; bisections = group
  elements restricted to open domains).

A subclass owns everything that depends on its kind: the arrow arithmetic,
the checks, ids, sections, products, inverses and germ equality of its
bisections, their JSON form, and the form of its test functions.  Shared
code asks the model or the bisection instead of testing the kind.

All bisections live in a per-model registry keyed by a canonical content
key, so that products of registered bisections merge syntactically.
"""

from __future__ import annotations

import math

from .coeffs import (Chart, CoeffFn, DeriveOnce, Polynomial, Q, Region, Value,
                     _clipped, parse_rational, read_degree, to_float)
from .errors import (
    ChartMismatch,
    DomainError,
    NotComposable,
    UnsupportedComposition,
    UnsupportedRegistry,
    VerificationFailed,
)
from .lie_rinehart import random_polynomial


# ---------------------------------------------------------------------------
# Diffeomorphisms of the line (pair-groupoid bisection data)
# ---------------------------------------------------------------------------


class Diffeo1D:
    """A diffeomorphism of (a region of) the line.

    Stores the forward map and, when representable, the inverse map as
    CoeffFns.  Affine maps carry both; the flat-kink maps carry only the
    forward direction, and their inverses only the backward one.  apply
    reads the forward map, and raises UnsupportedComposition without one;
    apply_inv solves a missing inverse numerically, except at a rational y
    equal to tau(0): a CoeffFn's flat part vanishes at 0, so tau(0) is exact,
    and y's preimage is 0.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, fwd, inv):
        if fwd is None and inv is None:
            raise ValueError("need at least one direction")
        self.fwd = fwd
        self.inv = inv

    @staticmethod
    def affine(chart: Chart, a, b) -> "Diffeo1D":
        a, b = Q(a), Q(b)
        if a == 0:
            raise ValueError("degenerate affine map")
        fwd = CoeffFn(chart, Polynomial(1, {(1,): a, (0,): b}))
        inv = CoeffFn(chart, Polynomial(1, {(1,): 1 / a, (0,): -b / a}))
        return Diffeo1D(fwd, inv)

    @staticmethod
    def identity(chart: Chart) -> "Diffeo1D":
        return Diffeo1D.affine(chart, 1, 0)

    @staticmethod
    def flat_kink(chart: Chart, c_neg, c_pos) -> "Diffeo1D":
        """t + c_neg*phi(t) for t <= 0, t + c_pos*phi(t) for t >= 0.  Since
        0 <= phi' <= 2 (3/2)^(3/2) e^(-3/2) < 0.82, this is a diffeomorphism
        when c >= -1 on both sides; a smaller c is refused."""
        if min(c_neg, c_pos) < -1:
            raise ValueError("a flat kink t + c*phi(t) needs c >= -1")
        t = Polynomial.var(1, 0)
        return Diffeo1D(CoeffFn.flat_piece(chart, t, c_neg, c_pos), None)

    # -- queries ------------------------------------------------------------

    def affine_parts(self):
        return None if self.fwd is None else self.fwd.affine_parts()

    def __eq__(self, other):
        return (
            isinstance(other, Diffeo1D)
            and self.fwd == other.fwd
            and self.inv == other.inv
        )

    def coeff(self) -> CoeffFn:
        if self.fwd is None:
            raise UnsupportedComposition("forward map not representable")
        return self.fwd

    def inv_coeff(self) -> CoeffFn:
        if self.inv is None:
            raise UnsupportedComposition("inverse map not representable")
        return self.inv

    def inverse(self) -> "Diffeo1D":
        return Diffeo1D(self.inv, self.fwd)

    # -- evaluation ---------------------------------------------------------

    def apply(self, x):
        return self.coeff().eval((x,))

    def apply_inv(self, y):
        if self.inv is not None:
            return self.inv.eval((y,))
        if isinstance(y, (int, Q)) and self.fwd.eval((0,)) == y:
            return 0  # tau(0) is exact and tau is injective
        return _solve_monotone(self.fwd, y)

    # -- composition --------------------------------------------------------

    def compose(self, other: "Diffeo1D") -> "Diffeo1D":
        """self after other; UnsupportedComposition when either factor has no
        forward map, or their composite leaves the representable class."""
        fwd = self.coeff().compose([other.coeff()])
        inv = None if self.inv is None or other.inv is None else other.inv.compose([self.inv])
        return Diffeo1D(fwd, inv)

    def text(self) -> str:
        if self.fwd is not None:
            return self.fwd.text()
        return f"inverse-of[{self.inv.text()}]"


def _solve_monotone(f: CoeffFn, y) -> float:
    """Solve f(t) = y for a strictly monotone f, numerically (bisection).
    The bracket grows from [-1, 1] by lo -> 2 lo - 1 and hi -> 2 hi + 1
    until it holds the root; DomainError when the next bound would leave
    float range."""
    y = to_float(y)
    sign = 1.0 if float(f.eval((1.0,))) > float(f.eval((-1.0,))) else -1.0

    def val(t):
        return sign * float(f.eval((t,)))

    y = sign * y
    lo, hi = -1.0, 1.0
    while not val(lo) <= y:
        lo = 2 * lo - 1
        if math.isinf(lo):
            raise DomainError("failed to bracket the root from below")
    while not val(hi) >= y:
        hi = 2 * hi + 1
        if math.isinf(hi):
            raise DomainError("failed to bracket the root from above")
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break  # lo and hi are adjacent floats: no later step moves mid
        if val(mid) <= y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Affine maps of the line (etale model group elements)
# ---------------------------------------------------------------------------


class AffineMap(Value):
    """x -> p*x + q with rational p != 0."""

    __slots__ = ("p", "q")

    @staticmethod
    def of(p, q) -> "AffineMap":
        p, q = Q(p), Q(q)
        if p == 0:
            raise ValueError("degenerate affine map")
        return AffineMap(p, q)

    def __call__(self, x):
        return self.p * x + self.q

    def after(self, other: "AffineMap") -> "AffineMap":
        return AffineMap(self.p * other.p, self.p * other.q + self.q)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.p, -self.q / self.p)

    def text(self) -> str:
        return f"[{self.p},{self.q}]"


# ---------------------------------------------------------------------------
# Regions in ids and documents
# ---------------------------------------------------------------------------


def _region_text(r: Region) -> str:
    if r.is_whole:
        return "R"

    def key(interval):
        lo, hi = interval
        return (float("-inf") if lo is None else lo, float("inf") if hi is None else hi)

    return "u".join(f"({lo},{hi})" for lo, hi in sorted(r.intervals, key=key))


def _region_to_json(r: Region):
    if r.is_whole:
        return "R"
    return [[None if lo is None else str(lo), None if hi is None else str(hi)]
            for lo, hi in r.intervals]


def _region_from_json(data) -> Region:
    if data in (None, "R"):
        return Region.whole()
    def bound(c):
        return None if c is None else parse_rational(c)

    return Region.union(*(Region.interval(bound(lo), bound(hi)) for lo, hi in data))


def _point(x) -> tuple:
    """A base point as a coordinate tuple; a bare number is a point of the line."""
    return tuple(x) if isinstance(x, (tuple, list)) else (x,)


def _coord(x):
    """The coordinate of a point of the line, given bare or as a 1-tuple."""
    return x[0] if isinstance(x, (tuple, list)) else x


# ---------------------------------------------------------------------------
# Groupoid models, one class per kind
# ---------------------------------------------------------------------------


class StructureStore(DeriveOnce):
    """The owner of what derives from a model structure alone: one per
    constructed model, shared by its `fresh()` copies (see GroupoidModel)."""

    __slots__ = ("derived",)

    def __init__(self):
        self.derived = {}


class GroupoidModel(DeriveOnce):
    """A groupoid over a base chart, with a registry of its local bisections.

    Each subclass is one model kind and supplies everything that depends on
    the kind:

    * `kind`, `doc_key` (the "model" value of its JSON document) and
      `unit_alias` (the name of the unit bisection in a document);
    * the arrow arithmetic `s_of`, `t_of` and `_mult`, which `mult_arrow`
      calls once the arrows compose (PolynomialGroupoid adds `unit_of` and
      `inv_arrow`, which GroupModel's unit and inverse read);
    * the bisection hooks `init_bisection` (validation and the content id),
      `alpha`, `beta`, `unit_bisection`, `bisection_mul`, `bisection_inv` and
      `germ_eq`;
    * `same_arrow`: do bisections of distinct germs at a point pass through
      one arrow there?  Only in PairModel (flat kinks at 0), and the kernel
      test of phi then sums their germ classes together;
    * the JSON form of one bisection, `bisection_to_json` and
      `bisection_from_json`;
    * the test functions on the arrows: `random_test_function(rng,
      max_deg)` and `parse_test_function` (one read from a polynomial
      expression); a polynomial on the arrow chart for PolynomialGroupoid,
      a table {gamma: f} read with .get for the etale action groupoid,
      whose `test_value(F, g)` (F at the arrow g) is the rank-0 kind's hook
      that dist reads;
    * with polynomial structure maps (PolynomialGroupoid), `alpha_fns`
      (alpha_E as functions on the base) and `closed_ad_matrix` (the closed
      form of Ad_E that adjoint.ad_matrix compares with its derivation).

    PolynomialGroupoid.along_source (P o s on the arrow chart) and
    conv.stratify (one point stratum) are the places where a point base
    (`base.dim == 0`) is special, Bisection.to_target and to_source
    (f o tau^{-1}, f o tau; the identity without a tau) move base functions
    along a bisection, and alpha_polys and beta_polys (alpha_E and
    alpha_E o tau^{-1} as polynomials) come from alpha_fns; on these a group
    and the pair groupoid share one formula for Ad_E, beta_E, R_E^{-1} and
    the transport of coefficients; other models have no beta_polys.

    `derived` (see DeriveOnce) holds what the layers derive from the model
    alone or from two bisections: the conjugation Jacobian (key
    "conjugation_jacobian") and the registered product E2 . E1 (key
    ("product", bid2, bid1); the registry's object, see
    registered_product).  What derives from one bisection alone lives on
    the Bisection.

    The models of a kind share one structure (charts, algebroid, structure
    maps and frames, all immutable): each is a `fresh()` copy of one
    verified model (see models), with its own registry, aliases and derived.
    What derives from the structure alone is kept in `structure_store` (a
    StructureStore), which every copy shares: the frame field X-bar_i
    embedded in an h-block of nvars variables at h_offset, with the source
    derivatives it meets (key ("frame_field", i, nvars, h_offset);
    dist.ArrowFn.apply_frame), and Omega(X^a)(x^m), the operator of a PBW
    monomial applied to a monomial of the arrow chart (key ("omega", a, m);
    dist.omega_apply).
    """

    kind = None
    doc_key = None
    unit_alias = "M"

    def __init__(self, name, base, arrow_chart, algebroid):
        self.name = name
        self.base = base
        self.arrow_chart = arrow_chart
        self.algebroid = algebroid
        self.registry = {}
        self.aliases = {}
        self.derived = {}
        self.structure_store = StructureStore()

    def fresh(self) -> "GroupoidModel":
        """A model of this structure with its own empty registry, aliases
        and derived store; the structure objects and the structure store
        are shared, not copied."""
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model.registry, model.aliases, model.derived = {}, {}, {}
        return model

    def mult_arrow(self, g2, g1):
        """g2 * g1, defined when s(g2) = t(g1)."""
        if self.s_of(g2) != self.t_of(g1):
            raise NotComposable("arrows do not compose")
        return self._mult(g2, g1)

    def same_arrow(self, E, F, x) -> bool:
        """Do the bisections E and F, of distinct germs at their arrows over
        source x, pass through one arrow?  Never, by default: for a group
        and for the etale action groupoid a germ class fixes its arrow."""
        return False

    def beta_polys(self, E):
        """beta_E as polynomials: only PolynomialGroupoid has them."""
        raise UnsupportedComposition("beta_E is not polynomial")

    # -- registry ------------------------------------------------------------

    def register(self, E: "Bisection", alias=None) -> "Bisection":
        if not E.has_forward_map:  # the zero tests and products read tau_E forward
            raise UnsupportedRegistry(f"{E.bid} has no forward map to register")
        existing = self.registry.get(E.bid)
        if existing is None:
            self.registry[E.bid] = E
        if alias:
            self.aliases[alias] = E.bid
        return self.registry[E.bid]

    def registered_product(self, E2: "Bisection", E1: "Bisection") -> "Bisection":
        """The registered E2 . E1, computed and registered once per id pair."""
        return self.derive_once(("product", E2.bid, E1.bid),
                                lambda: self.register(bisection_mul(E2, E1)))

    def bid_names(self) -> dict:
        """{bid: alias} over the aliases; when a bid has two, the last one
        registered wins."""
        return {bid: alias for alias, bid in self.aliases.items()}

    def lookup(self, name: str) -> "Bisection":
        bid = self.aliases.get(name, name)
        if bid not in self.registry:
            raise KeyError(f"unknown bisection {_clipped(repr(name))}")
        return self.registry[bid]

    def __repr__(self):
        return f"GroupoidModel({self.name}, {len(self.registry)} bisections)"


class PolynomialGroupoid(GroupoidModel):
    """A groupoid whose structure maps are polynomials on the arrow chart,
    verified on construction, with a left-invariant frame of its algebroid."""

    def __init__(self, name, base, arrow_chart, algebroid, s_map, t_map, unit_map,
                 inv_map, mult_map, frame, unit_frame):
        super().__init__(name, base, arrow_chart, algebroid)
        self.s_map, self.t_map, self.unit_map, self.inv_map, self.mult_map = (
            tuple(m) for m in (s_map, t_map, unit_map, inv_map, mult_map))
        self.frame, self.unit_frame = (tuple(map(tuple, f)) for f in (frame, unit_frame))
        self._verify_structure()

    def _verify_structure(self):
        n = self.arrow_chart.dim
        gvars = [Polynomial.var(n, i) for i in range(n)]
        bvars = [Polynomial.var(self.base.dim, i) for i in range(self.base.dim)]
        # s(unit(x)) = x and t(unit(x)) = x
        for m in range(self.base.dim):
            if self.s_map[m].substitute(self.unit_map) != bvars[m]:
                raise VerificationFailed("s o unit != id")
            if self.t_map[m].substitute(self.unit_map) != bvars[m]:
                raise VerificationFailed("t o unit != id")
        # source/target of products
        left = [Polynomial.var(2 * n, i) for i in range(n)]
        right = [Polynomial.var(2 * n, n + i) for i in range(n)]
        for m in range(self.base.dim):
            if self.s_map[m].substitute(self.mult_map) != self.s_map[m].substitute(right):
                raise VerificationFailed("s(mult(g',g)) != s(g)")
            if self.t_map[m].substitute(self.mult_map) != self.t_map[m].substitute(left):
                raise VerificationFailed("t(mult(g',g)) != t(g')")
        # mult(inv(g), g) = unit(s(g))
        inv_then_g = [p.substitute(list(self.inv_map) + gvars) for p in self.mult_map]
        if inv_then_g != [self.along_source(p) for p in self.unit_map]:
            raise VerificationFailed("mult(inv(g), g) != unit(s(g))")
        # associativity on tripled variables
        a = [Polynomial.var(3 * n, i) for i in range(n)]
        b = [Polynomial.var(3 * n, n + i) for i in range(n)]
        c = [Polynomial.var(3 * n, 2 * n + i) for i in range(n)]
        ab = [p.substitute(a + b) for p in self.mult_map]
        bc = [p.substitute(b + c) for p in self.mult_map]
        if [p.substitute(ab + c) for p in self.mult_map] != [
            p.substitute(a + bc) for p in self.mult_map
        ]:
            raise VerificationFailed("mult is not associative")

    def along_source(self, P: Polynomial) -> Polynomial:
        """P o s: a polynomial on the base read as one on the arrow chart.
        Over a point base P is a constant, and s has no components to
        substitute."""
        if not self.base.dim:
            return Polynomial.const(self.arrow_chart.dim, P.constant_value())
        return P.substitute(self.s_map)

    def alpha_polys(self, E):
        """alpha_E as polynomials on the base."""
        return [_poly_of(f, "alpha_E") for f in self.alpha_fns(E)]

    def beta_polys(self, E):
        """beta_E = alpha_E o tau^{-1} as polynomials on the base."""
        return [_poly_of(E.to_target(f), "beta_E") for f in self.alpha_fns(E)]

    def s_of(self, g):
        return tuple(p.eval(g) for p in self.s_map)

    def t_of(self, g):
        return tuple(p.eval(g) for p in self.t_map)

    def unit_of(self, x):
        return tuple(p.eval(x) for p in self.unit_map)

    def _mult(self, g2, g1):
        return tuple(p.eval(tuple(g2) + tuple(g1)) for p in self.mult_map)

    def inv_arrow(self, g):
        return tuple(p.eval(g) for p in self.inv_map)

    def random_test_function(self, rng, max_deg):
        return random_polynomial(rng, self.arrow_chart.dim, max_deg)

    def parse_test_function(self, text):
        return Polynomial.parse(text, self.arrow_chart.dim)


def _product_domain(E2, E1) -> Region:
    """s(E2 . E1) = s(E1) meet tau_1^{-1}(s(E2)) for bisections over the line."""
    if E2.domain.is_whole:
        return E1.domain
    aff = E1.tau.affine_parts()
    if aff is None:
        raise UnsupportedRegistry("flat bisection composed with a restricted domain")
    a, b = aff
    return E1.domain.intersect(E2.domain.affine_image(Q(1, a), Q(-b, a)))


def _poly_of(fn: CoeffFn, name: str) -> Polynomial:
    if not fn.is_poly:
        raise UnsupportedComposition(f"{name} is not polynomial")
    return fn.poly


def _flat_powers(pc):
    """(i, j) with (c_neg, c_pos) = pc = (2^i, 2^j), if so shaped."""
    out = []
    for c in pc:
        i = 0
        while c > 1 and c % 2 == 0:
            c, i = c // 2, i + 1
        if c != 1:
            return None
        out.append(i)
    return tuple(out)


class PairModel(PolynomialGroupoid):
    """The pair groupoid of the line: arrows (y, x) from x to y; a bisection
    is the graph {(tau(x), x) : x in domain} of a diffeomorphism tau."""

    kind = "pair"
    doc_key = "pair"

    def init_bisection(self, E, domain):
        if E.tau is None:
            raise ValueError("pair bisection needs a diffeomorphism")
        E.domain = domain if domain is not None else Region.whole()
        if E.is_flat and not E.domain.is_whole:
            # flat-kink maps are only tracked on the full line
            raise UnsupportedRegistry("flat bisections must have full-line domain")
        E.bid = f"pair[{E.tau.text()}]@{_region_text(E.domain)}"

    def alpha(self, E, x):
        x0 = _coord(x)
        return (E.tau_apply(x0), x0)

    def beta(self, E, y):
        y0 = _coord(y)
        return (y0, E.tau_inv_apply(y0))

    def alpha_fns(self, E):
        """alpha_E = (tau, id) on the base."""
        return [E.tau_coeff(), CoeffFn.var(self.base)]

    def closed_ad_matrix(self, E):
        """Ad_E scales the generator by tau'."""
        if E.tau.fwd is None:
            raise UnsupportedComposition("Ad matrix of an inverted flat bisection")
        return [[E.tau.fwd.derive()]]

    def same_arrow(self, E, F, x) -> bool:
        """Exact: tau_E(x) = tau_F(x).  Only here do bisections of distinct
        germs pass through one arrow (the flat kinks at 0)."""
        return (E.tau_coeff() - F.tau_coeff()).value_is_zero_exact(x)

    def unit_bisection(self):
        return Bisection(self, tau=Diffeo1D.identity(self.base))

    def bisection_mul(self, E2, E1):
        return Bisection(self, tau=E2.tau.compose(E1.tau), domain=_product_domain(E2, E1))

    def bisection_inv(self, E):
        return Bisection(self, tau=E.tau.inverse(), domain=E.target_domain())

    def germ_eq(self, E1, E2, x):
        return (E1.tau.coeff() - E2.tau.coeff()).has_zero_germ_at(x)

    def bisection_to_json(self, E):
        aff = E.tau.affine_parts()
        if aff is not None:
            tau = {"kind": "affine", "a": str(aff[0]), "b": str(aff[1])}
        else:
            fn = E.tau.coeff()
            pc = fn.phi_coeffs()
            if pc is None or fn.poly != Polynomial.var(1, 0):
                # a product such as shift . E00, tau = t + 1 + phi(t)
                raise UnsupportedRegistry(
                    f"{E.bid} has no document form: a flat tau is t + c*phi(t)")
            powers = _flat_powers(pc)
            if powers is not None:
                tau = {"kind": "flat", "i": powers[0], "j": powers[1]}
            else:
                tau = {"kind": "flat", "c_neg": str(pc[0]), "c_pos": str(pc[1])}
        out = {"tau": tau}
        if not E.domain.is_whole:
            out["domain"] = _region_to_json(E.domain)
        return out

    def bisection_from_json(self, entry):
        tau = entry["tau"]
        domain = _region_from_json(entry.get("domain"))
        if tau["kind"] == "affine":
            d = Diffeo1D.affine(self.base, parse_rational(tau["a"]), parse_rational(tau["b"]))
        elif tau["kind"] == "flat":
            if "i" in tau:
                c_neg, c_pos = (Q(2) ** read_degree(tau[k], "flat power") for k in "ij")
            else:
                c_neg, c_pos = parse_rational(tau["c_neg"]), parse_rational(tau["c_pos"])
            d = Diffeo1D.flat_kink(self.base, c_neg, c_pos)
        else:
            raise ValueError(f"unknown tau kind {tau['kind']!r}")
        return Bisection(self, tau=d, domain=domain)


class GroupModel(PolynomialGroupoid):
    """A Lie group over a point: a bisection is one group element.  The
    closed form of Ad_k is stored to be checked against its derivation."""

    kind = "group"
    doc_key = "heisenberg"
    unit_alias = "e"

    def __init__(self, stored_ad_matrix, **structure):
        super().__init__(**structure)
        self.stored_ad_matrix = stored_ad_matrix

    def init_bisection(self, E, domain):
        if E.element is None:
            raise ValueError("group bisection needs a group element")
        E.element = tuple(Q(c) for c in E.element)
        if len(E.element) != self.arrow_chart.dim:
            raise ValueError(f"group element needs {self.arrow_chart.dim} coordinates, "
                             f"got {len(E.element)}")
        E.domain = Region.whole()
        E.bid = "k[" + ",".join(str(c) for c in E.element) + "]"

    def alpha(self, E, x):
        return E.element

    beta = alpha

    def alpha_fns(self, E):
        """alpha_E = beta_E: the element's coordinates, constants on the point."""
        return [CoeffFn.const(self.base, c) for c in E.element]

    def closed_ad_matrix(self, E):
        return self.stored_ad_matrix(E.element)

    def unit_bisection(self):
        return Bisection(self, element=self.unit_of(()))

    def bisection_mul(self, E2, E1):
        return Bisection(self, element=self.mult_arrow(E2.element, E1.element))

    def bisection_inv(self, E):
        return Bisection(self, element=self.inv_arrow(E.element))

    def germ_eq(self, E1, E2, x):
        return E1.element == E2.element

    def bisection_to_json(self, E):
        return {"k": [str(c) for c in E.element]}

    def bisection_from_json(self, entry):
        k = entry["k"]
        if not isinstance(k, list):
            raise ValueError(f"k must be a list of coordinates, got {k!r}")
        return Bisection(self, element=tuple(parse_rational(c) for c in k))


class _SameOnEveryComponent:
    """A test function on the etale arrows that is one function of the
    source point on every component gamma; read like a dict keyed by gamma."""

    def __init__(self, fn):
        self.fn = fn

    def get(self, gamma, default=None):
        return self.fn


class EtaleActionModel(GroupoidModel):
    """The action groupoid of a group of affine maps of the line: arrows
    (gamma, x) from x to gamma(x); a bisection is a group element gamma
    restricted to an open domain, and its tau is the affine map gamma."""

    kind = "etale_action"
    doc_key = "etale"

    def s_of(self, g):
        return (g[1],)

    def t_of(self, g):
        return (g[0](g[1]),)

    def _mult(self, g2, g1):
        return (g2[0].after(g1[0]), g1[1])

    def init_bisection(self, E, domain):
        if E.gamma is None:
            raise ValueError("etale bisection needs a group element")
        E.tau = Diffeo1D.affine(self.base, E.gamma.p, E.gamma.q)
        E.domain = domain if domain is not None else Region.whole()
        E.bid = f"g{E.gamma.text()}@{_region_text(E.domain)}"

    def alpha(self, E, x):
        return (E.gamma, _coord(x))

    def beta(self, E, y):
        return (E.gamma, E.derive_once("gamma_inv", E.gamma.inverse)(_coord(y)))

    def unit_bisection(self):
        return Bisection(self, gamma=AffineMap.of(1, 0))

    def bisection_mul(self, E2, E1):
        return Bisection(self, gamma=E2.gamma.after(E1.gamma), domain=_product_domain(E2, E1))

    def bisection_inv(self, E):
        return Bisection(self, gamma=E.gamma.inverse(), domain=E.target_domain())

    def germ_eq(self, E1, E2, x):
        return E1.gamma == E2.gamma

    def bisection_to_json(self, E):
        return {"gamma": [str(E.gamma.p), str(E.gamma.q)],
                "domain": _region_to_json(E.domain)}

    def bisection_from_json(self, entry):
        gamma = entry["gamma"]
        if not (isinstance(gamma, list) and len(gamma) == 2):
            raise ValueError(f"gamma must be a list [p, q], got {gamma!r}")
        p, q = gamma
        return Bisection(self, gamma=AffineMap.of(parse_rational(p), parse_rational(q)),
                         domain=_region_from_json(entry.get("domain")))

    def test_value(self, F, g):
        """F(gamma, x) = f(x) for the function f = F.get(gamma) of the
        source point; 0 on a component gamma that F does not list."""
        f = F.get(g[0])
        return 0 if f is None else f.eval((g[1],))

    def random_test_function(self, rng, max_deg):
        """A table over the products g.h of registered group elements, its
        functions drawn in the order of (g, h) sorted by (p, q)."""
        gammas = sorted({E.gamma for E in self.registry.values()}, key=lambda g: (g.p, g.q))
        return {g.after(h): CoeffFn(self.base, random_polynomial(rng, 1, max_deg))
                for g in gammas for h in gammas}

    def parse_test_function(self, text):
        return _SameOnEveryComponent(CoeffFn(self.base, Polynomial.parse(text, 1)))


# ---------------------------------------------------------------------------
# Bisections
# ---------------------------------------------------------------------------


class Bisection(DeriveOnce):
    """A local bisection of a groupoid model, given by a diffeomorphism tau
    (pair), a group element (group) or a group element gamma (etale), over
    its domain s(E): a Region of the line (all of it by default), and the
    whole region over a point base.  The model checks the data and derives
    the content id; the kind-specific methods hand off to it.  is_flat (is tau a flat kink
    rather than an affine map?) is set once, before the model's check; a
    group or etale bisection has no tau there, and is not flat.

    The line geometry of tau_E is here: target_domain, image, point_image
    and breakpoints.  The inverse of a flat kink has no forward map: it
    moves coefficients (to_target), and no registry holds it.

    `derived` (see DeriveOnce) holds what derives from this bisection
    alone: its one inverse ("inverse"; never registered, but the registered
    bisection of its id when there is one), the generator images of U(Ad_E)
    ("ad_gens", adjoint), R_E^{-1} as polynomials in one entry with its
    monomial images, the products of its components for each monomial
    pulled back along it (dist), the series data of a flat kink per point,
    the first stage of the defining-formula check per (F, u) (dist), and
    the inverse group element of an etale bisection ("gamma_inv"), which
    beta_E applies.  The values beta_E(y), tau(x) and tau^{-1}(y) are
    computed on each call."""

    __slots__ = ("model", "bid", "tau", "domain", "element", "gamma", "is_flat", "derived")

    def __init__(self, model, tau=None, domain=None, element=None, gamma=None):
        self.model = model
        self.tau = tau
        self.element = element
        self.gamma = gamma
        self.is_flat = tau is not None and tau.affine_parts() is None
        self.derived = {}
        model.init_bisection(self, domain)

    def __eq__(self, other):
        return isinstance(other, Bisection) and self.model is other.model and self.bid == other.bid

    def __hash__(self):
        return hash(self.bid)

    def __repr__(self):
        return f"Bisection({self.bid})"

    # -- the partial diffeomorphism tau_E ------------------------------------

    def tau_diffeo(self) -> Diffeo1D:
        if self.tau is None:
            raise ValueError("point-base bisections have no tau")
        return self.tau

    def tau_coeff(self) -> CoeffFn:
        return self.tau_diffeo().coeff()

    def tau_apply(self, x):
        return self.tau_diffeo().apply(x)

    def tau_inv_apply(self, y):
        return self.tau_diffeo().apply_inv(y)

    def to_target(self, f: CoeffFn) -> CoeffFn:
        """f o tau^{-1}: a function over s(E) moved to t(E); f itself when
        there is no tau."""
        return f if self.tau is None else f.compose([self.tau.inv_coeff()])

    def to_source(self, f: CoeffFn) -> CoeffFn:
        """f o tau: a function over t(E) moved to s(E); f itself when there
        is no tau."""
        return f if self.tau is None else f.compose([self.tau.coeff()])

    @property
    def has_forward_map(self) -> bool:
        """False only for the inverse of a flat kink (or of a product with one)."""
        return self.tau is None or self.tau.fwd is not None

    def target_domain(self) -> Region:
        """t(E) as a region of the base (a flat kink's is the whole line)."""
        return self.image(self.domain)

    # -- the line geometry of tau_E -------------------------------------------

    def _line_parts(self):
        """(a, b) with tau = a*t + b, or a*K + b for a flat kink K (every
        forward map a model builds); UnsupportedComposition without one."""
        terms = self.tau.coeff().poly.terms
        return terms.get((1,), 0), terms.get((0,), 0)

    def image(self, region: Region) -> Region:
        """tau_E(region) as far as a zero test reads it, the sides of 0 it
        meets: exact under a*t + b, which stands for a*K (K fixes 0, keeps
        order); under a*K + b, b != 0, the ends go through tau (exact at 0)."""
        if self.tau is None or region.is_whole:
            return region
        a, b = self._line_parts()
        if not (self.is_flat and b):
            return region.affine_image(a, b)
        ends = [tuple(e if e is None else self.tau.apply(e) for e in iv) for iv in region.intervals]
        return Region(tuple(iv if a > 0 else iv[::-1] for iv in ends))

    def point_image(self, x):
        """tau_E(x) as far as a germ at it reads it, as for image; only a
        bisection of the line, which has a tau, has a point to map."""
        a, b = self._line_parts()
        return self.tau.apply(x) if self.is_flat and b else a * x + b

    # -- sections of s and t --------------------------------------------------

    def alpha(self, x):
        """The arrow of E with source x."""
        return self.model.alpha(self, x)

    def beta(self, y):
        """The arrow of E with target y."""
        return self.model.beta(self, y)

    def contains_source(self, x) -> bool:
        return self.domain.is_whole or self.domain.contains(_coord(x))

    def contains_target(self, y) -> bool:
        # an affine tau or a flat kink maps the whole line onto itself
        if self.domain.is_whole:
            return True
        tdom = self.target_domain()
        return tdom.is_whole or tdom.contains(_coord(y))


def breakpoints(bisections) -> list:
    """The sorted points of the line where the germ classes of bisections
    over the line can change: the ends of their domains, 0 for a flat kink
    (kinks of distinct germs meet there), and the points where two affine
    maps cross."""
    pts = set()
    affine = []
    for E in bisections:
        pts.update(Q(end) for interval in E.domain.intervals for end in interval
                   if end is not None)
        if E.is_flat:
            pts.add(Q(0))
        elif E.tau is not None:
            affine.append(E._line_parts())
    for i, (a1, b1) in enumerate(affine):
        for a2, b2 in affine[i + 1:]:
            if a1 != a2:
                pts.add(Q(b2 - b1, a1 - a2))
    return sorted(pts)


def unit_bisection(model) -> Bisection:
    return model.unit_bisection()


def bisection_mul(E2: Bisection, E1: Bisection) -> Bisection:
    """E2 . E1 = {g2 g1 : g1 in E1, g2 in E2, s(g2) = t(g1)}."""
    if E2.model is not E1.model:
        raise ChartMismatch("bisections of different models")
    return E2.model.bisection_mul(E2, E1)


def bisection_inv(E: Bisection) -> Bisection:
    """E^{-1}, built by the model once per bisection and kept on it: the
    registered bisection of its id when there is one (the unit, or the
    inverse of a registered map), so that both share their derived data."""
    def build():
        inv = E.model.bisection_inv(E)
        return E.model.registry.get(inv.bid, inv)
    return E.derive_once("inverse", build)


# ---------------------------------------------------------------------------
# Germ arrows
# ---------------------------------------------------------------------------


class GermArrow(Value):
    """The germ of a bisection at the arrow with the given source point."""

    __slots__ = ("bid", "source")

    def bisection(self, model) -> Bisection:
        return model.registry[self.bid]


def germ_of(E: Bisection, x) -> GermArrow:
    x = _point(x)
    if not E.contains_source(x):
        raise DomainError("source point outside the bisection domain")
    return GermArrow(E.bid, x)


def bisection_germ_eq(E1: Bisection, E2: Bisection, x) -> bool:
    """Do E1 and E2 have the same germ at the arrow over source point x?"""
    return E1.model.germ_eq(E1, E2, _point(x))


def germ_classes(bisections, x):
    """Partition bisections into classes of equal germ at the arrows over
    source point x, in first-appearance order."""
    classes = []
    for E in bisections:
        for cls in classes:
            if bisection_germ_eq(E, cls[0], x):
                cls.append(E)
                break
        else:
            classes.append([E])
    return classes
