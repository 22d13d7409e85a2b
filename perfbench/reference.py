"""Reference computations that check the benchmark's outputs.

Every expected value here is computed apart from convbialg, with sympy and
the benchmark's own group laws, or is a property the method must have:

* `phi` on the pair model sends f*D^k on an affine bisection tau(x) = a*x + b
  to (f o tau) * a^(-k) * D^k;
* `phi` on the etale model sends f to f o gamma;
* `phi` on the Heisenberg model acts on X, Y, Z by the Jacobian at the unit
  of h -> k^-1 h k, taken with sympy from the group law;
* `dist_eval` on the pair model is sum_k f_k(x_r) * d^k/dx1^k F(x, x_r) with
  x_r = tau^-1(x);
* `conv_mul` lands on the composite affine maps or group products of its
  factors' bisections, and Phi(a*b)(F)(x) equals the defining double
  formula for Phi(a) * Phi(b) at seeded F and x;
* the suites check as many cases as the input registries call for.

Each check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import sympy

from workloads import small_rational

X = sympy.Symbol("x")
X0, X1 = sympy.symbols("x0 x1")
H = sympy.symbols("h0:3")


def rat(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def poly_expr(terms, variables=(X,)):
    """{exponent tuple: Fraction} -> sympy expression."""
    out = sympy.Integer(0)
    for exp, c in terms.items():
        mono = sympy.Integer(1)
        for v, e in zip(variables, exp):
            mono *= v ** e
        out += rat(c) * mono
    return sympy.expand(out)


# ---------------------------------------------------------------------------
# Group laws, written here apart from the library's structure polynomials
# ---------------------------------------------------------------------------


def heis_mul(g, h):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def heis_inv(g):
    return (-g[0], -g[1], -g[2] + g[0] * g[1])


def heis_ad_inverse(k):
    """Jacobian at h = 0 of h -> k^-1 h k; column j is the image of generator j."""
    k = tuple(rat(c) for c in k)
    conj = heis_mul(heis_mul(heis_inv(k), H), k)
    return sympy.Matrix(3, 3, lambda i, j: sympy.diff(conj[i], H[j]).subs({h: 0 for h in H}))


def affine_after(outer, inner):
    """outer o inner for affine maps stored as (a, b) meaning x -> a*x + b."""
    return (outer[0] * inner[0], outer[0] * inner[1] + outer[1])


def product_data(model_key, d2, d1):
    """Data of the product bisection E2 . E1 from the factors' data."""
    if model_key == "heisenberg":
        return heis_mul(d2, d1)
    return affine_after(d2, d1)


# ---------------------------------------------------------------------------
# Bisection names in program output
# ---------------------------------------------------------------------------

_PAIR_ID = re.compile(r"pair\[(?P<poly>[^\]]*)\]@R")
_HEIS_ID = re.compile(r"k\[(?P<a>[^,\]]+),(?P<b>[^,\]]+),(?P<c>[^,\]]+)\]")
_ETALE_ID = re.compile(r"g\[(?P<p>[^,\]]+),(?P<q>[^,\]]+)\]@R")


def bisection_data(model_key, name, aliases):
    """Data of a bisection named in output: an alias, or a content id."""
    if name in aliases:
        return aliases[name]
    if model_key == "heisenberg":
        m = _HEIS_ID.fullmatch(name)
        return tuple(Fraction(m.group(g)) for g in "abc") if m else None
    if model_key == "etale":
        m = _ETALE_ID.fullmatch(name)
        return (Fraction(m.group("p")), Fraction(m.group("q"))) if m else None
    m = _PAIR_ID.fullmatch(name)
    if not m:
        return None
    expr = sympy.expand(sympy.sympify(m.group("poly").replace("^", "**")))
    poly = sympy.Poly(expr, X0)
    if poly.degree() != 1 or expr.free_symbols - {X0}:
        return None
    a, b = (poly.coeff_monomial(X0), poly.coeff_monomial(1))
    return (Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))


_TERM_BISECTION = re.compile(r"\|\s*([^>|]+?)\s*>")


def output_bisections(text):
    return _TERM_BISECTION.findall(text)


# ---------------------------------------------------------------------------
# Reading program elements into sympy form
# ---------------------------------------------------------------------------


def uea_to_sympy(u):
    """UEAElement -> {exponent tuple: sympy expr}; None if a coefficient is not a polynomial."""
    out = {}
    for exp, f in u.terms.items():
        if not f.is_poly:
            return None
        out[tuple(exp)] = poly_expr(f.poly.terms)
    return out


def _same(got, want):
    keys = set(got) | set(want)
    return all(sympy.expand(got.get(k, 0) - want.get(k, 0)) == 0 for k in keys)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def phi_reference(spec, aliases):
    """{alias: {exponent tuple: sympy expr}} that Phi(a) must equal."""
    model_key = spec["model"]
    out = {}
    for alias, u in spec["a"]:
        d = aliases[alias]
        acc = out.setdefault(alias, {})
        if model_key == "pair":
            a, b = rat(d[0]), rat(d[1])
            for k, poly in u.items():
                f = poly_expr(poly).subs(X, a * X + b)
                acc[(k,)] = sympy.expand(acc.get((k,), 0) + f * a ** (-k))
        elif model_key == "etale":
            p, q = rat(d[0]), rat(d[1])
            f = poly_expr(u).subs(X, p * X + q)
            acc[()] = sympy.expand(acc.get((), 0) + f)
        else:
            J = heis_ad_inverse(d)
            for exp, c in u.items():
                if sum(exp) == 0:
                    acc[exp] = acc.get(exp, 0) + rat(c)
                    continue
                j = exp.index(1)
                for i in range(3):
                    e = tuple(1 if m == i else 0 for m in range(3))
                    acc[e] = acc.get(e, 0) + J[i, j] * rat(c)
    return out


def check_phi(spec, output, ctx):
    """Compare phi output text with the reference image."""
    model = ctx.model(spec["model"])
    try:
        T = ctx.lib.parse_dist(model, output)
    except Exception as exc:  # an unreadable output is a wrong output
        return f"unreadable phi output {output!r}: {exc}"
    want = phi_reference(spec, ctx.aliases[spec["model"]])
    bid_alias = {model.lookup(alias).bid: alias for alias in want}
    got = {}
    for bid, u in T.terms.items():
        if bid not in bid_alias:
            return f"phi output on unexpected bisection {bid}"
        terms = uea_to_sympy(u)
        if terms is None:
            return f"phi output has a non-polynomial coefficient: {output!r}"
        got[bid_alias[bid]] = terms
    for alias in set(got) | set(want):
        if not _same(got.get(alias, {}), want.get(alias, {})):
            return f"phi mismatch on {alias}: {output!r}"
    return None


# ---------------------------------------------------------------------------
# dist_eval on the pair model
# ---------------------------------------------------------------------------


def dist_eval_reference(spec, aliases):
    F = poly_expr(spec["F"], (X0, X1))
    x = rat(spec["x"])
    total = sympy.Integer(0)
    for alias, u in spec["T"]:
        a, b = (rat(c) for c in aliases[alias])
        xr = (x - b) / a
        for k, poly in u.items():
            dF = sympy.diff(F, X1, k) if k else F
            total += poly_expr(poly).subs(X, xr) * dF.subs({X0: x, X1: xr})
    return sympy.expand(total)


def check_dist_eval(spec, output, ctx):
    try:
        got = Fraction(output.strip())
    except ValueError:
        return f"dist_eval output is not a rational: {output!r}"
    want = dist_eval_reference(spec, ctx.aliases["pair"])
    if rat(got) != want:
        return f"dist_eval gave {got}, reference {want}"
    return None


# ---------------------------------------------------------------------------
# conv_mul
# ---------------------------------------------------------------------------


def check_conv_mul(spec, output, ctx, npoints=3):
    model_key = spec["model"]
    aliases = ctx.aliases[model_key]
    expected = {product_data(model_key, aliases[e2], aliases[e1])
                for e2, _ in spec["a"] for e1, _ in spec["b"]}
    for name in output_bisections(output):
        data = bisection_data(model_key, name, aliases)
        if data is None:
            return f"conv_mul output names an unknown bisection {name!r}"
        if tuple(data) not in expected:
            return f"conv_mul output on {name}, not a product of the factors' bisections"
    model = ctx.model(model_key)
    for data in expected:
        ctx.register(model, data)
    try:
        a = ctx.lib.parse_conv(model, spec["a_text"])
        b = ctx.lib.parse_conv(model, spec["b_text"])
        c = ctx.lib.parse_conv(model, output)
    except Exception as exc:
        return f"unreadable conv_mul output {output!r}: {exc}"
    rng = random.Random(spec["check_seed"])
    lib = ctx.lib
    pa, pb, pc = lib.phi(a), lib.phi(b), lib.phi(c)
    for _ in range(npoints):
        F, x = ctx.test_function(model_key, rng)
        lhs = lib.dist_eval_at(pc, F, x)
        rhs = lib.dist_mul_defcheck(pa, pb, F, x)
        if lhs != rhs:
            return f"Phi(a*b)(F)({x}) = {lhs} but Phi(a)*Phi(b) gives {rhs}"
    return None


CHECKS = {"phi": check_phi, "dist_eval": check_dist_eval, "conv_mul": check_conv_mul}


def check_eval(spec, output, ctx):
    return CHECKS[spec["op"]](spec, output, ctx)


# ---------------------------------------------------------------------------
# Case counts of the registry-sized suites
# ---------------------------------------------------------------------------


def expected_counts(doc):
    """Cases that the registry of a model document calls for.

    The document lists each registered bisection once, the unit included,
    as `model_to_json` writes it.  commuting-square checks 100 exact cases
    per non-flat bisection and 200 series cases per flat kink; prop43 checks
    the square of a bank of 3 terms per non-flat bisection.
    """
    flat = sum(1 for e in doc["bisections"] if e.get("tau", {}).get("kind") == "flat")
    plain = len(doc["bisections"]) - flat
    return {"exact": 100 * plain, "series": 200 * flat, "pairs": (3 * plain) ** 2}


_CS_NAME = re.compile(r"(?P<m>\w+): exact on (?P<exact>\d+) cases"
                      r"(?:, series \(<1e-9\) on (?P<series>\d+))?")
_P43_NAME = re.compile(r"(?P<m>\w+): (?P<pairs>\d+) term pairs exact")


def check_suite_report(name, report, expected):
    """A suite report must pass, and the registry-sized suites must check as
    many cases as `expected` ({model key: expected_counts(doc)}) calls for."""
    if not report.get("pass"):
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        return f"{name} failed: {failed}"
    if name == "commuting-square":
        seen = set()
        for c in report["checks"]:
            m = _CS_NAME.fullmatch(c["name"])
            if not m:
                return f"{name}: unexpected check {c['name']!r}"
            want = expected[m.group("m")]
            got = (int(m.group("exact")), int(m.group("series") or 0))
            if got != (want["exact"], want["series"]):
                return (f"{name}: {m.group('m')} checked {got} exact/series cases, "
                        f"registry calls for {(want['exact'], want['series'])}")
            seen.add(m.group("m"))
        if seen != set(expected):
            return f"{name}: models checked {sorted(seen)}"
    if name == "prop43":
        seen = set()
        for c in report["checks"]:
            m = _P43_NAME.fullmatch(c["name"])
            if not m:
                continue
            if int(m.group("pairs")) != expected[m.group("m")]["pairs"]:
                return (f"{name}: {m.group('m')} checked {m.group('pairs')} pairs, "
                        f"registry calls for {expected[m.group('m')]['pairs']}")
            seen.add(m.group("m"))
        if seen != set(expected):
            return f"{name}: models checked {sorted(seen)}"
    return None


# ---------------------------------------------------------------------------
# The library side of the checks
# ---------------------------------------------------------------------------


def doc_aliases(doc):
    """alias -> bisection data: (a, b) of an affine tau, a group element, or
    (p, q) of gamma, followed by the domain when it is not the whole line.
    Flat kinks are left out."""
    out = {}
    for e in doc["bisections"]:
        if doc["model"] == "heisenberg":
            out[e["id"]] = tuple(Fraction(c) for c in e["k"])
        elif doc["model"] == "etale":
            gamma = (Fraction(e["gamma"][0]), Fraction(e["gamma"][1]))
            domain = e.get("domain", "R")
            out[e["id"]] = gamma if domain == "R" else gamma + (repr(domain),)
        elif e["tau"]["kind"] == "affine" and e.get("domain", "R") == "R":
            out[e["id"]] = (Fraction(e["tau"]["a"]), Fraction(e["tau"]["b"]))
    return out


class _SameForEveryArrow:
    """Etale test function: one coefficient function for every group element."""

    def __init__(self, fn):
        self.fn = fn

    def get(self, key, default=None):
        return self.fn


class Context:
    """Models and test functions used to read and check outputs.

    Models are loaded from the same documents the workload feeds the
    program, and are kept apart from the models the program itself used.
    """

    def __init__(self, docs):
        import convbialg

        self.lib = convbialg
        self.docs = docs
        self.aliases = {key: doc_aliases(doc) for key, doc in docs.items()}
        self._models = {}

    def model(self, key):
        if key not in self._models:
            self._models[key] = self.lib.model_from_json(self.docs[key])
        return self._models[key]

    def register(self, model, data):
        lib = self.lib
        if model.kind == "group":
            return model.register(lib.Bisection(model, element=data))
        if model.kind == "etale_action":
            return model.register(lib.Bisection(model, gamma=lib.AffineMap.of(*data)))
        return model.register(lib.Bisection(model, tau=lib.Diffeo1D.affine(model.base, *data)))

    def test_function(self, key, rng):
        """A seeded test function F on the arrows and a point x of the base."""
        lib = self.lib
        model = self.model(key)

        def poly(nvars, max_deg):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = [0] * nvars
                for _ in range(rng.randint(0, max_deg)):
                    exp[rng.randrange(nvars)] += 1
                terms[tuple(exp)] = small_rational(rng) or Fraction(1)
            return lib.Polynomial(nvars, terms)

        x = small_rational(rng)
        if key == "etale":
            return _SameForEveryArrow(lib.CoeffFn(model.base, poly(1, 3))), x
        return poly(model.arrow_chart.dim, 3), x
