"""The ten named verification suites shared by the CLI and the acceptance
tests, the paper's three examples (kernel-example, cartier-gabriel,
etale-iso) among them.

Every suite is called as suite(seed, models) and returns a deterministic
report dict
    {"suite": name, "pass": bool, "checks": [{"name", "pass", ...}, ...]}
computed from the seed; no global state.  A suite reads only the models it
is given or builds, so its report does not depend on what ran before it.
Every float gate lives here, as a law that a NaN fails; no report holds a float.

Every check that can fail on a case is a law, checked by lie_rinehart.law
on a lazy stream of cases: the witness is the first case that fails, and no
case after it is drawn, so the rng is drawn as far as that case and no
further.  A count in a law's name is of the cases it plans, not those reached.

phi-homomorphism checks its bilinear law on every ordered pair of a bank
of single terms (_single_terms), which covers the span of the bank.  The
terms name bisections by alias, so a witness reads back on a newly built
model.
"""

from __future__ import annotations

import random
from itertools import product

from .adjoint import ad_uea
from .coeffs import Chart, CoeffFn, Polynomial, Q
from .conv import (
    ConvElement,
    ConvTensor,
    antipode_etale,
    conv_coproduct,
    conv_counit,
    conv_eq,
    conv_is_zero,
    conv_mul,
    eval_germ,
    stratify,
)
from .dist import (
    TransvDist,
    commuting_square_gap,
    commuting_square_gap_numeric,
    dist_eval_at,
    dist_mul,
    dist_mul_defcheck,
    term_products,
)
from .errors import ConvBialgError
from .groupoid import bisection_inv, germ_of, unit_bisection
from .lie_rinehart import (
    LieRinehart,
    anchor_apply,
    check_axioms,
    heisenberg_algebra,
    law,
    random_polynomial,
    rank_zero_algebroid,
    tangent_line_algebroid,
)
from .models import FACTORIES, model_from_json
from .phi import dist_is_zero, kernel_test, phi
from .uea import (
    TensorElement,
    TermSum,
    UEAElement,
    coproduct,
    uea_mul,
)


def _model(models, key):
    """The model a suite reads under a document key: the given one, or one
    newly built from the factory."""
    return models[key] if models and key in models else FACTORIES[key]()


def _all_models(models):
    """Every given model under its key, and a newly built builtin model under
    each factory key that is not given."""
    return {key: _model(models, key) for key in FACTORIES} | (models or {})


def _report(suite, checks, **extra):
    """The report of a suite, which passes when every check passes."""
    return {"suite": suite, "pass": all(c["pass"] for c in checks), "checks": checks, **extra}


def _pair_text(i, a, b):
    return f"pair {i}: {a.text()} ; {b.text()}"


def _random_uea(rng, A, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = [0] * A.rank
        for _ in range(rng.randint(0, max_deg)):
            if A.rank:
                exp[rng.randrange(A.rank)] += 1
        terms[tuple(exp)] = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
    return UEAElement(A, terms)


# ---------------------------------------------------------------------------
# 1: Lie-Rinehart axioms
# ---------------------------------------------------------------------------


def suite_lie_rinehart(seed=0xC0FFEE, models=None):
    checks = []
    for name, A in (
        ("tangent-line", tangent_line_algebroid()),
        ("heisenberg", heisenberg_algebra()),
        ("rank-zero", rank_zero_algebroid(tangent_line_algebroid().chart)),
    ):
        rep = check_axioms(A, seed=seed)
        checks.append({"name": f"axioms on {name}", "pass": rep["passed"],
                       "witness": [c for c in rep["checks"] if not c["pass"]] or None})
    H = heisenberg_algebra()
    # corrupt antisymmetry: [Y, X] should be -Z
    table = [list(row) for row in H.bracket_table]
    table[1][0] = (H.zero, H.zero, H.one)
    bad = LieRinehart(H.chart, H.rank, H.anchor, table, H.basis_names)
    rep = check_axioms(bad, seed=seed)
    checks.append({
        "name": "corrupted table fails with witness",
        "pass": (not rep["passed"]) and any(c["witness"] for c in rep["checks"] if not c["pass"]),
    })
    return _report("lie-rinehart", checks)


# ---------------------------------------------------------------------------
# 2: enveloping algebra suite
# ---------------------------------------------------------------------------


def _triple_expand(t: TensorElement, side: str):
    """(Delta x id) or (id x Delta) of a two-tensor, as {(a,b,c): CoeffFn}."""
    A = t.parent
    pairs = []
    for (a, b), f in t.terms.items():
        inner = coproduct(UEAElement(A, {(a if side == "left" else b): CoeffFn.const(A.chart, 1)}))
        pairs.extend((((p, q, b) if side == "left" else (a, p, q)), f * g)
                     for (p, q), g in inner.terms.items())
    return TermSum.merge(pairs)


def _counit_slot(t: TensorElement, slot: int) -> UEAElement:
    A = t.parent
    zero_exp = tuple([0] * A.rank)
    return UEAElement(A, [((b if slot == 0 else a), f) for (a, b), f in t.terms.items()
                          if (a if slot == 0 else b) == zero_exp])


def suite_uea(seed=0xC0FFEE, models=None):
    rng = random.Random(seed)
    algebras = [("tangent-line", tangent_line_algebroid()), ("heisenberg", heisenberg_algebra())]

    def draws(n, k=1):
        """n cases (name, u1, ..., uk), on the two algebras in turn."""
        for i in range(n):
            name, A = algebras[i % 2]
            yield name, *(_random_uea(rng, A) for _ in range(k))

    def with_coproduct(n):
        return ((name, u, coproduct(u)) for name, u in draws(n))

    def with_coefficient(n):
        """Cases (name, u, coproduct(u), r), with r drawn after u."""
        for name, u, d in with_coproduct(n):
            chart = u.parent.chart
            yield name, u, d, CoeffFn(chart, random_polynomial(rng, chart.dim, 2))

    def text(name, u, *_):
        return f"{name}: {u.text()}"

    def balanced(_, u, d, r):
        rf = UEAElement.from_coeff(u.parent, r)

        def times_r(w):
            return uea_mul(w, rf)

        return d.map_slots(left=times_r) == d.map_slots(right=times_r)

    def relations():
        """Cases (name, a, b, [a, b]) of the defining relations on each
        algebra: [X_i, X_j] on every pair of generators, then [X_i, f] =
        rho(X_i)(f) on 5 draws of f per generator."""
        for name, A in algebras:
            gens = [UEAElement.generator(A, i) for i in range(A.rank)]
            for i, j in product(range(A.rank), repeat=2):
                yield name, gens[i], gens[j], UEAElement(A, [
                    (tuple(int(m == k) for m in range(A.rank)), c)
                    for k, c in enumerate(A.bracket_table[i][j])])
            for i in range(A.rank):
                for _ in range(5):
                    f = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim, 2))
                    yield (name, gens[i], UEAElement.from_coeff(A, f),
                           UEAElement.from_coeff(A, anchor_apply(A.basis_section(i), f)))

    return _report("uea", [
        law("associativity (100 triples)", draws(100, 3),
            lambda _, u, v, w: uea_mul(uea_mul(u, v), w) == uea_mul(u, uea_mul(v, w)),
            lambda name, u, v, w: f"{name}: ({u.text()})({v.text()})({w.text()})"),
        law("coassociativity", with_coproduct(30),
            lambda _, u, d: _triple_expand(d, "left") == _triple_expand(d, "right"), text),
        law("counit axioms (eps x id, id x eps)", with_coproduct(30),
            lambda _, u, d: _counit_slot(d, 0) == u and _counit_slot(d, 1) == u, text),
        law("Delta multiplicative (30 pairs)", draws(30, 2),
            lambda _, u, v: coproduct(uea_mul(u, v)) == coproduct(u).mul(coproduct(v)),
            lambda name, u, v: f"{name}: {u.text()} * {v.text()}"),
        law("Delta image in the balanced subspace", with_coefficient(30), balanced,
            lambda name, u, d, r: f"{name}: {u.text()} with r={r.text()}"),
        law("cocommutativity", with_coproduct(30), lambda _, u, d: d.swap() == d, text),
        law("defining relations [X_i, X_j] and [X_i, f]", relations(),
            lambda _, a, b, ab: uea_mul(a, b) - uea_mul(b, a) == ab,
            lambda name, a, b, _: f"{name}: [{a.text()}, {b.text()}]"),
    ])


# ---------------------------------------------------------------------------
# 3: etale Hopf algebroid axioms (i)-(viii)
# ---------------------------------------------------------------------------


def _random_etale_element(rng, model) -> ConvElement:
    A = model.algebroid
    bisections = list(model.registry.values())
    pairs = []
    for _ in range(rng.randint(1, 2)):
        E = rng.choice(bisections)
        f = CoeffFn(A.chart, random_polynomial(rng, 1, 2))
        pairs.append((E.bid, UEAElement.from_coeff(A, f)))
    return ConvElement(model, pairs)


def suite_hopf_etale(seed=0xC0FFEE, models=None):
    model = _model(models, "etale")
    A = model.algebroid
    rng = random.Random(seed)
    elements = [_random_etale_element(rng, model) for _ in range(30)]
    pairs = [(i, elements[i], elements[(i + 7) % 30]) for i in range(30)]
    r1, r2, r3, r6 = (CoeffFn(A.chart, random_polynomial(random.Random(seed + i), 1, 2))
                      for i in (1, 2, 3, 6))
    unit = model.register(unit_bisection(model))
    rr1 = ConvElement.from_coeff(model, r1)

    def times_r1(x):
        return conv_mul(x, rr1)

    def balanced(i, a, b):
        d = conv_coproduct(a)
        return d.map_slots(left=times_r1) == d.map_slots(right=times_r1)

    def axiom_viii(i, a, b):
        lhs = conv_coproduct(a).map_slots(left=antipode_etale).mu()
        # expected: sum <f o tau_E, E^-1.E> with E^-1.E the unit over s(E)
        terms = []
        total = CoeffFn.const(A.chart, 0)
        for bid, u in a.terms.items():
            E = model.registry[bid]
            fs = E.to_source(u.degree0())
            prod = model.registered_product(bisection_inv(E), E)
            terms.append((prod.bid, UEAElement.from_coeff(A, fs)))
            total = total + fs
        return conv_eq(lhs, ConvElement(model, terms)) and conv_counit(antipode_etale(a)) == total

    laws = [
        ("(i) Delta(A) in the balanced subspace", pairs, balanced),
        # a deterministic law that reads no pair fails on the first pair or on none
        ("(ii) eps restricted to R is the identity", pairs[:1],
         lambda *_: conv_counit(ConvElement.from_coeff(model, r2)) == r2),
        ("(iii) Delta restricted to R is the canonical embedding", pairs[:1],
         lambda *_: conv_coproduct(ConvElement.from_coeff(model, r3)) ==
         ConvTensor(model, {(unit.bid, unit.bid): TensorElement.of(
             UEAElement.from_coeff(A, r3), UEAElement.one(A))})),
        ("(iv) eps(ab) = eps(a.eps(b))", pairs,
         lambda i, a, b: conv_counit(conv_mul(a, b)) ==
         conv_counit(conv_mul(a, ConvElement.from_coeff(model, conv_counit(b))))),
        ("(v) Delta(ab) = Delta(a)Delta(b)", pairs,
         lambda i, a, b: conv_coproduct(conv_mul(a, b)) ==
         conv_coproduct(a).mul(conv_coproduct(b))),
        ("cocommutativity", pairs,
         lambda i, a, b: conv_coproduct(a).swap() == conv_coproduct(a)),
        ("(vi) S restricted to R is the identity", pairs[:1],
         lambda *_: antipode_etale(ConvElement.from_coeff(model, r6)) ==
         ConvElement.from_coeff(model, r6)),
        ("(vii) S(ab) = S(b)S(a)", pairs,
         lambda i, a, b: antipode_etale(conv_mul(a, b)) ==
         conv_mul(antipode_etale(b), antipode_etale(a))),
        ("S involution", pairs, lambda i, a, b: antipode_etale(antipode_etale(a)) == a),
        ("(viii) mu(S x id)Delta = eps o S (support-respecting form)", pairs, axiom_viii),
    ]
    return _report("hopf-etale", [law(name, cases, holds, _pair_text)
                                  for name, cases, holds in laws])


# ---------------------------------------------------------------------------
# 4: the commuting square
# ---------------------------------------------------------------------------


def suite_commuting_square(seed=0xC0FFEE, models=None):
    """The square of section 4.1 on 20 u x 5 F per registered bisection:
    exact, or a float series gap below 1e-9 at two arrows on a flat kink."""
    rng = random.Random(seed)
    nu, nf, arrows = 20, 5, ((0.5, 0.35), (-1.25, -0.8))

    def cases(model, bisections):
        """Cases (E, u, F, arrow, gap), arrow None on an exact gap; on a
        flat kink F-major, arrow-minor."""
        n = model.arrow_chart.dim
        for E in bisections:
            for _ in range(nu):
                u = _random_uea(rng, model.algebroid)
                Fs = [random_polynomial(rng, n, 3) for _ in range(nf)]
                if E.is_flat:
                    per_arrow = [commuting_square_gap_numeric(model, E, u, Fs, g) for g in arrows]
                    for F, gaps in zip(Fs, zip(*per_arrow)):
                        yield from ((E, u, F, g, gap) for g, gap in zip(arrows, gaps))
                else:
                    yield from ((E, u, F, None, gap)
                                for F, gap in zip(Fs, commuting_square_gap(model, E, u, Fs)))

    def describe(E, u, F, arrow, gap):
        kink = "" if arrow is None else f" at {arrow} |gap|={gap}"
        return f"{E.bid} u={u.text()} F={F.text()}{kink}"

    checks = []
    for mname, model in sorted(_all_models(models).items()):
        bisections = list(model.registry.values())
        flat = sum(E.is_flat for E in bisections)
        series = f", series (<1e-9) on {nu * nf * len(arrows) * flat}" if flat else ""
        checks.append(law(
            f"{mname}: exact on {nu * nf * (len(bisections) - flat)} cases{series}",
            cases(model, bisections),
            lambda E, u, F, arrow, gap: gap.is_zero if arrow is None else gap <= 1e-9,
            describe))
    return _report("commuting-square", checks)


# ---------------------------------------------------------------------------
# 5: defining *-product formula vs Prop-style rewriting
# ---------------------------------------------------------------------------


def _term_bank(model, rng):
    """Small bank of single-term distributions with polynomial data; at
    rank 0, three fixed coefficients on every bisection and no rng draw."""
    A = model.algebroid

    def coeff(P):
        return UEAElement.from_coeff(A, CoeffFn(A.chart, P))

    out = []
    for E in model.registry.values():
        if E.is_flat:
            continue  # the defining formula needs a polynomial beta
        if not A.rank:
            us = [coeff(Polynomial.const(1, 2)), coeff(Polynomial(1, {(1,): Q(1)})),
                  coeff(Polynomial(1, {(2,): Q(1), (0,): Q(-1)}))]
        else:
            us = [coeff(random_polynomial(rng, A.chart.dim, 2)), UEAElement.generator(A, 0),
                  uea_mul(UEAElement.generator(A, A.rank - 1),
                          coeff(random_polynomial(rng, A.chart.dim, 1)))]
        out.extend((E, u) for u in us)
    return out


def suite_prop43(seed=0xC0FFEE, models=None):
    rng = random.Random(seed)
    xs = [Q(0), Q(1, 3), Q(-7, 5)]

    def cases(model, bank, fbank):
        """Cases (E2, u2, E1, u1, x, lhs, rhs) on every ordered pair of the
        bank, E2 outer: lhs from the rewriting side that term_products
        yields in the same order, rhs from the defining formula."""
        terms = [(E.bid, u) for E, u in bank]
        singles = [TransvDist.single(model, E, u) for E, u in bank]
        pairs = product(zip(bank, singles), repeat=2)
        for i, ((((E2, u2), T2), ((E1, u1), T1)), prod) in enumerate(
                zip(pairs, term_products(model, terms, terms))):
            F, x = fbank[i % len(fbank)], xs[i % len(xs)]
            yield (E2, u2, E1, u1, x, dist_eval_at(TransvDist(model, [prod]), F, x),
                   dist_mul_defcheck(T2, T1, F, x))

    checks = []
    total_pairs = 0
    for mname, model in sorted(_all_models(models).items()):
        bank = _term_bank(model, rng)
        fbank = [model.random_test_function(rng, 2) for _ in range(2)]
        total_pairs += len(bank) ** 2
        checks.append(law(
            f"{mname}: {len(bank) ** 2} term pairs exact", cases(model, bank, fbank),
            lambda E2, u2, E1, u1, x, lhs, rhs: lhs == rhs,
            lambda E2, u2, E1, u1, x, lhs, rhs: (f"{E2.bid}*{E1.bid} with u2={u2.text()}, "
                                                 f"u1={u1.text()} at x={x}: {lhs} != {rhs}")))
    checks.append({"name": f">= 100 pairs total (got {total_pairs})",
                   "pass": total_pairs >= 100})
    return _report("prop43", checks)


# ---------------------------------------------------------------------------
# 6: Phi is an algebra homomorphism
# ---------------------------------------------------------------------------


def _single_terms(rng, model):
    """10 nonzero single terms <u | E>: E drawn from the named non-flat
    bisections, which were registered before any product, and u from
    _random_uea, drawn again while it is zero.  So the draw does not depend
    on what ran on the model before, and each term's text names E by its
    alias."""
    named = set(model.aliases.values())
    pool = [E for E in model.registry.values() if E.bid in named and not E.is_flat]
    terms = []
    while len(terms) < 10:
        a = ConvElement.single(model, rng.choice(pool), _random_uea(rng, model.algebroid))
        if not a.is_zero:
            terms.append(a)
    return terms


def suite_phi_homomorphism(seed=0xC0FFEE, models=None):
    """Phi(ab) = Phi(a)Phi(b) on every ordered pair of a bank of single
    terms.  Phi is linear and both products are bilinear, so this is the
    law on the span of the bank.  The right side takes each term's Phi
    image once; the left side takes Phi of every product."""
    rng = random.Random(seed)
    checks = []
    for mname, model in sorted(_all_models(models).items()):
        bank = [(a, phi(a)) for a in _single_terms(rng, model)]
        checks.append(law(
            f"{mname}: {len(bank) ** 2} term pairs exact",
            ((a, pa, b, pb) for (a, pa), (b, pb) in product(bank, bank)),
            lambda a, pa, b, pb: phi(conv_mul(a, b)) == dist_mul(pa, pb),
            lambda a, pa, b, pb: f"{a.text()} ; {b.text()}"))
    return _report("phi-homomorphism", checks)


# ---------------------------------------------------------------------------
# 7-9: the paper's three examples
# ---------------------------------------------------------------------------


def suite_kernel_example(seed=0xC0FFEE, models=None):
    """The four flat-kink bisections: a nonzero element of ker(Phi), decided
    exactly.  The report does not read the seed."""
    model = _model(models, "pair")
    A = model.algebroid
    f = CoeffFn(A.chart, Polynomial(1, {(0,): Q(1), (1,): Q(1)}))  # 1 + t, f(0) != 0
    fu = UEAElement.from_coeff(A, f)
    a = ConvElement(model, [(model.lookup(f"E{i}{j}").bid, fu if (i + j) % 2 == 0 else -fu)
                            for i in (0, 1) for j in (0, 1)])
    checks = []

    g0 = eval_germ(a, germ_of(model.lookup("E00"), (Q(0),)))
    checks.append({"name": "a != 0 (origin germ class nonzero)", "pass": not g0.is_zero})

    kt = kernel_test(a)
    checks.append({"name": "kernel_test(a) = true", "pass": kt["in_kernel"],
                   "witness": kt["witness"]})

    checks.append({"name": "phi(a) = 0 (stratified exact)", "pass": dist_is_zero(phi(a))})

    return _report("kernel-example", checks,
                   strata=stratify(model, [model.registry[b] for b in a.terms]).table())


def _random_heisenberg_u(rng, A) -> UEAElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * A.rank
        for _ in range(rng.randint(0, 2)):
            exp[rng.randrange(A.rank)] += 1
        c = Q(rng.randint(-4, 4))
        if c:
            terms[tuple(exp)] = CoeffFn.const(A.chart, c)
    return UEAElement(A, terms)


def suite_cartier_gabriel(seed=0xC0FFEE, models=None):
    """Finite-support distributions on a Lie group: U(k) twisted by the
    group algebra via Ad."""
    model = _model(models, "heisenberg")
    A = model.algebroid
    rng = random.Random(seed)
    elements = list(model.registry.values())
    unit = model.register(unit_bisection(model))
    one = UEAElement.one(A)

    def sums():
        """20 draws of a sum over <= 5 group elements; the nonzero ones."""
        for _ in range(20):
            ks = rng.sample(elements, k=min(len(elements), rng.randint(1, 5)))
            a = ConvElement(model, [(E.bid, _random_heisenberg_u(rng, A)) for E in ks])
            if not a.is_zero:
                yield (a,)

    def twisted(kp, k, u):
        delta = ConvElement.single(model, kp, one)
        b = ConvElement.single(model, k, u)
        return dist_mul(phi(delta), phi(b)) == phi(conv_mul(delta, b))

    def decomposes(k, u):
        full = ConvElement.single(model, k, u)
        left = conv_mul(ConvElement.single(model, unit, u), ConvElement.single(model, k, one))
        right = conv_mul(ConvElement.single(model, k, one),
                         ConvElement.single(model, unit, ad_uea(bisection_inv(k), u)))
        return left == full and right == full

    return _report("cartier-gabriel", [
        law("injective on sums over <= 5 group elements", sums(),
            lambda a: not kernel_test(a)["in_kernel"], lambda a: a.text()),
        law("twisted product delta_k' * Phi<u,k> = Phi(conv product)",
            ((rng.choice(elements), rng.choice(elements), _random_heisenberg_u(rng, A))
             for _ in range(20)),
            twisted, lambda kp, k, u: (kp.bid, k.bid, u.text())),
        law("grouplike x primitive decomposition up to Ad twist",
            ((rng.choice(elements), _random_heisenberg_u(rng, A)) for _ in range(20)),
            decomposes, lambda k, u: (k.bid, u.text())),
    ])


def suite_etale_iso(seed=0xC0FFEE, models=None):
    """Phi is an isomorphism onto the degree-0 span for the etale model."""
    model = _model(models, "etale")
    A = model.algebroid
    rng = random.Random(seed)
    bisections = list(model.registry.values())

    def sums():
        """20 draws of a degree-0 sum over <= 4 bisections."""
        for _ in range(20):
            ks = rng.sample(bisections, k=min(len(bisections), rng.randint(1, 4)))
            yield (ConvElement(model, [
                (E.bid, UEAElement.from_coeff(A, CoeffFn(A.chart, random_polynomial(rng, 1, 2))))
                for E in ks]),)

    def has_preimage(E, P):
        f = CoeffFn(A.chart, P)
        target = TransvDist.single(model, E, UEAElement.from_coeff(A, f))
        pre = ConvElement.single(model, E, UEAElement.from_coeff(A, E.to_target(f)))
        return phi(pre) == target

    polys = (Polynomial.const(1, 3), Polynomial(1, {(2,): Q(1), (0,): Q(-1)}))
    return _report("etale-iso", [
        law("ker(Phi) = 0: kernel_test agrees with germwise zero", sums(),
            lambda a: kernel_test(a)["in_kernel"] == conv_is_zero(a), lambda a: a.text()),
        law("every [[E, f]] has preimage <f o tau^-1, E#>", product(bisections, polys),
            has_preimage, lambda E, P: (E.bid, P.text())),
    ])


# ---------------------------------------------------------------------------
# 10: finite-difference sanity
# ---------------------------------------------------------------------------


def suite_fd_sanity(seed=0xC0FFEE, models=None):
    """Central differences against the exact derivative at 20 points."""
    rng = random.Random(seed)
    chart = Chart.line("M")
    families = [
        ("random polynomial", CoeffFn(chart, random_polynomial(rng, 1, 4))),
        ("random polynomial 2", CoeffFn(chart, random_polynomial(rng, 1, 3))),
        ("phi", CoeffFn.phi(chart)),
        ("t + 2*phi", CoeffFn.flat_piece(chart, Polynomial.var(1, 0), 2, 2)),
        ("kink t + phi/4phi", CoeffFn.flat_piece(chart, Polynomial.var(1, 0), 1, 4)),
    ]
    xs = [(-1) ** k * (0.3 + 2.4 * k / 19) for k in range(20)]  # in +-[0.3, 2.7]
    h = 1e-5

    def rel(f, df, x):
        fd = (float(f.eval((x + h,))) - float(f.eval((x - h,)))) / (2 * h)
        ex = float(df.eval((x,)))
        return abs(fd - ex) / max(1.0, abs(ex))

    checks = []
    for name, f in families:
        df = f.derive(0)
        checks.append(law(f"{name}: 20 points, rel <= 1e-06", ((x, rel(f, df, x)) for x in xs),
                          lambda x, r: r <= 1e-6,
                          lambda x, r: f"x={x} rel={r}"))
    return _report("fd-sanity", checks)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


SUITES = {
    "lie-rinehart": suite_lie_rinehart,
    "uea": suite_uea,
    "hopf-etale": suite_hopf_etale,
    "commuting-square": suite_commuting_square,
    "prop43": suite_prop43,
    "phi-homomorphism": suite_phi_homomorphism,
    "kernel-example": suite_kernel_example,
    "cartier-gabriel": suite_cartier_gabriel,
    "etale-iso": suite_etale_iso,
    "fd-sanity": suite_fd_sanity,
}


def run_suite(name, seed=0xC0FFEE, models=None):
    """The report of one suite.  A library error that the suite does not
    catch propagates with the suite's name put before its message."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    try:
        return SUITES[name](seed=seed, models=models)
    except ConvBialgError as exc:
        exc.args = (f"suite {name}: {exc}",)
        raise


def run_all(seed=0xC0FFEE, docs=None, names=None):
    """The report of the named suites (default: all) in sorted order, each
    on newly built models.

    docs maps document keys to JSON model documents that replace the
    builtin models of their kind; each suite loads them again.
    """
    reports = [run_suite(name, seed=seed,
                         models={key: model_from_json(doc) for key, doc in (docs or {}).items()})
               for name in sorted(names or SUITES)]
    return {"pass": all(r["pass"] for r in reports), "suites": reports}
