"""The benchmark's three workloads: input generation, one round, and checks.

A workload is built by `make(name, seed, workdir, quick)`.  Its
`run_round(rec)` performs one whole round of operations through the
recorder `rec`, which times each operation; `check()` then checks every
output the rounds produced and returns a list of problems (empty when all
outputs are right).

* suites    - one round calls each of the ten suites through `run_suite` on
              fresh builtin models at the default suite seed, as
              `convbialg check --suite NAME` does.  The seed is not used.
* eval      - one round is a seeded stream of `convbialg eval` invocations
              through `convbialg.cli.main`, in-process, stdout captured.
* big-model - one round runs commuting-square and prop43 on seeded model
              documents, each loaded afresh through `model_from_json`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import convbialg
import convbialg.cli
import convbialg.suites

SUITE_NAMES = ["cartier-gabriel", "commuting-square", "etale-iso", "fd-sanity", "hopf-etale",
               "kernel-example", "lie-rinehart", "phi-homomorphism", "prop43", "uea"]
QUICK_SUITE_NAMES = ["etale-iso", "fd-sanity", "lie-rinehart", "prop43"]
MODEL_KEYS = ("pair", "heisenberg", "etale")
FACTORIES = {"pair": convbialg.pair_model, "heisenberg": convbialg.heisenberg_model,
             "etale": convbialg.etale_model}


def builtin_docs():
    return {key: convbialg.model_to_json(FACTORIES[key]()) for key in MODEL_KEYS}


def small_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def _coefficient(shape, rng):
    """±n/d with n <= 3 from the seed and d <= 3 fixed by the shape."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), shape.choice((1, 2, 3)))


def check_reports(reports, docs):
    """Problems in the suite reports, with case counts derived from `docs`."""
    from reference import check_suite_report, expected_counts

    expected = {key: expected_counts(doc) for key, doc in docs.items()}
    return [p for p in (check_suite_report(name, report, expected) for name, report in reports)
            if p]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


class Suites:
    def __init__(self, seed, workdir, quick):
        self.names = QUICK_SUITE_NAMES if quick else SUITE_NAMES
        self.reports = []

    @staticmethod
    def _call(name):
        return convbialg.suites.run_suite(name, models=convbialg.builtin_models())

    def run_round(self, rec):
        for name in self.names:
            report = rec.op(name, self._call, name)
            if report is not None:
                self.reports.append((name, report))

    def check(self):
        # The documents are built here, not in set-up: only the checks use them.
        return check_reports(self.reports, builtin_docs())


# ---------------------------------------------------------------------------
# big-model
# ---------------------------------------------------------------------------


# Denominator of each extra bisection's data, by slot: the seed picks signs
# and numerators, so that every seed's models cost about the same to check.
DENOMINATORS = (1, 2, 3, 2, 3, 1, 3, 2)


def extra_bisection(key, rng, index):
    """A bisection entry with small-denominator rational data."""
    d = DENOMINATORS[index % len(DENOMINATORS)]

    def value(positive=False):
        n = rng.randint(1, 3)
        return Fraction(n if positive or rng.random() < 0.5 else -n, d)

    name = f"x{index}"
    if key == "pair":
        return {"id": name, "tau": {"kind": "affine", "a": str(value(True)), "b": str(value())}}
    if key == "heisenberg":
        return {"id": name, "k": [str(value()) for _ in range(3)]}
    return {"id": name, "gamma": [str(value(True)), str(value())], "domain": "R"}


def _entry_key(key, entry):
    """The data that makes two entries the same bisection."""
    if key == "pair":
        tau = entry["tau"]
        if tau["kind"] != "affine":
            return json.dumps(tau, sort_keys=True)
        return (Fraction(tau["a"]), Fraction(tau["b"]))
    if key == "heisenberg":
        return tuple(Fraction(c) for c in entry["k"])
    return (Fraction(entry["gamma"][0]), Fraction(entry["gamma"][1]),
            json.dumps(entry.get("domain", "R")))


def big_model_docs(seed, extra, keep_builtin=True):
    """Builtin model documents (or, with keep_builtin false, their units alone),
    each with `extra` distinct seeded bisections added."""
    rng = random.Random(seed)
    docs = builtin_docs()
    for key in MODEL_KEYS:
        doc = docs[key]
        if not keep_builtin:
            unit = "e" if key == "heisenberg" else "M"
            doc["bisections"] = [e for e in doc["bisections"] if e["id"] == unit]
        seen = {_entry_key(key, e) for e in doc["bisections"]}
        for index in range(extra):
            entry = extra_bisection(key, rng, index)
            while _entry_key(key, entry) in seen:
                entry = extra_bisection(key, rng, index)
            seen.add(_entry_key(key, entry))
            doc["bisections"].append(entry)
    return docs


class BigModel:
    EXTRA = 8
    NAMES = ["commuting-square", "prop43"]

    def __init__(self, seed, workdir, quick):
        self.docs = big_model_docs(seed, 1 if quick else self.EXTRA, keep_builtin=not quick)
        self.texts = {key: json.dumps(doc) for key, doc in self.docs.items()}
        self.reports = []

    def _call(self, name):
        models = {key: convbialg.model_from_json(text) for key, text in self.texts.items()}
        return convbialg.suites.run_suite(name, models=models)

    def run_round(self, rec):
        for name in self.NAMES:
            report = rec.op(name, self._call, name)
            if report is not None:
                self.reports.append((name, report))

    def check(self):
        return check_reports(self.reports, self.docs)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

POOLS = {
    "pair": ["M", "shift", "dbl", "half"],
    "heisenberg": ["e", "kx", "ky", "kz", "k123"],
    "etale": ["M", "d", "dinv", "sh", "a21"],
}
PHI_POOLS = {**POOLS, "etale": POOLS["etale"] + ["w"]}
GENERATORS = ("X", "Y", "Z")

# One equal share per (model, operation) pair, 16 expressions each: 112
# invocations per round.  No record of how `convbialg eval` is used weighs
# one pair above another, so none is weighed above another here.
SHARE = 16
MIX = [("pair", "conv_mul"), ("pair", "phi"), ("pair", "dist_eval"),
       ("heisenberg", "conv_mul"), ("heisenberg", "phi"),
       ("etale", "conv_mul"), ("etale", "phi")]

# The documented examples (`convbialg eval` in the project README) are
# single terms with constant or monomial coefficients.  The shapes below
# scale them up to one or two terms, coefficients of degree <= 2 and D^k
# with k <= 2, so that products and phi carry the coefficient and D-power
# arithmetic too; these bounds are chosen, not observed.  Each expression's
# shape (how many terms, on which bisections, with which exponents, powers
# of D and coefficient denominators) comes from `shape`, a generator fixed by
# the expression's place in the mix; the seed picks the coefficients' signs
# and numerators, the evaluation points and the order of the stream through
# `rng`.  So every seed's stream has the same make-up and about the same cost.


def poly_terms(shape, rng, nvars, max_deg, max_terms=3):
    terms = {}
    for _ in range(shape.randint(1, max_terms)):
        exp = [0] * nvars
        for _ in range(shape.randint(0, max_deg)):
            exp[shape.randrange(nvars)] += 1
        terms[tuple(exp)] = _coefficient(shape, rng)
    return terms


def poly_text(terms):
    parts = []
    for exp, c in sorted(terms.items()):
        mono = "".join(f"*x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e)
        parts.append(f"{c}{mono}")
    return " + ".join(parts)


def random_uea(shape, rng, model, op):
    """Enveloping-algebra element as data: {D power: poly} on the pair model,
    {PBW exponent: constant} on Heisenberg (degree <= 1 for phi), a poly on etale."""
    if model == "pair":
        powers = shape.sample((0, 1, 2), shape.randint(1, 2))
        return {k: poly_terms(shape, rng, 1, 2) for k in powers}
    if model == "etale":
        return poly_terms(shape, rng, 1, 2)
    if op == "phi":
        exps = shape.sample([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], shape.randint(1, 3))
    else:
        exps = {tuple(shape.randint(0, 1) for _ in range(3)) for _ in range(shape.randint(1, 3))}
    return {e: _coefficient(shape, rng) for e in sorted(exps)}


def uea_text(model, u):
    if model == "pair":
        return " + ".join(f"({poly_text(p)})" + ("" if k == 0 else " * D" if k == 1 else f" * D^{k}")
                          for k, p in sorted(u.items()))
    if model == "etale":
        return f"({poly_text(u)})"
    parts = []
    for exp, c in u.items():
        mono = " ".join(g if e == 1 else f"{g}^{e}" for g, e in zip(GENERATORS, exp) if e)
        parts.append(f"({c})" + (f" * {mono}" if mono else ""))
    return " + ".join(parts)


def random_element(shape, rng, model, op):
    pool = PHI_POOLS[model] if op == "phi" else POOLS[model]
    return [(shape.choice(pool), random_uea(shape, rng, model, op))
            for _ in range(shape.randint(1, 2))]


def conv_text(model, terms):
    return " + ".join(f"<{uea_text(model, u)} | {alias}>" for alias, u in terms)


def make_expression(shape, rng, model, op):
    spec = {"model": model, "op": op, "check_seed": rng.getrandbits(32)}
    if op == "phi":
        spec["a"] = random_element(shape, rng, model, op)
        spec["a_text"] = conv_text(model, spec["a"])
        expr = f"phi({spec['a_text']})"
    elif op == "conv_mul":
        spec["a"] = random_element(shape, rng, model, op)
        spec["b"] = random_element(shape, rng, model, op)
        spec["a_text"], spec["b_text"] = conv_text(model, spec["a"]), conv_text(model, spec["b"])
        expr = f"conv_mul({spec['a_text']},{spec['b_text']})"
    else:
        spec["T"] = random_element(shape, rng, model, op)
        spec["F"] = poly_terms(shape, rng, 2, 3, max_terms=4)
        spec["x"] = small_rational(rng)
        T_text = " + ".join(f"[[{alias}, {uea_text(model, u)}]]" for alias, u in spec["T"])
        expr = f"dist_eval({T_text}, {poly_text(spec['F'])}, {spec['x']})"
    return expr, spec


class Eval:
    def __init__(self, seed, workdir, quick):
        rng = random.Random(seed)
        self.docs = builtin_docs()
        paths = {}
        for key in ("heisenberg", "etale"):
            paths[key] = os.path.join(workdir, f"eval-model-{key}-{seed}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(self.docs[key], fh)
        stream = []
        for model, op in MIX:
            for slot in range(1 if quick else SHARE):
                shape = random.Random(f"{model}/{op}/{slot}")
                expr, spec = make_expression(shape, rng, model, op)
                argv = ["eval", expr] + (["--model", paths[model]] if model != "pair" else [])
                stream.append((argv, spec))
        rng.shuffle(stream)
        self.stream = stream
        self.outputs = [None] * len(stream)
        self.problems = []

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = convbialg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue().strip()

    def run_round(self, rec):
        for i, (argv, _) in enumerate(self.stream):
            out = rec.op("eval", self._call, argv)
            if out is None:
                continue
            if self.outputs[i] is None:
                self.outputs[i] = out
            elif out != self.outputs[i]:
                self.problems.append(f"{argv[1]!r} gave {out!r}, earlier {self.outputs[i]!r}")

    def check(self):
        from reference import Context, check_eval

        ctx = Context(self.docs)
        problems = list(self.problems)
        for (argv, spec), out in zip(self.stream, self.outputs):
            if out is None:
                continue
            p = check_eval(spec, out, ctx)
            if p:
                problems.append(f"{argv[1]}: {p}")
        return problems


WORKLOADS = {"suites": Suites, "eval": Eval, "big-model": BigModel}


def make(name, seed, workdir, quick=False):
    return WORKLOADS[name](seed, workdir, quick)
