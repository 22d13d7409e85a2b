"""Per-layer tracing of convbialg, installed from outside the library.

`Tracer.install()` replaces each listed public function or method with a
wrapper that records a span (id, parent id, request id, name, start, end).
A function bound by `from .x import f` is replaced in every convbialg
module that holds it, so calls through any of those names are seen.
Spans are kept in memory in a flat array and written out by `write()`.

Self time of a span is its duration minus the time covered by the traced
calls made directly inside it.  `total_s` counts only the outermost span
of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import weakref
from array import array
from time import perf_counter

# (metric prefix, module, attribute path) for every traced public name.
TRACED = [
    ("coeffs.Polynomial.mul", "coeffs", "Polynomial.__mul__"),
    ("coeffs.Polynomial.substitute", "coeffs", "Polynomial.substitute"),
    ("coeffs.CoeffFn.derive", "coeffs", "CoeffFn.derive"),
    ("coeffs.CoeffFn.compose", "coeffs", "CoeffFn.compose"),
    ("lie_rinehart.check_axioms", "lie_rinehart", "check_axioms"),
    ("lie_rinehart.algebroid_of_groupoid", "lie_rinehart", "algebroid_of_groupoid"),
    ("uea.uea_mul", "uea", "uea_mul"),
    ("uea.coproduct", "uea", "coproduct"),
    ("groupoid.GroupoidModel.register", "groupoid", "GroupoidModel.register"),
    ("groupoid.bisection_mul", "groupoid", "bisection_mul"),
    ("groupoid.bisection_inv", "groupoid", "bisection_inv"),
    ("groupoid.bisection_germ_eq", "groupoid", "bisection_germ_eq"),
    ("groupoid.Bisection.tau_diffeo", "groupoid", "Bisection.tau_diffeo"),
    ("models.builtin_models", "models", "builtin_models"),
    ("models.model_from_json", "models", "model_from_json"),
    ("adjoint.ad_uea", "adjoint", "ad_uea"),
    ("adjoint.ad_matrix", "adjoint", "ad_matrix"),
    ("conv.conv_mul", "conv", "conv_mul"),
    ("conv.conv_coproduct", "conv", "conv_coproduct"),
    ("conv.antipode_etale", "conv", "antipode_etale"),
    ("conv.conv_is_zero", "conv", "conv_is_zero"),
    ("dist.dist_mul", "dist", "dist_mul"),
    ("dist.dist_eval_at", "dist", "dist_eval_at"),
    ("dist.dist_mul_defcheck", "dist", "dist_mul_defcheck"),
    ("dist.commuting_square_gap", "dist", "commuting_square_gap"),
    ("dist.commuting_square_gap_numeric", "dist", "commuting_square_gap_numeric"),
    ("phi.phi", "phi", "phi"),
    ("phi.kernel_test", "phi", "kernel_test"),
    ("phi.stratify", "phi", "stratify"),
    ("textform.parse_conv", "textform", "parse_conv"),
    ("textform.parse_dist", "textform", "parse_dist"),
]

# Constructors whose calls are only counted (no span): they run too often
# for a span each to be worth its cost.
COUNTED = [
    ("coeffs.Polynomial.new", "coeffs", "Polynomial.__init__"),
    ("uea.UEAElement.new", "uea", "UEAElement.__init__"),
]

# Suites whose time per call a traced run reports, as measured in its
# untraced round (see run.py), not from the spans.
SUITE_FIGURES = ["commuting-square", "phi-homomorphism", "prop43", "uea", "kernel-example"]

REGISTRY_KINDS = {"pair": "pair", "group": "heisenberg", "etale_action": "etale"}


def per_layer_names():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for prefix, _, _ in TRACED:
        out += [(prefix + ".calls", "count", "lower"),
                (prefix + ".total_s", "s", "lower"),
                (prefix + ".self_s", "s", "lower")]
    out += [(name, "count", "lower") for name, _, _ in COUNTED]
    out += [(f"groupoid.registry_size.{k}", "count", "lower")
            for k in ("pair", "heisenberg", "etale")]
    out += [("adjoint.ad_matrix.distinct", "count", "lower"),
            ("adjoint.ad_matrix.useful_ratio", "ratio", "higher"),
            ("phi.stratify.strata", "count", "lower")]
    out += [(f"suites.{name}.total_s", "s", "lower") for name in SUITE_FIGURES]
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "convbialg" or name.startswith("convbialg."))]


class Tracer:
    def __init__(self):
        self.names = []            # span name table; spans refer to it by index
        self._index = {}
        self.calls = []            # per name index
        self.total = []
        self.self_time = []
        self._depth = []           # open spans per name, for outermost-only totals
        self.spans = array("d")    # id, parent, request, name, start, end per span
        self.stack = []            # open spans: [span id, time of traced calls inside]
        self.request = 0
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self.registry_size = {k: 0 for k in REGISTRY_KINDS.values()}
        self.strata = 0
        self._ad_keys = set()
        self._model_ids = weakref.WeakKeyDictionary()
        self._serial = itertools.count()
        self._ids = itertools.count()
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for lst in (self.calls, self.total, self.self_time, self._depth):
                lst.append(0)
        return self._index[name]

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name` (used for the benchmark's own calls)."""
        return self._timed(self._name_index(name), fn, args, kwargs)

    def _timed(self, idx, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1][0] if stack else -1.0
        sid = float(next(self._ids))
        frame = [sid, 0.0]
        stack.append(frame)
        self._depth[idx] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self._depth[idx] -= 1
            self.calls[idx] += 1
            self.self_time[idx] += dur - frame[1]
            if not self._depth[idx]:
                self.total[idx] += dur
            if stack:
                stack[-1][1] += dur
            self.spans.extend((sid, parent, float(self.request), float(idx), start, end))

    def _wrap(self, idx, fn, after=None):
        timed = self._timed

        def wrapper(*args, **kwargs):
            out = timed(idx, fn, args, kwargs)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters attached to traced calls -----------------------------------

    def _after_register(self, args, out):
        model = args[0]
        kind = REGISTRY_KINDS.get(model.kind)
        if kind is not None:
            self.registry_size[kind] = max(self.registry_size[kind], len(model.registry))

    def _after_ad_matrix(self, args, out):
        E = args[0]
        serial = self._model_ids.get(E.model)
        if serial is None:
            serial = self._model_ids[E.model] = next(self._serial)
        self._ad_keys.add((serial, E.bid))

    def _after_stratify(self, args, out):
        self.strata += len(out.strata)

    # -- install / uninstall -------------------------------------------------

    def _replace(self, module_name, path, make):
        mod = importlib.import_module("convbialg." + module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make(original))
            self._undo.append((cls, attr, original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for m in _package_modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, original))

    def install(self):
        after = {"groupoid.GroupoidModel.register": self._after_register,
                 "adjoint.ad_matrix": self._after_ad_matrix,
                 "phi.stratify": self._after_stratify}
        for prefix, module_name, path in TRACED:
            idx = self._name_index(prefix)
            self._replace(module_name, path,
                          lambda fn, i=idx, a=after.get(prefix): self._wrap(i, fn, a))
        for name, module_name, path in COUNTED:
            self._replace(module_name, path, lambda fn, n=name: self._count(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for prefix, _, _ in TRACED:
            idx = self._index[prefix]
            out[prefix + ".calls"] = self.calls[idx]
            out[prefix + ".total_s"] = self.total[idx]
            out[prefix + ".self_s"] = self.self_time[idx]
        out.update(self.counts)
        for kind, size in self.registry_size.items():
            out[f"groupoid.registry_size.{kind}"] = size
        calls = out["adjoint.ad_matrix.calls"]
        out["adjoint.ad_matrix.distinct"] = len(self._ad_keys)
        out["adjoint.ad_matrix.useful_ratio"] = len(self._ad_keys) / calls if calls else 0.0
        out["phi.stratify.strata"] = self.strata
        return out

    def write(self, path_prefix):
        """Write the span table (binary doubles) and its name index (JSON)."""
        with open(path_prefix + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start", "end"],
                       "dtype": "float64", "names": self.names,
                       "spans": len(self.spans) // 6}, fh, indent=1)
