"""The three desk-scale groupoid models and their JSON form.

* pair groupoid over the line, with affine bisections and the four
  flat-kink bisections E00, E01, E10, E11 (tau = t + 2^i*phi(t) on t <= 0
  and t + 2^j*phi(t) on t >= 0),
* the Heisenberg group over a point, and
* the action groupoid of a group of affine maps on the line (etale).

The structure of each kind (structure polynomials, left-invariant frame
and algebroid) is built once per process, on first use, by a cached
`_*_structure` builder: the model constructor verifies the structure maps,
and algebroid_of_groupoid re-verifies the frame and bracket data
independently.  Every model is a `fresh()` copy of that verified model,
with its own registry; the factories register the default bisections.
"""

from __future__ import annotations

import json
from functools import cache

from .coeffs import Chart, Polynomial, Q, Region
from .errors import ParseError
from .groupoid import (
    AffineMap,
    Bisection,
    Diffeo1D,
    EtaleActionModel,
    GroupModel,
    GroupoidModel,
    PairModel,
    unit_bisection,
)
from .lie_rinehart import (
    algebroid_of_groupoid,
    heisenberg_algebra,
    rank_zero_algebroid,
    tangent_line_algebroid,
)


# ---------------------------------------------------------------------------
# Pair groupoid over the line
# ---------------------------------------------------------------------------


@cache
def _pair_structure() -> GroupoidModel:
    A = tangent_line_algebroid()
    base = A.chart
    v2 = [Polynomial.var(2, i) for i in range(2)]
    v4 = [Polynomial.var(4, i) for i in range(4)]
    x = Polynomial.var(1, 0)
    model = PairModel(
        name="pair-line",
        base=base,
        arrow_chart=Chart(2, "PairG"),
        algebroid=A,
        s_map=[v2[1]],
        t_map=[v2[0]],
        unit_map=[x, x],
        inv_map=[v2[1], v2[0]],
        mult_map=[v4[0], v4[3]],
        frame=[[Polynomial(2, {}), Polynomial.const(2, 1)]],
        unit_frame=[[Polynomial.const(1, 0), Polynomial.const(1, 1)]],
    )
    algebroid_of_groupoid(model)
    return model


def pair_model() -> GroupoidModel:
    model = _fresh(_pair_structure())
    base = model.base
    model.register(Bisection(model, tau=Diffeo1D.affine(base, 1, 1)), alias="shift")
    model.register(Bisection(model, tau=Diffeo1D.affine(base, 2, 0)), alias="dbl")
    model.register(Bisection(model, tau=Diffeo1D.affine(base, Q(1, 2), 0)), alias="half")
    for i in (0, 1):
        for j in (0, 1):
            E = Bisection(model, tau=Diffeo1D.flat_kink(base, 2**i, 2**j))
            model.register(E, alias=f"E{i}{j}")
    return model


# ---------------------------------------------------------------------------
# Heisenberg group over a point
# ---------------------------------------------------------------------------


@cache
def _heisenberg_structure() -> GroupoidModel:
    A = heisenberg_algebra()
    v3 = [Polynomial.var(3, i) for i in range(3)]
    v6 = [Polynomial.var(6, i) for i in range(6)]
    zero3 = Polynomial(3, {})
    one3 = Polynomial.const(3, 1)

    def stored_ad(element):
        a, b, _ = element
        return [[1, 0, 0], [0, 1, 0], [-b, a, 1]]

    model = GroupModel(
        name="heisenberg",
        base=A.chart,
        arrow_chart=Chart(3, "H3"),
        algebroid=A,
        s_map=[],
        t_map=[],
        unit_map=[Polynomial.const(0, 0)] * 3,
        inv_map=[-v3[0], -v3[1], -v3[2] + v3[0] * v3[1]],
        mult_map=[v6[0] + v6[3], v6[1] + v6[4], v6[2] + v6[5] + v6[0] * v6[4]],
        frame=[
            [one3, zero3, zero3],
            [zero3, one3, Polynomial.var(3, 0)],
            [zero3, zero3, one3],
        ],
        unit_frame=[
            [Polynomial.const(0, 1), Polynomial.const(0, 0), Polynomial.const(0, 0)],
            [Polynomial.const(0, 0), Polynomial.const(0, 1), Polynomial.const(0, 0)],
            [Polynomial.const(0, 0), Polynomial.const(0, 0), Polynomial.const(0, 1)],
        ],
        stored_ad_matrix=stored_ad,
    )
    algebroid_of_groupoid(model)
    return model


def heisenberg_model() -> GroupoidModel:
    model = _fresh(_heisenberg_structure())
    model.register(Bisection(model, element=(1, 0, 0)), alias="kx")
    model.register(Bisection(model, element=(0, 1, 0)), alias="ky")
    model.register(Bisection(model, element=(0, 0, 1)), alias="kz")
    model.register(Bisection(model, element=(1, 2, 3)), alias="k123")
    return model


# ---------------------------------------------------------------------------
# Etale action groupoid of affine maps on the line
# ---------------------------------------------------------------------------


@cache
def _etale_structure() -> GroupoidModel:
    base = Chart.line("M")
    model = EtaleActionModel(
        name="affine-action",
        base=base,
        arrow_chart=Chart(2, "EtaleG"),
        algebroid=rank_zero_algebroid(base),
    )
    algebroid_of_groupoid(model)
    return model


def etale_model() -> GroupoidModel:
    model = _fresh(_etale_structure())
    model.register(Bisection(model, gamma=AffineMap.of(2, 0)), alias="d")
    model.register(Bisection(model, gamma=AffineMap.of(Q(1, 2), 0)), alias="dinv")
    model.register(Bisection(model, gamma=AffineMap.of(1, 1)), alias="sh")
    model.register(Bisection(model, gamma=AffineMap.of(2, 1)), alias="a21")
    wdom = Region.union(Region.interval(0, 1), Region.interval(2, 3))
    model.register(Bisection(model, gamma=AffineMap.of(1, 1), domain=wdom), alias="w")
    return model


def _fresh(structure: GroupoidModel) -> GroupoidModel:
    """A fresh copy of a verified structure, its unit registered."""
    model = structure.fresh()
    model.register(unit_bisection(model), alias=model.unit_alias)
    return model


# Factories by document key.
FACTORIES = {"pair": pair_model, "heisenberg": heisenberg_model, "etale": etale_model}
# Structures by document key.
_STRUCTURES = {"pair": _pair_structure, "heisenberg": _heisenberg_structure,
               "etale": _etale_structure}


def builtin_models():
    return {key: factory() for key, factory in FACTORIES.items()}


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def model_to_json(model: GroupoidModel) -> dict:
    """The model's document, without the registered bisections whose domain
    is empty (a product of two that miss each other): no arrow lies on them."""
    names = model.bid_names()
    return {
        "model": model.doc_key,
        "bisections": [
            {"id": names.get(bid, bid), **model.bisection_to_json(E)}
            for bid, E in sorted(model.registry.items()) if E.domain.intervals
        ],
    }


def model_from_json(data) -> GroupoidModel:
    """A model from its document: a dict, or the JSON text of one."""
    try:
        if isinstance(data, str):
            data = json.loads(data)
        structure = _STRUCTURES[data["model"]]
        entries = list(data.get("bisections", []))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"bad model document: {exc}")
    model = _fresh(structure())
    for entry in entries:
        try:
            model.register(model.bisection_from_json(entry), alias=entry["id"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"bad bisection entry {entry!r}: {exc}")
    return model


def load_model_doc(path: str) -> dict:
    """The JSON object in a model file.  Text that is not UTF-8 (a
    UnicodeDecodeError is a ValueError) or nests too deeply is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"malformed model JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"a model document is a JSON object, got {type(doc).__name__}")
    return doc
