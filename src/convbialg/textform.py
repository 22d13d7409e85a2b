"""Text forms for the printable objects, inverse to their .text() methods.

Grammar (all sums joined by " + "):

    coefficient   poly | poly + phi[c,c] | poly + flat[neg={..}, pos={..}]
    uea element   coeff | coeff * X1^a X2 ... | (coeff) * X1 ...
    conv element  <uea | E> + ...
    distribution  [[E, uea]] + ...

Bisections are resolved through the model registry (aliases or content ids).
"""

from __future__ import annotations

import re

from .coeffs import (Chart, CoeffFn, Polynomial, _clipped, check_degree, parse_rational,
                     read_degree)
from .conv import ConvElement
from .dist import TransvDist
from .errors import ParseError
from .uea import UEAElement

_OPEN = {"(": ")", "[": "]", "<": ">", "{": "}"}
_CLOSE = {v: k for k, v in _OPEN.items()}


def split_top(text: str, sep: str):
    """Split at every occurrence of `sep` outside brackets of any kind."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced {ch!r}", i)
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    if depth != 0:
        raise ParseError("unbalanced brackets", len(text))
    parts.append(text[start:])
    return parts


_FLAT_ENTRY = re.compile(
    r"(\d+)\s*:\s*(?:Fraction\((-?\d+),\s*(-?\d+)\)|(-?\d+(?:/\d+)?))"
)


def _parse_flat_dict(text: str) -> dict:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"bad flat dict {_clipped(repr(text))}")
    out = {}
    body = text[1:-1].strip()
    for entry in split_top(body, ",") if body else []:
        m = _FLAT_ENTRY.fullmatch(entry.strip())
        if not m:
            raise ParseError(f"bad flat entry {_clipped(repr(entry.strip()))}")
        value = m.group(4) or f"{m.group(2)}/{m.group(3)}"
        out[read_degree(m.group(1), "flat key")] = parse_rational(value)
    return out


def parse_coeff(chart: Chart, text: str) -> CoeffFn:
    """Inverse of CoeffFn.text()."""
    text = text.strip()
    if chart.dim != 1 and text.endswith("]") and (" + phi[" in text or " + flat[" in text):
        raise ParseError(f"flat parts exist only on the line: {_clipped(repr(text))}")
    k = text.rfind(" + phi[")
    if k >= 0 and text.endswith("]"):
        body = text[k + len(" + phi[") : -1]
        cs = body.split(",")
        if len(cs) != 2:
            raise ParseError(f"bad phi part in {_clipped(repr(text))}")
        p = Polynomial.parse(text[:k], chart.dim)
        return CoeffFn.flat_piece(chart, p, parse_rational(cs[0]), parse_rational(cs[1]))
    k = text.rfind(" + flat[")
    if k >= 0 and text.endswith("]"):
        body = text[k + len(" + flat[") : -1]
        m = re.fullmatch(r"neg=(\{.*?\}),\s*pos=(\{.*\})", body)
        if not m:
            raise ParseError(f"bad flat part in {_clipped(repr(text))}")
        p = Polynomial.parse(text[:k], chart.dim)
        return CoeffFn(chart, p, _parse_flat_dict(m.group(1)), _parse_flat_dict(m.group(2)))
    return CoeffFn(chart, Polynomial.parse(text, chart.dim))


_MONO_TOKEN = re.compile(r"(\S+?)(?:\^(\d+))?$")


def parse_uea(A, text: str) -> UEAElement:
    """Inverse of UEAElement.text() for the enveloping algebra of A."""
    text = text.strip()
    if not text:
        raise ParseError("empty element", 0)
    if text == "0":
        return UEAElement.zero(A)
    name_index = {n: i for i, n in enumerate(A.basis_names)}
    pairs = []
    for term in split_top(text, " + "):
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in {_clipped(repr(text))}")
        pieces = split_top(term, " * ")
        ctext = pieces[0].strip()
        if ctext.startswith("(") and ctext.endswith(")"):
            ctext = ctext[1:-1]
        f = parse_coeff(A.chart, ctext)
        exp = [0] * A.rank
        for mono in pieces[1:]:
            for tok in mono.split():
                m = _MONO_TOKEN.fullmatch(tok)
                if not m or m.group(1) not in name_index:
                    raise ParseError(f"unknown generator {_clipped(repr(tok))}")
                exp[name_index[m.group(1)]] += read_degree(m.group(2) or 1, "exponent")
        check_degree(exp)
        pairs.append((tuple(exp), f))
    return UEAElement(A, pairs)


def parse_conv(model, text: str):
    """Inverse of ConvElement.text() over the given model."""
    text = text.strip()
    if text == "0":
        return ConvElement.zero(model)
    pairs = []
    for term in split_top(text, " + "):
        term = term.strip()
        if not (term.startswith("<") and term.endswith(">")):
            raise ParseError(f"expected <u | E>, got {_clipped(repr(term))}")
        inner = term[1:-1]
        pieces = split_top(inner, "|")
        if len(pieces) != 2:
            raise ParseError(f"expected one '|' in {_clipped(repr(term))}")
        u = parse_uea(model.algebroid, pieces[0])
        try:
            E = model.lookup(pieces[1].strip())
        except KeyError as exc:
            raise ParseError(exc.args[0])
        pairs.append((E.bid, u))
    return ConvElement(model, pairs)


def parse_dist(model, text: str):
    """Inverse of TransvDist.text() over the given model."""
    text = text.strip()
    if text == "0":
        return TransvDist.zero(model)
    pairs = []
    for term in split_top(text, " + "):
        term = term.strip()
        if not (term.startswith("[[") and term.endswith("]]")):
            raise ParseError(f"expected [[E, u]], got {_clipped(repr(term))}")
        inner = term[2:-2]
        pieces = split_top(inner, ",")
        if len(pieces) < 2:
            raise ParseError(f"expected [[E, u]], got {_clipped(repr(term))}")
        try:
            E = model.lookup(pieces[0].strip())
        except KeyError as exc:
            raise ParseError(exc.args[0])
        u = parse_uea(model.algebroid, ",".join(pieces[1:]))
        pairs.append((E.bid, u))
    return TransvDist(model, pairs)
