"""Fuzz `cli.main`: every outcome is exit 0, 1 or 2, never a traceback.

`eval` expressions are built from the grammar of the text forms and then
mutated with grammar fragments and junk characters.  `check` always gets a
missing, malformed or unreadable `--model`, so no suite runs.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from convbialg.cli import main
from convbialg.models import builtin_models, model_to_json

ALIASES = ["M", "shift", "dbl", "half", "E00", "E01", "E10", "E11", "e", "kx", "k123",
           "d", "dinv", "sh", "w", "nope"]
GENERATORS = ["D", "X", "Y", "Z", "X1"]
LITERALS = ["0", "1", "2", "-1", "1/2", "-3/4", "1/0", "1e400", "-1e400", "1e99999999"]
FRAGMENTS = ["conv_mul(", "phi(", "dist_eval(", "(", ")", "<", ">", "[[", "]]", "[", "]",
             "{", "}", "|", ",", " + ", " * ", "+", "*", "^", "/", "-", " ", "x0", "x1",
             "x7", "phi[", "flat[neg={", "@", "#", "\\", "é", *ALIASES, *GENERATORS]

lit = st.sampled_from(LITERALS)
# digit strings past the 4,300 that int() converts: an index of 5,000 nines
# (out of range), and an index and a power behind 5,000 zeros
long_index = "x" + "9" * 5000
padded_index = "x" + "0" * 5000 + "2"
# the last two are above the cap on the degree of a parsed term
power = st.sampled_from(["", "^2", "^" + "0" * 5000 + "3", "^65", "^999999999"])
coeff = st.one_of(lit, st.builds(lambda c, v, p: f"{c}*{v}{p}", lit,
                                 st.sampled_from(["x0", "x1", long_index, padded_index]),
                                 power),
                  st.builds(lambda c: f"1 + phi[{c},1]", lit))
uea_term = st.one_of(coeff, st.builds(lambda c, g, p: f"({c}) * {g}{p}", coeff,
                                      st.sampled_from(GENERATORS), power))
uea = st.lists(uea_term, min_size=1, max_size=2).map(" + ".join)
alias = st.sampled_from(ALIASES)
conv = st.lists(st.builds(lambda u, E: f"<{u}|{E}>", uea, alias),
                min_size=1, max_size=2).map(" + ".join)
dist = st.lists(st.builds(lambda E, u: f"[[{E}, {u}]]", alias, uea),
                min_size=1, max_size=2).map(" + ".join)
test_fn = st.lists(st.builds(lambda c, v, p: f"{c}*{v}{p}", lit,
                             st.sampled_from(["x0", "x1", "x2", long_index, padded_index]),
                             power),
                   min_size=1, max_size=3).map(" + ".join)
expression = st.one_of(
    st.builds(lambda a, b: f"conv_mul({a},{b})", conv, conv),
    st.builds(lambda a: f"phi({a})", conv),
    st.builds(lambda T, F, x: f"dist_eval({T}, {F}, {x})", dist, test_fn, lit),
)


@st.composite
def mutated(draw, base):
    """base, with up to three grammar fragments inserted and one slice cut."""
    text = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    if draw(st.booleans()):
        lo = draw(st.integers(0, len(text)))
        hi = draw(st.integers(lo, min(len(text), lo + 4)))
        text = text[:lo] + text[hi:]
    return text


MALFORMED_DOCS = ["", "{", "[]", "1", "null", '"abc"', '"{}"', "{}", '{"model": "nope"}',
                  '{"model": 3}', '{"model": "pair", "bisections": 5}',
                  '{"model": "pair", "bisections": [5]}',
                  '{"model": "pair", "bisections": [{"id": "a"}]}',
                  '{"model": "pair", "bisections": [{"id": "a", "tau": 3}]}',
                  '{"model": "pair", "bisections": [{"id": "a", "tau": {"kind": "affine", '
                  '"a": "0", "b": "1"}}]}',
                  '{"model": "heisenberg", "bisections": [{"id": "k", "k": ["1", "2"]}]}',
                  '{"model": "etale", "bisections": [{"id": "g", "gamma": ["1"]}]}',
                  '{"model": "etale", "bisections": [{"id": "g", "gamma": ["1", "0"], '
                  '"domain": [["1"]]}]}']
# files that are not a JSON text: UTF-16 with a byte order mark (not UTF-8),
# and arrays nested deeper than the JSON decoder recurses
UNREADABLE_DOCS = {"utf16-bom": b"\xff\xfe{\x00}\x00", "deep": b"[" * 200_000}
junk = st.text(st.sampled_from("abc-_0129x/ .{}[]\",:é"), max_size=8)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Paths of the builtin model documents, and a scratch path."""
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for key, model in builtin_models().items():
        paths[key] = root / f"{key}.json"
        paths[key].write_text(json.dumps(model_to_json(model)))
    paths["scratch"] = root / "scratch.json"
    return paths


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    return code


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(expr=mutated(expression), model=st.sampled_from([None, "pair", "heisenberg", "etale"]),
       output=st.sampled_from([[], ["--output", "json"]]))
# a flat part on the point base of a group once escaped as a ValueError
@example(expr="phi(<(1 + phi[0,1]) * X|k123>)", model="heisenberg", output=[])
# a variable index of 5,000 digits once escaped as a ValueError
@example(expr=f"dist_eval([[M, 1]], 1*{long_index}, 1)", model=None, output=[])
@example(expr=f"phi(<1*{padded_index}^{'0' * 5000}2 | M>)", model=None, output=[])
def test_eval_never_crashes(docs, capsys, expr, model, output):
    argv = ["eval", expr] + output
    if model is not None:
        argv += ["--model", str(docs[model])]
    _run(argv, capsys)


@pytest.mark.parametrize("command", [["check"], ["eval", "phi(<1|M>)"]], ids=["check", "eval"])
@pytest.mark.parametrize("doc", MALFORMED_DOCS)
def test_malformed_model_document_exits_2(docs, capsys, command, doc):
    docs["scratch"].write_text(doc)
    assert _run(command + ["--model", str(docs["scratch"])], capsys) == 2


@pytest.mark.parametrize("doc", sorted(UNREADABLE_DOCS))
def test_unreadable_model_file_exits_2_with_one_error_line(docs, capsys, doc):
    docs["scratch"].write_bytes(UNREADABLE_DOCS[doc])
    argv = ["check", "--suite", "fd-sanity", "--model", str(docs["scratch"])]
    try:
        code = main(argv)
    finally:
        captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@FUZZ
@given(suite=st.one_of(st.none(), junk), seed=st.one_of(st.none(), junk, st.just("7")),
       doc=st.one_of(st.none(), st.sampled_from(MALFORMED_DOCS),
                     junk.filter(lambda t: "model" not in t)))
def test_check_with_a_bad_model_exits_2(docs, capsys, suite, seed, doc):
    path = docs["scratch"]
    if doc is None:
        path.unlink(missing_ok=True)
    else:
        path.write_text(doc)
    argv = ["check", "--model", str(path)]
    for flag, value in (("--suite", suite), ("--seed", seed)):
        if value is not None:
            argv += [flag, value]
    assert _run(argv, capsys) == 2
