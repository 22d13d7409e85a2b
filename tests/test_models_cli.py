import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import convbialg.cli
import convbialg.suites
from convbialg.cli import main
from convbialg.coeffs import Chart, CoeffFn, Polynomial, Q, parse_rational
from convbialg.conv import conv_mul
from convbialg.errors import ParseError, UnsupportedRegistry
from convbialg.models import (
    builtin_models,
    etale_model,
    heisenberg_model,
    model_from_json,
    model_to_json,
    pair_model,
)
from convbialg.phi import phi
from convbialg.textform import parse_coeff, parse_conv, parse_dist, parse_uea, split_top

from conv_draws import random_conv_element


@pytest.fixture(scope="module")
def models():
    return builtin_models()


class TestModelJson:
    def test_round_trip_all(self, models):
        for name, m in models.items():
            doc = model_to_json(m)
            doc2 = model_to_json(model_from_json(doc))
            assert json.dumps(doc, sort_keys=True) == json.dumps(doc2, sort_keys=True)

    def test_malformed_raises(self):
        with pytest.raises(ParseError):
            model_from_json({"model": "nope"})
        with pytest.raises(ParseError):
            model_from_json({"model": "pair", "bisections": [{"id": "x"}]})

    def test_unit_is_registered_under_the_unit_alias(self, models):
        for m in models.values():
            assert m.lookup(m.unit_alias) is m.registry[m.unit_bisection().bid]
            assert model_from_json(model_to_json(m)).lookup(m.unit_alias).bid == \
                m.lookup(m.unit_alias).bid

    def test_the_last_alias_of_a_bid_names_it(self):
        model = pair_model()
        dbl = model.lookup("dbl")
        model.register(dbl, alias="double")
        assert model.bid_names()[dbl.bid] == "double"
        ids = [e["id"] for e in model_to_json(model)["bisections"]]
        assert "double" in ids and "dbl" not in ids
        assert parse_conv(model, "<1 | dbl>").text() == "<1 | double>"

    def test_text_that_nests_too_deeply_raises(self):
        with pytest.raises(ParseError):
            model_from_json("[" * 200_000)

    def test_pair_document_round_trips_each_tau_form(self):
        # an affine map on a restricted domain, a kink whose c are not powers
        # of two, and one whose c are
        doc = {"model": "pair", "bisections": [
            {"id": "A", "tau": {"kind": "affine", "a": "2", "b": "1"}, "domain": [[None, "1"]]},
            {"id": "K", "tau": {"kind": "flat", "c_neg": "1/3", "c_pos": "3"}},
            {"id": "P", "tau": {"kind": "flat", "i": 1, "j": 2}}]}
        model = model_from_json(doc)
        out = model_to_json(model)
        again = model_from_json(out)
        assert again.bid_names() == model.bid_names()
        assert {name: again.lookup(name).bid for name in "AKP"} == \
            {name: model.lookup(name).bid for name in "AKP"}
        assert model_to_json(again) == out

    def test_a_product_with_an_empty_domain_is_left_out_of_the_document(self):
        # w's domain (0,1)u(2,3) misses its own shift, so w.w registers a
        # bisection with no arrow on it
        model = etale_model()
        w = parse_conv(model, "<1|w>")
        (bid,) = conv_mul(w, w).terms
        assert not model.registry[bid].domain.intervals
        again = model_from_json(model_to_json(model))
        assert set(again.registry) == set(model.registry) - {bid}
        assert again.aliases == model.aliases

    def test_a_product_with_a_flat_tau_has_no_document_form(self):
        # shift . E00 has tau = t + 1 + phi(t); written as a bare kink it
        # would read back as t + phi(t), another bisection
        model = pair_model()
        product = conv_mul(parse_conv(model, "<1|shift>"), parse_conv(model, "<1|E00>"))
        bid = next(iter(product.terms))
        with pytest.raises(UnsupportedRegistry, match=re.escape(bid)):
            model_to_json(model)


class TestTextForms:
    def test_split_top_respects_brackets(self):
        assert split_top("a, <b, c>, [d, e]", ", ") == ["a", "<b, c>", "[d, e]"]
        with pytest.raises(ParseError):
            split_top("<a", ",")

    def test_general_flat_part_text(self):
        # the values of a general flat part print as Fractions
        f = CoeffFn.flat_piece(Chart.line(), Polynomial.var(1, 0), 1, 4).derive()
        text = "1 + flat[neg={3: Fraction(-2, 1)}, pos={3: Fraction(8, 1)}]"
        assert f.text() == text
        assert parse_coeff(Chart.line(), text) == f

    def test_coeff_round_trip(self):
        ch = Chart.line("M")
        cases = [
            CoeffFn(ch, Polynomial.parse("2*x0^2 + -1/3", 1)),
            CoeffFn.flat_piece(ch, Polynomial.var(1, 0), 1, 2),
            CoeffFn(ch, Polynomial(1, {}), {2: Q(3), 0: Q(-1, 2)}, {1: Q(7)}),
        ]
        for f in cases:
            assert parse_coeff(ch, f.text()) == f

    def test_uea_round_trip(self, models):
        from convbialg.suites import _random_uea

        rng = random.Random(0xC0FFEE)
        for m in models.values():
            A = m.algebroid
            for _ in range(10):
                u = _random_uea(rng, A, max_deg=3)
                assert parse_uea(A, u.text()) == u

    def test_element_round_trips(self, models):
        rng = random.Random(1)
        for m in models.values():
            for _ in range(10):
                a = random_conv_element(rng, m)
                assert parse_conv(m, a.text()) == a
                T = phi(a)
                assert parse_dist(m, T.text()) == T


# Runs each argv of the JSON list on stdin in its own forked child, in
# which main() never ran, and prints [exit code, stdout, stderr] of each.
FORK_PER_ARGV = """
import json, os, sys, tempfile
from convbialg.cli import main

results = []
for argv in json.load(sys.stdin):
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        pid = os.fork()
        if pid == 0:
            os.dup2(out.fileno(), 1)
            os.dup2(err.fileno(), 2)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        out.seek(0)
        err.seek(0)
        results.append([code, out.read().decode(), err.read().decode()])
print(json.dumps(results))
"""


class TestCli:
    def test_check_suite_pass(self, capsys):
        assert main(["check", "--suite", "lie-rinehart"]) == 0
        out = capsys.readouterr().out
        assert "lie-rinehart: PASS" in out

    def test_eval_conv_mul(self, capsys):
        assert main(["eval", "conv_mul(<1|shift>,<1|dbl>)"]) == 0
        assert capsys.readouterr().out.strip() == "<1 | pair[2*x0 + 1]@R>"

    def test_eval_phi_degree0(self, capsys):
        assert main(["eval", "phi(<1*x0^2 | shift>)"]) == 0
        assert capsys.readouterr().out.strip() == "[[shift, (1*x0^2 + 2*x0 + 1)]]"

    def test_eval_dist_eval(self, capsys):
        assert main(["eval", "dist_eval([[shift, 1]], x0 + x1, 2)"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    @pytest.mark.parametrize("x", ["1e300", "-1e300"])
    def test_eval_solves_tau_inverse_far_out(self, capsys, x):
        # the flat kink E00 is the identity up to a flat term, so far out
        # tau^-1(x) is x to float precision
        assert main(["eval", f"dist_eval([[E00, 1]], x0 + x1, {x})"]) == 0
        value = float(capsys.readouterr().out)
        assert math.isfinite(value) and value == pytest.approx(2 * float(x))

    @pytest.mark.parametrize("expr, make, want", [
        ("phi(0)", None, "0"),
        ("dist_eval(0, x0, 1)", None, "0"),
        # [[sh, 2]](F)(3) = 2 F(beta_sh(3)), at the arrow with source 3 - 1
        ("dist_eval([[sh, 2]], x0^2, 3)", etale_model, "8"),
        # tau_E01(0) = 0 exactly, so its preimage is not solved in floats
        ("dist_eval([[E01,1]],x0+x1,0)", None, "0"),
    ])
    def test_eval_prints_the_value(self, expr, make, want, tmp_path, capsys):
        argv = ["eval", expr]
        if make is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(model_to_json(make())))
            argv += ["--model", str(path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == want + "\n"

    def test_unknown_bisection_is_input_error(self, capsys):
        assert main(["eval", "phi(<1|nope>)"]) == 2

    def test_malformed_model_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check", "--suite", "lie-rinehart", "--model", str(bad)]) == 2

    def test_demo_names(self, capsys):
        assert main(["demo", "etale-iso"]) == 0
        assert "etale-iso" in capsys.readouterr().out

    def test_json_determinism(self, capsys):
        args = ["check", "--suite", "fd-sanity", "--output", "json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # valid JSON

    def test_kernel_example_does_not_read_the_seed(self, capsys):
        # every check is exact and draws nothing, so --seed changes no byte
        args = ["check", "--suite", "kernel-example", "--output", "json"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + ["--seed", "1"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("argv, doc", [
        # Ad of the flat E00 needs the inverse map, which is not representable
        pytest.param(["eval", "conv_mul(<1|E00>,<1 * D|E01>)"], None, id="flat-ad-inverse"),
        pytest.param(["eval", "dist_eval([[shift, 1]], x0, abc)"], None, id="bad-point"),
        # rationals beyond float range where a float path starts: the
        # bisection solve for E00^-1, the flat part of a coefficient, and a
        # float value times a rational of 401 digits
        pytest.param(["eval", "dist_eval([[E00, 1]], x0 + x1, 1e400)"], None,
                     id="flat-inverse-beyond-float"),
        pytest.param(["eval", "dist_eval([[shift, (1 + phi[1,1])]], x0 + x1, -1e400)"], None,
                     id="flat-part-beyond-float"),
        pytest.param(["eval", f"dist_eval([[shift, (1 + phi[1,1])]], 1{'0' * 400}*x0, 2)"],
                     None, id="float-times-rational-beyond-float"),
        pytest.param(["eval", "phi(<1/0|shift>)"], None, id="zero-denominator"),
        pytest.param(["eval", "phi(<(1 + phi[a,1]) | shift>)"], None, id="bad-phi-constant"),
        pytest.param(["eval", "phi(<(1 + flat[neg={0: 1/0}, pos={}]) | shift>)"], None,
                     id="bad-flat-constant"),
        pytest.param(["eval", "phi(<(1 + flat[neg={0: abc}, pos={}]) | shift>)"], None,
                     id="bad-flat-entry"),
        pytest.param(["eval", "phi(<1|s>)"],
                     {"model": "pair", "bisections": [
                         {"id": "s", "tau": {"kind": "affine", "a": "1/0", "b": "0"}}]},
                     id="model-zero-denominator"),
        pytest.param(["eval", "phi(<1|s>)"],
                     {"model": "pair", "bisections": [
                         {"id": "s", "tau": {"kind": "affine", "a": "2", "b": "0"},
                          "domain": [["0", "1/0"]]}]},
                     id="model-domain-zero-denominator"),
        # an empty domain is empty for a pair bisection too, not the whole line
        pytest.param(["eval", "phi(<1|z>)"],
                     {"model": "pair", "bisections": [
                         {"id": "z", "tau": {"kind": "affine", "a": "1", "b": "0"},
                          "domain": []}]},
                     id="model-pair-domain-empty-list"),
        pytest.param(["eval", "phi(<1|z>)"],
                     {"model": "pair", "bisections": [
                         {"id": "z", "tau": {"kind": "affine", "a": "1", "b": "0"},
                          "domain": ""}]},
                     id="model-pair-domain-empty-string"),
        pytest.param(["eval", "phi(<1|M>)"],
                     {"model": "pair", "bisections": [
                         {"id": "z", "tau": {"kind": "affine", "a": "1", "b": "0"},
                          "domain": [["1", "0"]]}]},
                     id="model-domain-reversed-interval"),
        pytest.param(["eval", "phi(<1|M>)"],
                     {"model": "pair", "bisections": [{"id": "z", "tau": {"kind": "foo"}}]},
                     id="model-unknown-tau-kind"),
        pytest.param(["eval", "phi(<1|M>)"],
                     {"model": "pair", "bisections": [
                         {"id": "z", "tau": {"kind": "flat", "i": 1, "j": 2},
                          "domain": [["0", "1"]]}]},
                     id="model-flat-kink-on-a-restricted-domain"),
        pytest.param(["eval", "phi(<1|M>)"],
                     {"model": "etale", "bisections": [{"id": "g", "gamma": ["0", "1"]}]},
                     id="model-degenerate-gamma"),
        pytest.param(["eval", "phi(<1|M>, <1|M>)"], None, id="phi-two-arguments"),
        pytest.param(["eval", "phi()"], None, id="phi-no-argument"),
        pytest.param(["eval", "phi(<1 M>)"], None, id="phi-term-without-bar"),
        pytest.param(["eval", "conv_mul(<1|M>)"], None, id="conv-mul-one-argument"),
        pytest.param(["eval", "dist_eval([[M,1]], x0)"], None, id="dist-eval-two-arguments"),
        pytest.param(["eval", "phi(< | M>)"], None, id="phi-empty-element"),
        pytest.param(["eval", "dist_eval([[M,1]], , 1)"], None, id="dist-eval-empty-function"),
        pytest.param(["eval", "dist_eval(<1|M>, x0, 1)"], None, id="dist-eval-of-a-conv-term"),
        pytest.param(["eval", "phi(<1|k>)"],
                     {"model": "heisenberg", "bisections": [{"id": "k", "k": ["1", "2"]}]},
                     id="model-short-group-element"),
        # a string is not a list of coordinates, nor a document an object
        pytest.param(["eval", "phi(<1 * X|k>)"],
                     {"model": "heisenberg", "bisections": [{"id": "k", "k": "123"}]},
                     id="model-group-element-string"),
        pytest.param(["eval", "phi(<1|g>)"],
                     {"model": "etale", "bisections": [{"id": "g", "gamma": "21"}]},
                     id="model-gamma-string"),
        pytest.param(["eval", "phi(<1|M>)"], json.dumps({"model": "pair"}),
                     id="model-document-string"),
        # a document names its model by document key, not by model kind
        pytest.param(["eval", "phi(<1|M>)"], {"model": "group", "bisections": []},
                     id="model-kind-group"),
        pytest.param(["check", "--suite", "etale-iso"], {"model": "etale_action", "bisections": []},
                     id="model-kind-etale-action"),
        pytest.param(["check", "--jobs", "0"], None, id="jobs-zero"),
        # eval draws nothing, so it takes no seed
        pytest.param(["eval", "--seed", "5", "phi(<1|M>)"], None, id="eval-seed"),
        pytest.param(["eval", "dist_eval([[E01]], x0, 0)"], None, id="dist-term-without-u"),
    ])
    def test_library_error_exits_2_without_traceback(self, argv, doc, tmp_path, capsys):
        if doc is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--model", str(path)]
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:  # argparse rejects the option
            code, usage = exc.code, True
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        if usage:
            # a subcommand's parser names it; the top one reports what is left over
            assert lines[-1].startswith(("convbialg check: error: ", "convbialg: error: "))
        else:
            assert len(lines) == 1
            assert captured.err.startswith("error: ")

    def test_uncaught_suite_error_names_the_suite(self, monkeypatch, capsys):
        from convbialg.errors import UnsupportedComposition

        def planted(*args):
            raise UnsupportedComposition("planted")

        monkeypatch.setattr(convbialg.suites, "term_products", planted)
        assert main(["check", "--suite", "prop43"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: suite prop43: planted\n"
        with pytest.raises(UnsupportedComposition, match="^suite prop43: planted$"):
            convbialg.suites.run_suite("prop43")

    def test_optimized_interpreter_same_report(self, capsys):
        args = ["check", "--suite", "hopf-etale", "--output", "json"]
        assert main(args) == 0
        in_process = capsys.readouterr().out
        run = subprocess.run([sys.executable, "-O", "-m", "convbialg.cli", *args],
                             capture_output=True, text=True, timeout=300,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode == 0, run.stderr
        assert run.stdout == in_process

    def test_repeated_calls_print_what_a_fresh_process_prints(self, tmp_path, capsys):
        # one process keeps the parser and the verified model structures
        # across calls of main(); each call must still print what the same
        # argv prints in a process where main() never ran
        paths = {}
        for key, make in (("heisenberg", heisenberg_model), ("etale", etale_model)):
            paths[key] = tmp_path / f"{key}.json"
            paths[key].write_text(json.dumps(model_to_json(make())))
        argvs = [["eval", "conv_mul(<1*x0 * D|shift>,<2|dbl>)"],
                 ["eval", "phi(<1 * X + 2 * Y | k123>)", "--model", str(paths["heisenberg"])],
                 ["eval", "conv_mul(<(1*x0) | d>,<(2) | sh>)", "--model", str(paths["etale"]),
                  "--output", "json"],
                 ["check", "--suite", "fd-sanity", "--output", "json"],
                 ["check", "--jobs", "0"]]
        fresh = subprocess.run([sys.executable, "-c", FORK_PER_ARGV], input=json.dumps(argvs),
                               capture_output=True, text=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert fresh.returncode == 0, fresh.stderr
        expected = json.loads(fresh.stdout)
        assert [code for code, _, _ in expected] == [0, 0, 0, 0, 2]
        for _ in range(2):
            for argv, want in zip(argvs, expected):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the option
                    code = exc.code
                captured = capsys.readouterr()
                assert [code, captured.out, captured.err] == want, argv

    def test_eval_round_trip(self, capsys, models):
        # the printed result of an eval re-parses to an equal element on a
        # model that has seen the same product registration
        from convbialg.conv import conv_mul

        assert main(["eval", "conv_mul(<1*x0 * D|shift>,<2|dbl>)"]) == 0
        text = capsys.readouterr().out.strip()
        m = models["pair"]
        prod = conv_mul(parse_conv(m, "<1*x0 * D|shift>"), parse_conv(m, "<2|dbl>"))
        assert prod.text() == text
        assert parse_conv(m, text) == prod


def _pair_doc_with(tau):
    """The builtin pair model's document, plus a bisection K with the given tau."""
    doc = model_to_json(pair_model())
    doc["bisections"].append({"id": "K", "tau": tau})
    return doc


LONG_INDEX = "x" + "9" * 5000  # beyond the 4,300 digits that int() converts
PADDED_INDEX = "x" + "0" * 5000 + "2"  # x2, out of range; int() refuses the zeros too


class TestInputCaps:
    @pytest.mark.parametrize("expr", [
        "phi(<1*x0^99999999 | shift>)", "dist_eval([[shift, 1]], x0, 1e99999999)",
        f"phi(<1*{LONG_INDEX} | M>)", f"conv_mul(<1*{LONG_INDEX} | M>, <1 | M>)",
        f"dist_eval([[M, 1]], {LONG_INDEX}, 1)", f"phi(<1*{PADDED_INDEX} | M>)",
        f"conv_mul(<1*{PADDED_INDEX} | M>, <1 | M>)", f"dist_eval([[M, 1]], {PADDED_INDEX}, 1)",
        f"dist_eval([[M, 1]], x0, 1e{'0' * 5000}1x)"],
        ids=lambda expr: expr[:30])
    def test_inputs_beyond_the_caps_exit_2_at_once(self, expr):
        run = subprocess.run([sys.executable, "-m", "convbialg.cli", "eval", expr],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        # the 5,000-digit index or literal is clipped in the message
        assert len(run.stderr) < 200

    @pytest.mark.parametrize("text, ok", [
        ("x0^64", True), ("x0^65", False), ("x0^32*x1^32 + x1^65", False),
        ("x0^32*x0^32", True), ("x0^32*x1^33", False), ("x0^" + "9" * 5000, False)])
    def test_total_degree_of_a_polynomial_term(self, text, ok):
        if ok:
            assert Polynomial.parse(text, 2).degree() == 64
        else:
            with pytest.raises(ParseError):
                Polynomial.parse(text, 2)

    def test_leading_zeros_of_an_index_or_exponent(self):
        zeros = "0" * 5000
        assert Polynomial.parse(f"x{zeros}1^{zeros}2", 2) == Polynomial.parse("x1^2", 2)
        assert main(["eval", f"phi(<1*x{zeros}^{zeros}3 | M>)"]) == 0

    @pytest.mark.parametrize("text, ok", [
        ("1 * X^64", True), ("1 * X^65", False), ("1 * X^32 Y^32", True),
        ("1 * X^32 Y^33", False), ("1 * X^32 * Y^33", False)])
    def test_total_degree_of_an_enveloping_algebra_term(self, text, ok, models):
        A = models["heisenberg"].algebroid
        if ok:
            assert parse_uea(A, text).degree() == 64
        else:
            with pytest.raises(ParseError):
                parse_uea(A, text)

    @pytest.mark.parametrize("key, ok", [(0, True), (64, True), (65, False), (-1, False)])
    def test_flat_key(self, key, ok):
        # a key k is the power of t^(-k), and k >= 0
        text = f"1 + flat[neg={{{key}: 1}}, pos={{}}]"
        if ok:
            assert parse_coeff(Chart.line(), text).flat_neg == {key: 1}
        else:
            with pytest.raises(ParseError):
                parse_coeff(Chart.line(), text)

    @pytest.mark.parametrize("power, ok", [(64, True), (-64, True), (65, False), (-65, False),
                                           ("99999999", False)])
    def test_flat_power_of_a_document(self, power, ok):
        doc = _pair_doc_with({"kind": "flat", "i": power, "j": 0})
        if ok:
            assert model_from_json(doc).lookup("K").tau_coeff().phi_coeffs()[0] == Q(2) ** power
        else:
            with pytest.raises(ParseError):
                model_from_json(doc)

    @pytest.mark.parametrize("text, ok", [
        ("1e300", True), ("1e400", True), ("1e1000", True), ("-1e-1000", True),
        ("1e1001", False), ("1e-1001", False), ("1E+1_001", False), ("1e" + "9" * 5000, False)])
    def test_decimal_exponent_of_a_rational(self, text, ok):
        if ok:
            assert parse_rational(text) == Q(text)
        else:
            with pytest.raises(ParseError):
                parse_rational(text)

    @pytest.mark.parametrize("text, want", [
        ("1e" + "0" * 5000 + "1", 10), ("-2.5E-" + "0" * 5000 + "1", Q(-1, 4)),
        ("3e+" + "0" * 5000, 3), ("1e" + "0" * 5000 + "1001", None)],
        ids=lambda v: v.replace("0" * 5000, "<5000 zeros>") if isinstance(v, str) else "")
    def test_leading_zeros_of_a_decimal_exponent(self, text, want):
        if want is None:
            with pytest.raises(ParseError, match="exponent above 1000"):
                parse_rational(text)
        else:
            assert parse_rational(text) == want

    @pytest.mark.parametrize("expr", [
        f"phi(<1*y{'9' * 5000} | M>)", f"phi(<1 | M{'9' * 5000}>)",
        f"conv_mul(<1 | M>){'9' * 5000}", "dist_eval([[Mxx, 1]], 1, 0)"],
        ids=lambda expr: expr[:20])
    def test_an_echoed_token_is_clipped_and_not_quoted_again(self, expr, capsys):
        assert main(["eval", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "error:" not in err[1:]
        assert len(err) < 200 and not err.startswith('error: "')

    @pytest.mark.parametrize("expr", [
        f"phi(<1 | M>{'9' * 5000})", f"phi(<1 | M | {'9' * 5000}>)",
        f"dist_eval([[M, 1]{'9' * 5000}], 1, 0)"],
        ids=lambda expr: expr[:20])
    def test_a_malformed_term_is_clipped_in_its_shape_error(self, expr):
        run = subprocess.run([sys.executable, "-m", "convbialg.cli", "eval", expr],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert len(run.stderr) < 120

    @pytest.mark.parametrize("parse, text", [
        ("coeff2", "9" * 5000 + " + phi[1,1]"),
        ("coeff", "9" * 5000 + " + phi[1]"),
        ("coeff", "9" * 5000 + " + flat[x]"),
        ("coeff", "1 + flat[neg={" + "9" * 5000 + "}, pos={}]"),
        ("uea", "1 +  + " + "9" * 5000),
        ("uea", "1 * " + "Q" * 5000)],
        ids=["flat-off-the-line", "phi-part", "flat-part", "flat-entry", "empty-term",
             "generator"])
    def test_a_parse_error_clips_the_text_it_echoes(self, parse, text, models):
        parsers = {"coeff": lambda: parse_coeff(Chart.line(), text),
                   "coeff2": lambda: parse_coeff(Chart(2), text),
                   "uea": lambda: parse_uea(models["heisenberg"].algebroid, text)}
        with pytest.raises(ParseError) as info:
            parsers[parse]()
        assert len(str(info.value)) < 120 and str(info.value).endswith(" characters)")

    def test_a_key_error_prints_its_message(self, monkeypatch, capsys):
        def unknown(model, expr):
            raise KeyError("unknown bisection 'Q'")

        monkeypatch.setattr(convbialg.cli, "_eval_expr", unknown)
        assert main(["eval", "phi(<1 | Q>)"]) == 2
        assert capsys.readouterr().err == "error: unknown bisection 'Q'\n"

    def test_cap_and_cap_plus_one_on_the_cli(self, capsys):
        assert main(["eval", "phi(<1*x0^64 | M>)"]) == 0
        assert capsys.readouterr().out.strip() == "[[M, 1*x0^64]]"
        assert main(["eval", "phi(<1*x0^65 | M>)"]) == 2
        assert capsys.readouterr().err == "error: exponent above 64 in magnitude\n"

    def test_flat_kink_that_is_not_a_diffeomorphism_exits_2(self, tmp_path, capsys):
        # tau(t) = t - 2 exp(-1/t^2) for t > 0 is not monotone: tau(0.6) > tau(0.8)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_pair_doc_with({"kind": "flat", "c_neg": "1", "c_pos": "-2"})))
        for argv in (["check"], ["eval", "dist_eval([[K,1]],x0+x1,2/5)"]):
            assert main(argv + ["--model", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "needs c >= -1" in captured.err

    @pytest.mark.parametrize("c_neg, c_pos", [("-1", "0"), ("0", "-1"), ("0", "0")])
    def test_flat_kink_with_c_at_least_minus_one_is_accepted(self, c_neg, c_pos, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_pair_doc_with({"kind": "flat", "c_neg": c_neg,
                                                   "c_pos": c_pos})))
        # F = x0 + x1 at the arrow (2/5, tau^-1(2/5)); tau is the identity for
        # t >= 0 when c_pos = 0, and t - phi(t) < t there when c_pos = -1
        assert main(["eval", "dist_eval([[K,1]],x0+x1,2/5)", "--model", str(path)]) == 0
        value = Q(capsys.readouterr().out.strip())
        assert value == Q(4, 5) if c_pos == "0" else value > Q(4, 5)


SUBSET = ("hopf-etale", "prop43")


@pytest.fixture
def suite_subset(monkeypatch):
    """Limit `check` without --suite to two suites that share the etale model."""
    monkeypatch.setattr(convbialg.suites, "SUITES",
                        {name: convbialg.suites.SUITES[name] for name in SUBSET})


class TestRunAll:
    def test_every_given_model_is_checked(self):
        # a model under a key that no factory has, next to the builtin ones
        models = {"pair": pair_model(), "pair2": pair_model()}
        reports = [convbialg.suites.run_suite("prop43", models=models),
                   convbialg.suites.run_suite("commuting-square", models=models)]
        for report in reports:
            names = [c["name"].split(":")[0] for c in report["checks"] if ":" in c["name"]]
            assert names == ["etale", "heisenberg", "pair", "pair2"]
            assert report["pass"]

    def test_suite_reports_do_not_depend_on_earlier_suites(self, suite_subset):
        report = convbialg.suites.run_all()
        assert [r["suite"] for r in report["suites"]] == sorted(SUBSET)
        for r in report["suites"]:
            assert r == convbialg.suites.run_suite(r["suite"])

    def test_jobs_same_all_suite_report(self, suite_subset, capsys):
        base = ["check", "--output", "json"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert [r["suite"] for r in json.loads(serial)["suites"]] == sorted(SUBSET)
        assert serial == parallel
