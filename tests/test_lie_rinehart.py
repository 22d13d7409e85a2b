import importlib
import json
import random

import pytest

from convbialg.cli import main
from convbialg.coeffs import Chart, CoeffFn, Polynomial
from convbialg.errors import VerificationFailed
from convbialg.groupoid import GroupModel, PolynomialGroupoid
from convbialg.lie_rinehart import (
    LieRinehart,
    Section,
    algebroid_of_groupoid,
    anchor_apply,
    bracket,
    check_axioms,
    heisenberg_algebra,
    random_polynomial,
    rank_zero_algebroid,
    tangent_line_algebroid,
)
from convbialg.models import builtin_models

from free_oracle import line_rank2_algebra

ALGEBRAS = {"tangent-line": tangent_line_algebroid, "heisenberg": heisenberg_algebra,
            "line-rank2": line_rank2_algebra}


def leibniz_bracket(X, Y):
    """[X, Y] the long way, by Section arithmetic: the table section
    [X_i, X_j] times h_i k_j for every pair of frame elements, then
    rho(X)(k_m) X_m - rho(Y)(h_m) X_m for every m."""
    A = X.parent
    out = Section(A, [A.zero] * A.rank)
    for i, h in enumerate(X.coeffs):
        for j, k in enumerate(Y.coeffs):
            out = out + Section(A, A.bracket_table[i][j]).rmul(h * k)
    for m in range(A.rank):
        out = out + A.basis_section(m).rmul(anchor_apply(X, Y.coeffs[m]))
        out = out - A.basis_section(m).rmul(anchor_apply(Y, X.coeffs[m]))
    return out


def full_anchor_sum(X, f):
    """rho(X)(f) = sum_i h_i * sum_d anchor[i][d] * df/dx_d, summed from zero
    over every index, zero terms included."""
    A = X.parent
    out = A.zero
    for i, h in enumerate(X.coeffs):
        rho_f = A.zero
        for d, a in enumerate(A.anchor[i]):
            rho_f = rho_f + a * f.derive(d)
        out = out + h * rho_f
    return out


def random_section(rng, A):
    """Polynomial coefficients of degree <= 2; about one in four is zero."""
    return Section(A, [CoeffFn(A.chart, random_polynomial(rng, A.chart.dim))
                       if rng.random() < 0.75 else A.zero for _ in range(A.rank)])


class TestAxioms:
    def test_tangent_line(self):
        assert check_axioms(tangent_line_algebroid())["passed"]

    def test_heisenberg(self):
        assert check_axioms(heisenberg_algebra())["passed"]

    def test_line_rank2(self):
        assert check_axioms(line_rank2_algebra())["passed"]

    def test_line_affine(self):
        assert check_axioms(line_affine_algebra())["passed"]

    def test_rank_zero(self):
        assert check_axioms(rank_zero_algebroid(Chart.line("M")))["passed"]

    def test_corrupted_table_fails_with_witness(self):
        H = heisenberg_algebra()
        table = [list(row) for row in H.bracket_table]
        table[1][0] = (H.zero, H.zero, H.one)
        bad = LieRinehart(H.chart, H.rank, H.anchor, table, H.basis_names)
        rep = check_axioms(bad)
        assert not rep["passed"]
        failed = [c for c in rep["checks"] if not c["pass"]]
        assert failed and any(c["witness"] for c in failed)

    def test_corrupted_table_names_its_first_failing_entry(self):
        # [Y, X] = Z like [X, Y]: (0, 1, 2) is the first of the two entries
        # that break antisymmetry
        H = heisenberg_algebra()
        table = [list(row) for row in H.bracket_table]
        table[1][0] = (H.zero, H.zero, H.one)
        bad = LieRinehart(H.chart, H.rank, H.anchor, table, H.basis_names)
        checks = {c["name"]: c for c in check_axioms(bad)["checks"]}
        assert checks["antisymmetry"] == {"name": "antisymmetry", "pass": False,
                                          "witness": "c[0][1][2] != -c[1][0][2]"}

    def test_a_bracket_without_its_left_anchor_term_fails_leibniz(self, monkeypatch, capsys):
        # the closed formula without - rho(Y)(h_k): constant frame
        # coefficients never meet it, so only Leibniz in the left argument
        # (tangent line, [f D, D] = -f' D) sees it
        lie_rinehart = importlib.import_module("convbialg.lie_rinehart")

        def planted(X, Y):
            A = X.parent
            pairs = [(h * k, A.bracket_table[i][j])
                     for i, h in enumerate(X.coeffs) if not h.is_zero
                     for j, k in enumerate(Y.coeffs) if not k.is_zero]
            return Section(A, [sum((hk * c[m] for hk, c in pairs), anchor_apply(X, Y.coeffs[m]))
                               for m in range(A.rank)])

        monkeypatch.setattr(lie_rinehart, "bracket", planted)
        assert main(["check", "--suite", "lie-rinehart", "--output", "json"]) == 1
        (suite,) = json.loads(capsys.readouterr().out)["suites"]
        failed = {c["name"]: c["witness"] for c in suite["checks"] if not c["pass"]}
        assert list(failed) == ["axioms on tangent-line"]
        (leibniz,) = failed["axioms on tangent-line"]
        assert leibniz["name"] == "leibniz"
        assert leibniz["witness"].startswith("Leibniz fails in the left argument")

    def test_structure_data_are_immutable(self):
        H = heisenberg_algebra()
        with pytest.raises(TypeError):
            H.bracket_table[1][0] = (H.zero, H.zero, H.one)
        with pytest.raises(TypeError):
            H.bracket_table[1][0][2] = H.one
        with pytest.raises(TypeError):
            tangent_line_algebroid().anchor[0][0] = H.zero


class TestBracket:
    def test_heisenberg_table(self):
        H = heisenberg_algebra()
        X, Y = H.basis_section(0), H.basis_section(1)
        xy = bracket(X, Y)
        assert xy.coeffs[2] == CoeffFn.const(H.chart, 1)
        assert xy.coeffs[0].is_zero and xy.coeffs[1].is_zero
        assert (bracket(Y, X) + xy).is_zero

    def test_anchor_apply_tangent_line(self):
        A = tangent_line_algebroid()
        D = A.basis_section(0)
        f = CoeffFn(A.chart, Polynomial.parse("x0^2", 1))
        assert anchor_apply(D, f) == CoeffFn(A.chart, Polynomial.parse("2*x0", 1))

    def test_leibniz_concrete(self):
        A = tangent_line_algebroid()
        D = A.basis_section(0)
        f = CoeffFn(A.chart, Polynomial.parse("x0", 1))
        lhs = bracket(D, D.rmul(f))
        # [D, x D] = D, since the bracket table is zero in rank 1
        assert lhs.coeffs[0] == CoeffFn.const(A.chart, 1)


    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_closed_formula_is_the_leibniz_expansion(self, name):
        A = ALGEBRAS[name]()
        rng = random.Random(0xB8AC)
        for _ in range(30):
            X, Y = random_section(rng, A), random_section(rng, A)
            assert bracket(X, Y) == leibniz_bracket(X, Y)

    def test_a_structure_function_meets_the_anchor(self):
        # [X1, t X2] = t [X1, X2] + rho(X1)(t) X2 = (t^2 + 1) X2
        A = line_rank2_algebra()
        t = CoeffFn.var(A.chart)
        X1, X2 = A.basis_section(0), A.basis_section(1)
        assert bracket(X1, X2) == X2.rmul(t)
        assert bracket(X1, X2.rmul(t)) == X2.rmul(t * t + A.one)
        assert bracket(X2.rmul(t), X1) == X2.rmul(-(t * t + A.one))

    def test_one_section_per_bracket(self, monkeypatch):
        A = line_rank2_algebra()
        rng = random.Random(7)
        X, Y = random_section(rng, A), random_section(rng, A)
        built = []
        real = Section.__init__

        def counting(self, parent, coeffs):
            built.append(self)
            real(self, parent, coeffs)

        monkeypatch.setattr(Section, "__init__", counting)
        bracket(X, Y)
        assert len(built) == 1


def line_affine_algebra():
    """aff(1) acting on the line: rho(X1) = d/dt, rho(X2) = t d/dt and
    [X1, X2] = X1, so two anchor terms can both be nonzero."""
    chart = Chart.line("M")
    zero, one, t = CoeffFn.const(chart, 0), CoeffFn.const(chart, 1), CoeffFn.var(chart)
    table = [[[zero, zero], [one, zero]], [[-one, zero], [zero, zero]]]
    return LieRinehart(chart, 2, [[one], [t]], table)


class TestAnchor:
    @pytest.mark.parametrize("make", [*ALGEBRAS.values(), line_affine_algebra])
    def test_anchor_apply_is_the_full_sum(self, make):
        # the same terms, in the same order, with the same scalar types
        A = make()
        rng = random.Random(0xA2C)
        for _ in range(30):
            X = random_section(rng, A)
            f = CoeffFn(A.chart, random_polynomial(rng, A.chart.dim))
            got, ref = anchor_apply(X, f), full_anchor_sum(X, f)
            assert got == ref
            assert [(e, c, type(c)) for e, c in got.poly.terms.items()] == \
                [(e, c, type(c)) for e, c in ref.poly.terms.items()]

    def test_a_zero_anchor_multiplies_nothing(self, monkeypatch):
        H = heisenberg_algebra()
        rng = random.Random(3)
        cases = [(random_section(rng, H), CoeffFn(H.chart, random_polynomial(rng, 0)))
                 for _ in range(10)]
        products = []
        real = CoeffFn.__mul__
        monkeypatch.setattr(CoeffFn, "__mul__", lambda f, g: products.append((f, g)) or real(f, g))
        assert all(anchor_apply(X, f).is_zero for X, f in cases)
        assert not products


class TestGroupoidConsistency:
    def test_all_models_reverify(self):
        for model in builtin_models().values():
            A = algebroid_of_groupoid(model)
            assert A is model.algebroid

    def test_broken_frame_detected(self):
        from convbialg.models import heisenberg_model

        args = _constructor_args(heisenberg_model())
        args["frame"][1][2] = Polynomial.parse("2*x0", 3)
        model = GroupModel(**args)  # the structure maps are unchanged and pass
        with pytest.raises(VerificationFailed):
            algebroid_of_groupoid(model)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_frame_field_of_the_wrong_length_detected(self, cut):
        # a prefix of the derived field, or the field with one entry more
        from convbialg.models import heisenberg_model

        args = _constructor_args(heisenberg_model())
        field = args["frame"][1]
        args["frame"][1] = field[:cut] if cut == 2 else field + [Polynomial(3, {})]
        model = GroupModel(**args)
        with pytest.raises(VerificationFailed, match="stored frame field 1"):
            algebroid_of_groupoid(model)


def _constructor_args(model):
    """The constructor arguments of a built polynomial model, lists copied."""
    args = {"name": model.name, "base": model.base, "arrow_chart": model.arrow_chart,
            "algebroid": model.algebroid}
    for field in ("s_map", "t_map", "unit_map", "inv_map", "mult_map"):
        args[field] = list(getattr(model, field))
    for field in ("frame", "unit_frame"):
        args[field] = [list(row) for row in getattr(model, field)]
    if hasattr(model, "stored_ad_matrix"):
        args["stored_ad_matrix"] = model.stored_ad_matrix
    return args


def _changed(args, field):
    """args with one field that the structure checks read changed."""
    pair = args["s_map"] != []
    n = args["arrow_chart"].dim
    if field == "frame":
        args["frame"][0][1] = Polynomial.const(n, 2)
    elif field == "unit_frame":
        args["unit_frame"][0][1] = Polynomial.const(args["base"].dim, 2)
    elif field == "mult_map":
        # c + c' + a b' + (a + a')^2: mult(inv(g), g) is still the unit,
        # but (g3 g2) g1 - g3 (g2 g1) has c-part (a3 + a2)^2 - (a2 + a1)^2
        a_plus_a = Polynomial.var(6, 0) + Polynomial.var(6, 3)
        args["mult_map"][2] = args["mult_map"][2] + a_plus_a * a_plus_a
    else:
        A = args["algebroid"]
        anchor, table = A.anchor, [[list(c) for c in row] for row in A.bracket_table]
        if field == "anchor":  # rho(D) = 2 d/dt on the pair model
            anchor = [[2]]
        else:  # [D, D] = 2 D, or [X, Y] = 2 Z
            i, j, k = (0, 0, 0) if pair else (0, 1, 2)
            table[i][j][k] = 2
        args["algebroid"] = LieRinehart(A.chart, A.rank, anchor, table, A.basis_names)
    return args


CHANGES = [("pair", "frame"), ("pair", "unit_frame"), ("pair", "anchor"), ("pair", "bracket"),
           ("heisenberg", "frame"), ("heisenberg", "unit_frame"), ("heisenberg", "mult_map"),
           ("heisenberg", "bracket")]


class TestVerifiedOnce:
    """Each kind's structure is built and verified once per process, and
    an explicit algebroid_of_groupoid checks in full on every call.  A
    structure that differs from a verified one in any field the checks
    read is checked in full."""

    def test_each_structure_is_verified_once(self, monkeypatch):
        builtin_models()  # every kind built in this process
        lie_rinehart = importlib.import_module("convbialg.lie_rinehart")
        models_module = importlib.import_module("convbialg.models")
        structure_runs, algebroid_runs, fields = [], [], []

        def counted(runs, fn):
            return lambda *args: runs.append(args[1:]) or fn(*args)

        monkeypatch.setattr(PolynomialGroupoid, "_verify_structure",
                            counted(structure_runs, PolynomialGroupoid._verify_structure))
        monkeypatch.setattr(models_module, "algebroid_of_groupoid",
                            counted(algebroid_runs, algebroid_of_groupoid))
        # frame_field is read by the algebroid check alone, once per frame element
        monkeypatch.setattr(lie_rinehart, "frame_field",
                            counted(fields, lie_rinehart.frame_field))
        models = builtin_models()
        assert structure_runs == algebroid_runs == fields == []
        for _ in range(2):
            for key in ("pair", "heisenberg"):
                fields.clear()
                assert algebroid_of_groupoid(models[key]) is models[key].algebroid
                assert fields == [(i,) for i in range(models[key].algebroid.rank)]
        assert structure_runs == algebroid_runs == []

    @pytest.mark.parametrize("kind, field", CHANGES, ids=lambda v: v)
    def test_a_changed_structure_is_checked_after_a_good_one(self, kind, field):
        models = builtin_models()  # every kind verified in this process
        good = models[kind]
        for _ in range(2):  # the failure recorded nothing
            # the constructor path, as a factory runs it
            with pytest.raises(VerificationFailed):
                algebroid_of_groupoid(type(good)(**_changed(_constructor_args(good), field)))
            # an explicit check of a built model whose field changed
            model = models[kind]
            attr = "algebroid" if field in ("anchor", "bracket") else field
            setattr(model, attr, _changed(_constructor_args(model), field)[attr])
            with pytest.raises(VerificationFailed):
                algebroid_of_groupoid(model)
            models = builtin_models()
        assert algebroid_of_groupoid(models[kind]) is models[kind].algebroid


class TestSharedStructure:
    """The models of a kind share one verified structure and nothing else:
    each has its own registry, aliases and derived store."""

    def test_structure_is_shared_and_stores_are_not(self):
        from convbialg.models import model_from_json, model_to_json, pair_model

        first = pair_model()
        models = [first, pair_model(), model_from_json(model_to_json(first))]
        for field in ("base", "mult_map", "frame", "algebroid"):
            assert len({id(getattr(m, field)) for m in models}) == 1
        for field in ("registry", "aliases", "derived"):
            assert len({id(getattr(m, field)) for m in models}) == len(models)
        a, b, c = models
        product = a.registered_product(a.lookup("shift"), a.lookup("dbl"))
        assert a.registry[product.bid] is product
        for other in (b, c):
            assert product.bid not in other.registry
            assert not [k for k in other.derived if k[0] == "product"]

    def test_cached_structures_stay_empty_after_a_run(self):
        from convbialg.suites import run_all

        models_module = importlib.import_module("convbialg.models")
        structures = [models_module._pair_structure(), models_module._heisenberg_structure(),
                      models_module._etale_structure()]
        assert run_all()["pass"]
        for structure in structures:
            assert structure.registry == structure.aliases == structure.derived == {}

    def test_structure_cannot_be_written_in_place(self):
        from convbialg.models import heisenberg_model

        model = heisenberg_model()
        with pytest.raises(TypeError):
            model.frame[0][1] = Polynomial.parse("x0", 3)
        with pytest.raises(TypeError):
            model.frame[0] = model.frame[1]
        with pytest.raises(TypeError):
            model.mult_map[2] = model.mult_map[0]
        with pytest.raises(TypeError):
            model.algebroid.basis_names[0] = "W"
        assert algebroid_of_groupoid(heisenberg_model()) is model.algebroid
