import importlib
import json
import random

import pytest

from convbialg.cli import main
from convbialg.coeffs import Chart, CoeffFn, Polynomial
from convbialg.errors import VerificationFailed
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

        model = heisenberg_model()
        model.frame[1][2] = Polynomial.parse("2*x0", 3)
        with pytest.raises(VerificationFailed):
            algebroid_of_groupoid(model)

    @pytest.mark.parametrize("cut", [1, 2])
    def test_frame_field_of_the_wrong_length_detected(self, cut):
        # a prefix of the derived field, or the field with one entry more
        from convbialg.models import heisenberg_model

        model = heisenberg_model()
        field = model.frame[1]
        model.frame[1] = field[:cut] if cut == 2 else field + [Polynomial(3, {})]
        with pytest.raises(VerificationFailed, match="stored frame field 1"):
            algebroid_of_groupoid(model)
