import pytest

from convbialg.coeffs import Chart, CoeffFn, Polynomial
from convbialg.errors import VerificationFailed
from convbialg.lie_rinehart import (
    LieRinehart,
    algebroid_of_groupoid,
    anchor_apply,
    bracket,
    check_axioms,
    heisenberg_algebra,
    rank_zero_algebroid,
    tangent_line_algebroid,
)
from convbialg.models import builtin_models


class TestAxioms:
    def test_tangent_line(self):
        assert check_axioms(tangent_line_algebroid())["passed"]

    def test_heisenberg(self):
        assert check_axioms(heisenberg_algebra())["passed"]

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
