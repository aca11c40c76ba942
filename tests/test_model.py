"""Model grammar, structural checks, and the bundled models."""
from __future__ import annotations

from fractions import Fraction

import pytest

from ccmv.core import Status
from ccmv.model import (
    HEISENBERG_CCM,
    CheckResult,
    MAX_N,
    InvalidModelError,
    ManifoldModel,
    ModelFormatError,
    build_abelian,
    build_heisenberg,
    lie_checks,
    load_model,
    require_lie_algebra,
    structure_constants,
    validate_structure,
)
from ccmv.core import Table, combine
from conftest import vector

MINIMAL = "version 1\nname tiny\nn 1\n"

CHECK_ORDER = [
    "LIE-ANTISYM", "LIE-JACOBI", "AX-G2", "AX-H2", "AX-J2", "AX-ANTICOMM",
    "AX-KERNEL", "AX-SKEW", "AX-HGJ", "AX-JH", "AX-JV", "AX-HERM",
]

# (column index, image index, coefficient) for every nonzero tensor entry
G_ACTION = [(0, 2, -1), (1, 3, 1), (2, 0, 1), (3, 1, -1)]
H_ACTION = [(0, 3, -1), (1, 2, -1), (2, 1, 1), (3, 0, 1)]
J_ACTION = [(0, 1, -1), (1, 0, 1), (2, 3, -1), (3, 2, 1), (4, 5, -1), (5, 4, 1)]


class TestLoadHappyPath:
    def test_bundled_model_header(self, heisenberg):
        assert heisenberg.name == "heisenberg"
        assert heisenberg.n == 1
        assert heisenberg.dim == 6
        assert heisenberg.U_index == 4
        assert heisenberg.V_index == 5
        assert list(heisenberg.horizontal_indices) == [0, 1, 2, 3]

    def test_vertical_fields_and_duals(self, heisenberg):
        assert heisenberg.U == heisenberg.basis(4)
        assert heisenberg.V == heisenberg.basis(5)
        # a 1-form is its dual vector: u = g(U, .), v = g(V, .)
        assert heisenberg.U.contract(heisenberg.U) == 1
        assert heisenberg.U.contract(heisenberg.V) == 0
        assert heisenberg.V.contract(heisenberg.V) == 1
        with pytest.raises(IndexError):
            heisenberg.basis(6)

    @pytest.mark.parametrize("column,image,coeff", G_ACTION)
    def test_G_action(self, heisenberg, column, image, coeff):
        expected = combine([(coeff, heisenberg.basis(image))])
        assert heisenberg.G.contract(heisenberg.basis(column)) == expected

    @pytest.mark.parametrize("column,image,coeff", H_ACTION)
    def test_H_action(self, heisenberg, column, image, coeff):
        expected = combine([(coeff, heisenberg.basis(image))])
        assert heisenberg.H.contract(heisenberg.basis(column)) == expected

    @pytest.mark.parametrize("column,image,coeff", J_ACTION)
    def test_J_action(self, heisenberg, column, image, coeff):
        expected = combine([(coeff, heisenberg.basis(image))])
        assert heisenberg.J.contract(heisenberg.basis(column)) == expected

    def test_tensors_kill_vertical_fields(self, heisenberg):
        for tensor in (heisenberg.G, heisenberg.H):
            assert tensor.contract(heisenberg.U).is_zero()
            assert tensor.contract(heisenberg.V).is_zero()

    def test_brackets(self, heisenberg):
        c = heisenberg.constants
        expected = {(0, 2): (4, -2), (0, 3): (5, -2), (1, 2): (5, -2),
                    (1, 3): (4, 2)}
        for i in range(6):
            for j in range(6):
                vec = c.row(i, j)
                if (i, j) in expected:
                    k, q = expected[(i, j)]
                    assert vec == combine([(q, heisenberg.basis(k))])
                elif (j, i) in expected:
                    k, q = expected[(j, i)]
                    assert vec == combine([(-q, heisenberg.basis(k))])
                else:
                    assert vec.is_zero(), (i, j)

    def test_bracket_bilinear(self, heisenberg):
        c = heisenberg.constants
        x = vector([1, 2, 0, 0, 0, 0])
        y = vector([0, 0, 3, -1, 0, 0])
        # [e0 + 2e1, 3e2 - e3] = 3[e0,e2] - [e0,e3] + 6[e1,e2] - 2[e1,e3]
        expected = combine([(3, c.row(0, 2)), (-1, c.row(0, 3)),
                            (6, c.row(1, 2)), (-2, c.row(1, 3))])
        assert c.contract(x, y) == expected

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\nversion 1  # trailing\n\nname x\nn 1\n# end\n"
        m = load_model(text)
        assert m.name == "x"
        assert m.G.is_zero()

    def test_unlisted_coefficients_are_zero(self):
        m = load_model(MINIMAL + "G 0 1 1\n")
        assert m.G.contract(m.basis(0)) == m.basis(1)
        assert m.G.contract(m.basis(1)).is_zero()
        assert m.constants.row(0, 1).is_zero()

    def test_default_name(self):
        assert load_model("version 1\nn 1\n").name == "model"


class TestLoadErrors:
    @pytest.mark.parametrize("text,line,fragment", [
        ("name x\nversion 1\nn 1\n", 1, "first line must be"),
        ("version 2\nn 1\n", 1, "unsupported version"),
        ("version 1\nversion 1\nn 1\n", 2, "duplicate version"),
        ("version 1\nname a\nname b\nn 1\n", 3, "duplicate name"),
        ("version 1\nname a b\nn 1\n", 2, "name takes exactly one token"),
        ("version 1\nn 1\nn 1\n", 3, "duplicate n"),
        ("version 1\nn 0\n", 2, "positive integer"),
        ("version 1\nn x\n", 2, "positive integer"),
        ("version 1\nn \u00b2\n", 2, "positive integer"),
        ("version 1\nn 1000000\n", 2, "exceeds the supported maximum"),
        ("version 1\nbracket 0 2 4 1\nn 1\n", 2, "n must be declared"),
        ("version 1\nG 0 1 1\nn 1\n", 2, "n must be declared"),
        (MINIMAL + "bracket 0 2 4\n", 4, "bracket takes i j k value"),
        (MINIMAL + "bracket 2 0 4 1\n", 4, "bracket 2 0: i must be < j"),
        (MINIMAL + "bracket 1 1 4 1\n", 4, "bracket 1 1: i must be < j"),
        (MINIMAL + "bracket 0 2 4 1\nbracket 0 2 4 2\n", 5,
         "duplicate bracket entry 0 2 4"),
        (MINIMAL + "bracket 0 6 4 1\n", 4, "out of range"),
        (MINIMAL + "bracket 0 x 4 1\n", 4, "expected a frame index"),
        (MINIMAL + "bracket +0 2 4 1\n", 4, "expected a frame index"),
        (MINIMAL + "bracket 0 0_2 4 1\n", 4, "expected a frame index"),
        (MINIMAL + "G \u0664 1 1\n", 4, "expected a frame index"),
        (MINIMAL + "J 0 1 \u0663\n", 4, "not an exact rational"),
        (MINIMAL + "G 0 1\n", 4, "G takes i k value"),
        (MINIMAL + "H 0 1 1\nH 0 1 2\n", 5, "duplicate H entry 0 1"),
        (MINIMAL + "J 0 1 1.5\n", 4, "not an exact rational"),
        (MINIMAL + "frobnicate 1\n", 4, "unknown directive"),
        ("", 1, "missing `version 1`"),
        ("version 1\nname a\n", 1, "missing n"),
    ])
    def test_rejects(self, text, line, fragment):
        with pytest.raises(ModelFormatError) as err:
            load_model(text)
        assert err.value.line == line
        assert fragment in str(err.value)
        assert f"line {line}:" in str(err.value)

    def test_huge_n_is_rejected_before_any_table_exists(self):
        text = "version 1\nn " + "9" * 5000 + "\nbracket 0 1 2 1\n"
        with pytest.raises(ModelFormatError) as err:
            load_model(text)
        assert err.value.line == 2
        assert f"exceeds the supported maximum {MAX_N}" in str(err.value)

    def test_max_n_bounds_the_dense_curvature_table(self):
        assert (4 * MAX_N + 2) ** 4 < 10 ** 7 <= (4 * MAX_N + 6) ** 4
        assert load_model("version 1\nn 3\n").dim == 14

    def test_loader_does_not_enforce_jacobi(self):
        # brackets violating Jacobi still load; the gate rejects them later
        text = MINIMAL + "bracket 0 1 2 1\nbracket 0 2 0 1\n"
        m = load_model(text)
        with pytest.raises(InvalidModelError) as err:
            require_lie_algebra(m)
        assert "LIE-JACOBI" in str(err.value)

    def test_loader_does_not_enforce_axioms(self):
        m = load_model(MINIMAL + "G 0 1 1\n")
        report = validate_structure(m)
        assert not report.all_pass


class TestValidation:
    def test_check_order_and_statuses(self, heisenberg):
        report = validate_structure(heisenberg)
        assert [c.check_id for c in report.checks] == CHECK_ORDER
        assert report.all_pass
        assert report.failures == ()
        assert all(c.witness is None for c in report.checks)

    def test_gate_accepts_bundled_model(self, heisenberg):
        require_lie_algebra(heisenberg)

    def test_antisym_failure_witness(self):
        # build raw constants that break antisymmetry (loader cannot)
        raw = Table.from_values(6, 3, {(0, 1, 2): Fraction(1)})
        base = build_heisenberg()
        m = ManifoldModel("broken", 1, raw, base.G, base.H, base.J)
        checks = {r.check_id: r for r in lie_checks(m)}
        assert checks["LIE-ANTISYM"].status is Status.FAIL
        assert checks["LIE-ANTISYM"].witness == "entry=(0,1,2) lhs=1 rhs=0"

    def test_structure_constants_store_only_the_nonzero_brackets(self):
        c = structure_constants(54, {(0, 2, 52): Fraction(-2), (1, 3, 53): Fraction(1, 3),
                                     (7, 40, 0): Fraction(5)})
        assert len(list(c.items())) == 6
        assert c.entry(2, 0, 52) == 2 and c.entry(40, 7, 0) == -5

    def test_structure_constants_reject_unordered(self):
        with pytest.raises(ValueError, match="i must be < j"):
            structure_constants(6, {(2, 0, 4): Fraction(1)})


def _flip_line(line: str) -> str:
    tokens = line.split()
    value = tokens[-1]
    tokens[-1] = value[1:] if value.startswith("-") else f"-{value}"
    return " ".join(tokens)


TENSOR_LINES = [line for line in HEISENBERG_CCM.splitlines()
                if line.split() and line.split()[0] in ("G", "H", "J")]


class TestPerturbation:
    @pytest.mark.parametrize("line", TENSOR_LINES)
    def test_single_sign_flip_fails_validation(self, line):
        flipped = HEISENBERG_CCM.replace(line, _flip_line(line))
        assert flipped != HEISENBERG_CCM
        report = validate_structure(load_model(flipped))
        assert not report.all_pass
        assert all(c.witness for c in report.failures)

    @pytest.mark.parametrize("line,moved,check", [
        # G e_3 moved to G U: the first image that is not zero
        ("G 3 1 -1", "G 4 1 -1",
         CheckResult("AX-KERNEL", Status.FAIL, "G@U entry=(1) lhs=-1 rhs=0")),
        ("H 3 0 1", "H 4 0 1",
         CheckResult("AX-KERNEL", Status.FAIL, "H@U entry=(0) lhs=1 rhs=0")),
        # J V = -U moved to J V = -V
        ("J 4 5 -1", "J 5 5 -1",
         CheckResult("AX-JV", Status.FAIL, "JV entry=(5) lhs=-1 rhs=0")),
    ])
    def test_moved_line_witness(self, line, moved, check):
        m = load_model(HEISENBERG_CCM.replace(line, moved))
        checks = {c.check_id: c for c in validate_structure(m).checks}
        assert checks[check.check_id] == check

    def test_G_column3_flip_fails_square_axiom(self):
        flipped = HEISENBERG_CCM.replace("G 3 1 -1", "G 3 1 1")
        report = validate_structure(load_model(flipped))
        failed = {c.check_id for c in report.failures}
        assert "AX-G2" in failed


class TestAbelian:
    def test_brackets_all_zero(self, abelian):
        assert all(abelian.constants.row(i, j).is_zero()
                   for i in range(6) for j in range(6))

    def test_algebraic_axioms_still_pass(self, abelian):
        assert validate_structure(abelian).all_pass

    def test_gate_accepts(self, abelian):
        require_lie_algebra(abelian)
