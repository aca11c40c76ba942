"""Obstruction tensors, derivative tables, and the three normality routes."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from ccmv.connection import levi_civita
from ccmv.core import Status, Table, combine, first_failure
from ccmv.structures import ConnectionWorkspace, check_normality
from ccmv.verify import Workspace
from conftest import (
    horizontal_projection,
    make_heisenberg_model,
    make_nilpotent_model,
    make_two_step_model,
    random_rational_vector,
    vector,
)


def endo_from_table(table: dict[tuple[int, int], int]) -> Table:
    """Build the map with matrix entry (row k, column i) from a sparse dict."""
    return Table.from_values(6, 2, {(i, k): value for (k, i), value in table.items()})


class TestDerivativeTables:
    """Frozen nabla G / nabla H / nabla J along the vertical directions."""

    def test_nabla_U_G_vanishes(self, heis_ws):
        assert heis_ws.nUG.is_zero()

    def test_nabla_V_H_vanishes(self, heis_ws):
        assert heis_ws.nVH.is_zero()

    def test_nabla_V_G(self, heis_ws):
        expected = endo_from_table({(0, 1): -2, (1, 0): 2, (2, 3): -2, (3, 2): 2})
        assert heis_ws.nVG == expected

    def test_nabla_U_H(self, heis_ws):
        expected = endo_from_table({(0, 1): 2, (1, 0): -2, (2, 3): 2, (3, 2): -2})
        assert heis_ws.nUH == expected

    def test_nabla_U_J(self, heisenberg, heis_ws):
        assert heis_ws.nUJ == combine([(-2, heisenberg.H)])

    def test_nabla_V_J(self, heisenberg, heis_ws):
        assert heis_ws.nVJ == combine([(2, heisenberg.G)])

    def test_horizontal_derivatives_of_J_vanish(self, heisenberg, heis_ws):
        for h in heisenberg.horizontal_indices:
            assert heis_ws.nabla_J.fix(0, h).is_zero(), h


@pytest.fixture(scope="module")
def heis_ws(heisenberg, heis_conn) -> ConnectionWorkspace:
    return ConnectionWorkspace(heisenberg, heis_conn)


@pytest.fixture(scope="module")
def abelian_ws(abelian) -> ConnectionWorkspace:
    return ConnectionWorkspace(abelian, levi_civita(abelian))


class TestNijenhuis:
    def test_frozen_values(self, heisenberg, heis_ws):
        e0 = heisenberg.basis(0)
        e2 = heisenberg.basis(2)
        e4 = heisenberg.basis(4)
        assert heis_ws.torsion_G.contract(e0, e2) == combine([(-2, e4)])
        assert heis_ws.torsion_H.contract(e0, e2) == combine([(2, e4)])
        assert heis_ws.torsion_G.contract(e0, e4).is_zero()

    def test_antisymmetry(self, heisenberg, heis_ws):
        for i, j in product(range(6), repeat=2):
            x, y = heisenberg.basis(i), heisenberg.basis(j)
            forward = heis_ws.torsion_G.contract(x, y)
            assert forward == combine([(-1, heis_ws.torsion_G.contract(y, x))])

    def test_abelian_torsion_vanishes(self, abelian, abelian_ws):
        assert abelian_ws.torsion_G.is_zero()


class TestObstructionTensors:
    def test_vanish_on_horizontal_pairs(self, heisenberg, heis_ws):
        for i, j in product(heisenberg.horizontal_indices, repeat=2):
            assert heis_ws.obstruction_S.row(i, j).is_zero(), ("S", i, j)
            assert heis_ws.obstruction_T.row(i, j).is_zero(), ("T", i, j)

    def test_constrained_vertical_slots_vanish(self, heisenberg, heis_ws):
        # normality pins S(., U) and T(., V); the other vertical slots are free
        for i in range(6):
            assert heis_ws.obstruction_S.row(i, heisenberg.U_index).is_zero()
            assert heis_ws.obstruction_T.row(i, heisenberg.V_index).is_zero()

    def test_unconstrained_vertical_slots(self, heisenberg, heis_ws):
        # frozen values showing the free slots really are nonzero here:
        # S(X, V) = 2 H X and T(X, U) = 2 G X on horizontal X
        for i in heisenberg.horizontal_indices:
            x = heisenberg.basis(i)
            assert (heis_ws.obstruction_S.contract(x, heisenberg.V)
                    == combine([(2, heisenberg.H.contract(x))]))
            assert (heis_ws.obstruction_T.contract(x, heisenberg.U)
                    == combine([(2, heisenberg.G.contract(x))]))

    def test_abelian_S_nonzero(self, abelian, abelian_ws):
        value = abelian_ws.obstruction_S.contract(abelian.basis(0), abelian.basis(2))
        assert value == combine([(2, abelian.basis(4))])


class TestHelpers:
    def test_horizontal_projection(self, heisenberg):
        x = vector([1, 2, 3, 4, 5, 6])
        proj = horizontal_projection(heisenberg, x)
        assert proj == vector([1, 2, 3, 4, 0, 0])
        assert horizontal_projection(heisenberg, proj) == proj

    def test_random_vector_deterministic(self):
        a = random_rational_vector(random.Random("x"), 6)
        b = random_rational_vector(random.Random("x"), 6)
        assert a == b
        assert all(abs(c) <= 3 for _, c in a.items())


class TestNormalityRoutes:
    def test_builtin_model_passes_all_routes(self, heisenberg, heis_conn):
        report = check_normality(ConnectionWorkspace(heisenberg, heis_conn))
        assert report.all_pass
        assert [r.check_id for r in report.checks] == ["NORM-KORKMAZ", "NORM-PROP21",
                                                       "NORM-THM45"]
        assert all(r.status is Status.PASS for r in report.checks)
        assert all(r.witness is None for r in report.checks)

    def test_abelian_fails_all_routes_with_witnesses(self, abelian):
        conn = levi_civita(abelian)
        report = check_normality(ConnectionWorkspace(abelian, conn))
        assert report.failures == report.checks  # all three agree on FAIL
        assert [(r.check_id, r.witness) for r in report.checks] == [
            ("NORM-KORKMAZ", "S slots=0,2 lhs=2:4 rhs=0"),
            ("NORM-PROP21", "G slots=0,0,4 lhs=0 rhs=1"),
            ("NORM-THM45", "G slots=0,0 lhs=0 rhs=1:4")]


class TestFirstFailure:
    def test_map_side_prints_its_own_entries(self, heisenberg):
        # the witness values are the entries at the failing key, input
        # index first, as for every table
        g = heisenberg.G
        bumped = Table.from_values(6, 2, {**dict(g.items()), (0, 1): 5})
        assert g.entry(0, 1) == 0 and g.entry(0, 2) == -1 and bumped.entry(0, 1) == 5
        assert first_failure([("", g, bumped)], 2) == ((0, 1), "", 0, 5)
        assert first_failure([("", bumped, g)], 2) == ((0, 1), "", 5, 0)
        # the same clause as rows: the vectors G e_0 and G2 e_0
        assert first_failure([("", g, bumped)], 1) == (
            (0,), "", g.row(0), vector([0, 5, -1, 0, 0, 0]))
        # over den 6, row 0 of each side holds numerators with a common
        # factor of its own, so each witness row is reduced further, as
        # `row` reduces it
        sixths = Table.from_values(6, 2, {(0, 1): Fraction(1, 3), (0, 2): Fraction(2, 3),
                                          (1, 0): Fraction(1, 2)})
        moved = Table.from_values(6, 2, {(0, 1): Fraction(1, 3), (1, 0): Fraction(1, 2)})
        assert (sixths.den, moved.den, sixths.row(0).den, moved.row(0).den) == (6, 6, 3, 3)
        for lhs, rhs in ((g, bumped), (sixths, moved), (moved, sixths)):
            where, _, left, right = first_failure([("", lhs, rhs)], 1)
            assert (left, right) == (lhs.row(*where), rhs.row(*where)) and where == (0,)


SYMMETRY_MODELS = {"bundled": lambda: make_heisenberg_model(1),
                   "heis-n2": lambda: make_heisenberg_model(2),
                   "two-step": make_two_step_model,
                   **{f"nilpotent-{seed}": (lambda seed=seed: make_nilpotent_model(seed))
                      for seed in range(5)}}


@pytest.mark.parametrize("name", SYMMETRY_MODELS)
def test_forms_are_antisymmetric_and_ricci_symmetric(name):
    # du, dv and dsigma are filled antisymmetrically from the brackets, and
    # rho is symmetric on every Lie algebra; nothing checks either when
    # the tables are built
    ws = Workspace(SYMMETRY_MODELS[name]())
    forms = (ws.du, ws.dv, ws.dsigma)
    for form in forms:
        assert form == combine([(-1, form.permute((1, 0)))])
    assert ws.rho == ws.rho.permute((1, 0))
    assert not ws.rho.is_zero() and not all(form.is_zero() for form in forms)
    if name == "two-step":
        assert not ws.dsigma.is_zero()
