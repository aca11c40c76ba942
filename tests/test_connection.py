"""Levi-Civita coefficients, derivative operators, and form calculus."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmv.connection import (
    cov_deriv_table,
    exterior_d_oneform,
    levi_civita,
    sigma_form,
    wedge,
)
from ccmv.core import Table, combine
from conftest import basis, make_nilpotent_model, vector
from reference import dense_contract

# every nonzero gamma[i][j][k] of the built-in model
GAMMA_TABLE = {
    (0, 2, 4): -1, (0, 4, 2): 1, (0, 3, 5): -1, (0, 5, 3): 1,
    (1, 2, 5): -1, (1, 5, 2): 1, (1, 3, 4): 1, (1, 4, 3): -1,
    (2, 0, 4): 1, (2, 4, 0): -1, (2, 1, 5): 1, (2, 5, 1): -1,
    (3, 0, 5): 1, (3, 5, 0): -1, (3, 1, 4): -1, (3, 4, 1): 1,
    (4, 0, 2): 1, (4, 2, 0): -1, (4, 1, 3): -1, (4, 3, 1): 1,
    (5, 0, 3): 1, (5, 3, 0): -1, (5, 1, 2): 1, (5, 2, 1): -1,
}

def nabla_along(conn: Table, x: Table, a: Table) -> Table:
    """(nabla_x A) as a map: the slices of cov_deriv_table at each frame
    index i, weighted by x's coefficient there."""
    table = cov_deriv_table(conn, a)
    return combine([(x.entry(i), table.fix(0, i)) for i in range(conn.dim)])


coeffs6 = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    min_size=6, max_size=6,
).map(vector)


class TestCoefficientTable:
    def test_frozen_table(self, heis_conn):
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    expected = GAMMA_TABLE.get((i, j, k), 0)
                    assert heis_conn.entry(i, j, k) == expected, (i, j, k)

    def test_vector_accessor(self, heis_conn):
        assert heis_conn.row(0, 2) == combine([(-1, basis(6, 4))])
        assert heis_conn.row(4, 0) == basis(6, 2)
        assert heis_conn.row(0, 0).is_zero()
        assert heis_conn.row(4, 5).is_zero()

    def test_abelian_connection_is_flat(self, abelian):
        conn = levi_civita(abelian)
        assert all(conn.entry(i, j, k) == 0
                   for i in range(6) for j in range(6) for k in range(6))

    @pytest.mark.parametrize("seed", range(3))
    def test_metric_compatibility(self, heisenberg, seed):
        models = {0: heisenberg}
        m = models.get(seed) or make_nilpotent_model(seed)
        conn = levi_civita(m)
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert conn.entry(i, j, k) == -conn.entry(i, k, j)

    @pytest.mark.parametrize("seed", range(3))
    def test_torsion_free(self, heisenberg, seed):
        models = {0: heisenberg}
        m = models.get(seed) or make_nilpotent_model(seed)
        conn = levi_civita(m)
        c = m.constants.entry
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    assert (conn.entry(i, j, k) - conn.entry(j, i, k)
                            == c(i, j, k))


class TestCovariantDerivatives:
    @given(x=coeffs6, y=coeffs6)
    @settings(max_examples=25, deadline=None)
    def test_vector_extension_is_bilinear(self, heisenberg, heis_conn, x, y):
        assert heis_conn.contract(x, y) == dense_contract(dict(heis_conn.items()), 6, 3, (x, y))

    @given(x=coeffs6, y=coeffs6)
    @settings(max_examples=25, deadline=None)
    def test_torsion_free_on_vectors(self, heisenberg, heis_conn, x, y):
        lhs = combine([(1, heis_conn.contract(x, y)), (-1, heis_conn.contract(y, x))])
        assert lhs == heisenberg.constants.contract(x, y)

    @given(x=coeffs6, y=coeffs6, z=coeffs6)
    @settings(max_examples=25, deadline=None)
    def test_metric_compatibility_on_vectors(self, heis_conn, x, y, z):
        # invariant fields have constant inner products, so the derivative
        # terms must cancel pairwise
        assert (heis_conn.contract(x, y).contract(z)
                == -y.contract(heis_conn.contract(x, z)))

    def test_endo_derivative_is_leibniz_correction(self, heisenberg, heis_conn):
        # the frame vectors, and one vector with every coefficient nonzero
        directions = [basis(6, i) for i in range(6)]
        directions.append(vector([1, -2, Fraction(1, 2), 3, Fraction(-1, 3), 2]))
        for tensor in (heisenberg.G, heisenberg.H, heisenberg.J):
            for x in directions:
                nabla = nabla_along(heis_conn, x, tensor)
                for j in range(6):
                    y = basis(6, j)
                    expected = combine([(1, heis_conn.contract(x, tensor.contract(y))),
                                        (-1, tensor.contract(heis_conn.contract(x, y)))])
                    assert nabla.contract(y) == expected

    def test_identity_is_parallel(self, heis_conn):
        ident = Table.identity(6)
        for i in range(6):
            x = basis(6, i)
            assert nabla_along(heis_conn, x, ident).is_zero()

    def test_oneform_derivative_pairs_with_vector(self, heisenberg, heis_conn):
        # (nabla_X w)(Y) = -w(nabla_X Y); for w dual to e_k that is
        # -gamma(X, Y, k), the slice of the connection EQ-3.1 reads
        for k in (heisenberg.U_index, heisenberg.V_index, 0):
            form, nabla = basis(6, k), heis_conn.fix(2, k)
            for i in range(6):
                x = basis(6, i)
                for j in range(6):
                    y = basis(6, j)
                    assert -nabla.entry(i, j) == -form.contract(heis_conn.contract(x, y))


class TestRotationForm:
    def test_sigma_vanishes(self, heisenberg, heis_conn):
        sigma = sigma_form(heisenberg, heis_conn)
        assert sigma.is_zero()

    def test_d_sigma_vanishes(self, heisenberg, heis_conn):
        dsigma = exterior_d_oneform(heisenberg, sigma_form(heisenberg, heis_conn))
        assert all(dsigma.contract(basis(6, i), basis(6, j)) == 0
                   for i in range(6) for j in range(6))


class TestExteriorDerivative:
    def test_vertical_duals(self, heisenberg):
        du = exterior_d_oneform(heisenberg, heisenberg.U)
        dv = exterior_d_oneform(heisenberg, heisenberg.V)
        e = [basis(6, i) for i in range(6)]
        expected_du = {(0, 2): 1, (1, 3): -1}
        expected_dv = {(0, 3): 1, (1, 2): 1}
        for i in range(6):
            for j in range(6):
                want = (expected_du.get((i, j), 0) - expected_du.get((j, i), 0))
                assert du.contract(e[i], e[j]) == want, (i, j)
                want = (expected_dv.get((i, j), 0) - expected_dv.get((j, i), 0))
                assert dv.contract(e[i], e[j]) == want, (i, j)

    def test_horizontal_duals_are_closed(self, heisenberg):
        for h in range(4):
            dw = exterior_d_oneform(heisenberg, basis(6, h))
            assert all(dw.contract(basis(6, i),
                                basis(6, j)) == 0
                       for i in range(6) for j in range(6))

    def test_abelian_duals_are_closed(self, abelian):
        dw = exterior_d_oneform(abelian, abelian.U)
        assert all(dw.contract(basis(6, i), basis(6, j)) == 0
                   for i in range(6) for j in range(6))


class TestWedge:
    def test_halved_convention(self):
        a, b = basis(6, 0), basis(6, 1)
        w = wedge(a, b)
        e0, e1 = basis(6, 0), basis(6, 1)
        assert w.contract(e0, e1) == Fraction(1, 2)
        assert w.contract(e1, e0) == Fraction(-1, 2)
        assert w.contract(e0, e0) == 0

    @given(x=coeffs6, y=coeffs6)
    @settings(max_examples=25, deadline=None)
    def test_formula_on_vectors(self, x, y):
        a = vector([Fraction(k + 1) for k in range(6)])
        b = vector([Fraction(1, k + 2) for k in range(6)])
        w = wedge(a, b)
        expected = Fraction(1, 2) * (a.contract(x) * b.contract(y)
                                     - a.contract(y) * b.contract(x))
        assert w.contract(x, y) == expected

    def test_self_wedge_vanishes(self):
        a = vector([Fraction(k - 2) for k in range(6)])
        w = wedge(a, a)
        assert all(w.contract(basis(6, i), basis(6, j)) == 0
                   for i in range(6) for j in range(6))
