"""Curvature tensor, traces, and sectional curvatures of the built-in model."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccmv.connection import levi_civita
from ccmv.core import DimensionMismatch, Table, combine, parse_sparse_vector
from ccmv.curvature import (
    DegeneratePlane,
    holomorphic_sectional,
    ricci,
    riemann,
    riemann_symmetry_failures,
    scalar_curvature,
    second_bianchi_failures,
    sectional,
)
from conftest import tensor4_from_function, vector
from test_kernels import (
    dense_bianchi_failure,
    dense_cyclic_sum,
    pair_partner_bumps,
    second_bianchi_slab,
)

# every nonzero R(e_i, e_j) e_k with i < j, as sparse "coeff:index" text
CURV_TABLE = {
    (0, 1, 2): "-2:3", (0, 1, 3): "2:2", (0, 1, 4): "2:5", (0, 1, 5): "-2:4",
    (0, 2, 0): "3:2", (0, 2, 1): "-1:3", (0, 2, 2): "-3:0", (0, 2, 3): "1:1",
    (0, 3, 0): "3:3", (0, 3, 1): "1:2", (0, 3, 2): "-1:1", (0, 3, 3): "-3:0",
    (0, 4, 0): "-1:4", (0, 4, 1): "1:5", (0, 4, 4): "1:0", (0, 4, 5): "-1:1",
    (0, 5, 0): "-1:5", (0, 5, 1): "-1:4", (0, 5, 4): "1:1", (0, 5, 5): "1:0",
    (1, 2, 0): "1:3", (1, 2, 1): "3:2", (1, 2, 2): "-3:1", (1, 2, 3): "-1:0",
    (1, 3, 0): "-1:2", (1, 3, 1): "3:3", (1, 3, 2): "1:0", (1, 3, 3): "-3:1",
    (1, 4, 0): "-1:5", (1, 4, 1): "-1:4", (1, 4, 4): "1:1", (1, 4, 5): "1:0",
    (1, 5, 0): "1:4", (1, 5, 1): "-1:5", (1, 5, 4): "-1:0", (1, 5, 5): "1:1",
    (2, 3, 0): "-2:1", (2, 3, 1): "2:0", (2, 3, 4): "2:5", (2, 3, 5): "-2:4",
    (2, 4, 2): "-1:4", (2, 4, 3): "1:5", (2, 4, 4): "1:2", (2, 4, 5): "-1:3",
    (2, 5, 2): "-1:5", (2, 5, 3): "-1:4", (2, 5, 4): "1:3", (2, 5, 5): "1:2",
    (3, 4, 2): "-1:5", (3, 4, 3): "-1:4", (3, 4, 4): "1:3", (3, 4, 5): "1:2",
    (3, 5, 2): "1:4", (3, 5, 3): "-1:5", (3, 5, 4): "-1:2", (3, 5, 5): "1:3",
    (4, 5, 0): "2:1", (4, 5, 1): "-2:0", (4, 5, 2): "2:3", (4, 5, 3): "-2:2",
}

SECTIONAL_TABLE = {
    (0, 1): 0, (0, 2): -3, (0, 3): -3, (0, 4): 1, (0, 5): 1,
    (1, 2): -3, (1, 3): -3, (1, 4): 1, (1, 5): 1, (2, 3): 0,
    (2, 4): 1, (2, 5): 1, (3, 4): 1, (3, 5): 1, (4, 5): 0,
}

coeffs6 = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=6, max_size=6,
).map(vector)

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestCurvatureTensor:
    def test_frozen_vector_table(self, heis_curv):
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(6):
                    text = CURV_TABLE.get((i, j, k))
                    expected = (parse_sparse_vector(text, 6) if text
                                else Table.from_values(6, 1, {}))
                    assert heis_curv.row(i, j, k) == expected, (i, j, k)

    def test_operator_spot_values(self, heisenberg, heis_curv):
        e = [heisenberg.basis(i) for i in range(6)]
        assert heis_curv.row(0, 2, 0) == combine([(3, e[2])])
        assert heis_curv.row(0, 2, 2) == combine([(-3, e[0])])
        assert heis_curv.row(0, 4, 4) == e[0]
        assert heis_curv.row(4, 5, 5).is_zero()
        assert heis_curv.row(4, 5, 0) == combine([(2, e[1])])

    def test_nonzero_entry_count(self, heis_curv):
        count = sum(1 for i, j, k, el in product(range(6), repeat=4)
                    if heis_curv.entry(i, j, k, el))
        assert count == 120

    def test_pair_symmetries_hold(self, heis_curv):
        assert riemann_symmetry_failures(heis_curv) is None

    def test_first_bianchi_spot(self, heis_curv):
        for i, j, k in product(range(6), repeat=3):
            total = combine([(1, heis_curv.row(i, j, k)), (1, heis_curv.row(j, k, i)),
                             (1, heis_curv.row(k, i, j))])
            assert total.is_zero(), (i, j, k)

    def test_abelian_curvature_vanishes(self, abelian):
        rt = riemann(abelian, levi_civita(abelian))
        assert all(rt.entry(i, j, k, el) == 0
                   for i, j, k, el in product(range(6), repeat=4))

    @given(x=coeffs6, y=coeffs6, a=small_fraction, b=small_fraction)
    @settings(max_examples=20, deadline=None)
    def test_value_linear_in_first_slot(self, heisenberg, heis_curv, x, y, a, b):
        z = heisenberg.basis(2)
        w = heisenberg.basis(0)
        combined = combine([(a, x), (b, y)])
        assert (heis_curv.contract(combined, z, z, w)
                == a * heis_curv.contract(x, z, z, w) + b * heis_curv.contract(y, z, z, w))

    def test_value_matches_entries_on_basis(self, heisenberg, heis_curv):
        for i, j, k, el in ((0, 2, 2, 0), (4, 5, 0, 1), (1, 3, 3, 1)):
            value = heis_curv.contract(heisenberg.basis(i), heisenberg.basis(j),
                                       heisenberg.basis(k), heisenberg.basis(el))
            assert value == heis_curv.entry(i, j, k, el)


class TestRicci:
    def test_frozen_matrix(self, heisenberg, heis_curv):
        rho = ricci(heisenberg, heis_curv)
        diag = [-4, -4, -4, -4, 4, 4]
        for i in range(6):
            for j in range(6):
                expected = diag[i] if i == j else 0
                assert rho.entry(i, j) == expected, (i, j)

    def test_value_is_bilinear_pairing(self, heisenberg, heis_curv):
        rho = ricci(heisenberg, heis_curv)
        x = vector([1, 0, 2, 0, 3, 0])
        y = vector([0, 1, 0, -1, 0, 2])
        expected = sum(rho.entry(i, j) * x.entry(i) * y.entry(j)
                       for i in range(6) for j in range(6))
        assert rho.contract(x, y) == expected
        assert rho.contract(x, x) == -4 * 1 - 4 * 4 + 4 * 9

    def test_operator_matches_form(self, heisenberg, heis_curv):
        # the metric is the identity, so the form read as a map is Q
        q = ricci(heisenberg, heis_curv)
        assert q.contract(heisenberg.basis(0)) == combine([(-4, heisenberg.basis(0))])
        assert q.contract(heisenberg.basis(4)) == combine([(4, heisenberg.basis(4))])

    def test_operator_commutes_with_structures(self, heisenberg, heis_curv):
        q = ricci(heisenberg, heis_curv)
        for tensor in (heisenberg.G, heisenberg.H, heisenberg.J):
            assert q.compose(tensor) == tensor.compose(q)

    def test_scalar_curvature(self, heisenberg, heis_curv):
        assert scalar_curvature(ricci(heisenberg, heis_curv)) == -8

    def test_abelian_is_ricci_flat(self, abelian):
        rho = ricci(abelian, riemann(abelian, levi_civita(abelian)))
        assert all(rho.entry(i, j) == 0 for i in range(6) for j in range(6))
        assert scalar_curvature(rho) == 0

    def test_form_rejects_ragged_matrix(self):
        with pytest.raises(DimensionMismatch):
            Table.from_values(1, 2, {(0, 1): Fraction(1), (1, 0): Fraction(1)})


class TestSectional:
    def test_frozen_plane_table(self, heisenberg, heis_curv):
        for (i, j), expected in SECTIONAL_TABLE.items():
            value = sectional(heis_curv, heisenberg.basis(i), heisenberg.basis(j))
            assert value == expected, (i, j)

    @given(a=small_fraction, b=small_fraction, c=small_fraction, d=small_fraction)
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_plane_basis_change(self, heisenberg, heis_curv,
                                                a, b, c, d):
        assume(a * d - b * c != 0)
        x, y = heisenberg.basis(0), heisenberg.basis(2)
        xp = combine([(a, x), (b, y)])
        yp = combine([(c, x), (d, y)])
        assert sectional(heis_curv, xp, yp) == -3

    def test_degenerate_same_vector(self, heisenberg, heis_curv):
        e0 = heisenberg.basis(0)
        with pytest.raises(DegeneratePlane):
            sectional(heis_curv, e0, e0)

    def test_degenerate_parallel_vectors(self, heisenberg, heis_curv):
        e0 = heisenberg.basis(0)
        with pytest.raises(DegeneratePlane):
            sectional(heis_curv, e0, combine([(Fraction(-7, 3), e0)]))

    def test_degenerate_zero_vector(self, heisenberg, heis_curv):
        with pytest.raises(DegeneratePlane):
            sectional(heis_curv, heisenberg.basis(1), Table.from_values(6, 1, {}))


class TestHolomorphicSectional:
    def test_vanishes_on_frame(self, heisenberg, heis_curv):
        for i in range(6):
            assert holomorphic_sectional(heisenberg, heis_curv,
                                         heisenberg.basis(i)) == 0

    def test_scale_invariant(self, heisenberg, heis_curv):
        x = combine([(Fraction(5, 2), heisenberg.basis(0))])
        assert holomorphic_sectional(heisenberg, heis_curv, x) == 0

    def test_rejects_zero_vector(self, heisenberg, heis_curv):
        with pytest.raises(DegeneratePlane):
            holomorphic_sectional(heisenberg, heis_curv, Table.from_values(6, 1, {}))


class TestSecondBianchi:
    def test_cyclic_sum_vanishes_on_samples(self, heisenberg, heis_conn,
                                            heis_curv):
        for mm, i, j in product((0, 2, 4, 5), repeat=3):
            slab = second_bianchi_slab(heis_conn, heis_curv, mm, i, j)
            assert not any(slab.values()), (mm, i, j)

    def test_exhaustive_sweep_finds_nothing(self, heisenberg, heis_conn,
                                            heis_curv):
        assert second_bianchi_failures(heisenberg, heis_conn, heis_curv) is None

    def test_exhaustive_sweep_pinpoints_corruption(self, heisenberg, heis_conn,
                                                   heis_curv):
        # a bump with its pair partners, so that R stays antisymmetric in
        # each pair, as the sweep requires
        bumps = pair_partner_bumps((0, 2, 2, 0), Fraction(1))

        def corrupted(i, j, k, el):
            return heis_curv.entry(i, j, k, el) + bumps.get((i, j, k, el), 0)

        bad = tensor4_from_function(6, corrupted)
        where, _, value, _ = second_bianchi_failures(heisenberg, heis_conn, bad)
        assert where == dense_bianchi_failure(heisenberg, heis_conn, bad)
        assert value != 0
        assert value == dense_cyclic_sum(heisenberg, heis_conn, bad, *where)
