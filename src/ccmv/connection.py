"""Levi-Civita connection and derivative operators on invariant fields.

Everything here works on frame-constant (left-invariant) fields, so the
directional-derivative terms of coefficient functions vanish identically
and the Koszul formula collapses to a linear expression in the structure
constants.  The connection is the rank-3 table of the nonzero
gamma(i, j, k) = g(nabla_{e_i} e_j, e_k), metric-compatible and
torsion-free; row(i, j) is nabla_{e_i} e_j.
"""
from __future__ import annotations

from fractions import Fraction

from .core import Table, combine
from .model import ManifoldModel

HALF = Fraction(1, 2)


def levi_civita(m: ManifoldModel) -> Table:
    """Koszul formula on an orthonormal invariant frame.

    gamma(i, j, k) = (c(i, j, k) + c(k, i, j) - c(j, k, i)) / 2,
    accumulated from the nonzero structure constants only; the 1/2 goes
    into the den.
    """
    values: dict[tuple[int, int, int], int] = {}
    for (a, b, e), value in m.constants.entries.items():
        for key, term in (((a, b, e), value), ((b, e, a), value), ((e, a, b), -value)):
            values[key] = values.get(key, 0) + term
    return Table.from_numerators(m.dim, 3, values, 2 * m.constants.den)


def cov_deriv_table(conn: Table, a: Table) -> Table:
    """g((nabla_{e_i} A) e_j, e_k) = g(nabla_{e_i}(A e_j), e_k) - g(A(nabla_{e_i} e_j), e_k),
    that is sum_q A(e_j)_q gamma(i, q, k) - sum_p gamma(i, j, p) A(e_p)_k:
    gamma with its middle slot pulled back through A, minus gamma with its
    last slot pulled back through the transpose of A.  Row (i, j) is the
    vector (nabla_{e_i} A) e_j.  No property of A is assumed."""
    every = range(conn.dim)
    return conn.pullback(a, (1,), every).add(
        [(-1, conn.pullback(a.permute((1, 0)), (2,), every))])


def sigma_form(m: ManifoldModel, conn: Table) -> Table:
    """The rotation form: sigma(X) = g(nabla_X U, V), read off the table as
    a rank-1 table."""
    return conn.fix(1, m.U_index).fix(1, m.V_index)


def exterior_d_oneform(m: ManifoldModel, w: Table) -> Table:
    """d of an invariant 1-form: dw(e_i, e_j) = -(1/2) w([e_i, e_j])."""
    c, weight = m.constants, {k: a for (k,), a in w.entries.items()}
    values: dict[tuple[int, int], int] = {}
    for (i, j, k), a in c.entries.items():
        if k in weight:
            values[(i, j)] = values.get((i, j), 0) - weight[k] * a
    return Table.from_numerators(m.dim, 2, values, 2 * w.den * c.den)


def wedge(a: Table, b: Table) -> Table:
    """(a ^ b)(X, Y) = (1/2)(a(X) b(Y) - a(Y) b(X)).

    The 1/2 matches the exterior-derivative convention above, which is the
    unique normalization under which the built-in model satisfies the
    contact compatibility du(X, Y) = g(X, GY) with vanishing sigma.
    """
    return combine([(HALF, (a, b)), (-HALF, (b, a))])
