"""Levi-Civita connection and derivative operators on invariant fields.

Everything here works on frame-constant (left-invariant) fields, so the
directional-derivative terms of coefficient functions vanish identically
and the Koszul formula collapses to a linear expression in the structure
constants.  The connection is stored as the full coefficient table
gamma[i][j][k] = g(nabla_{e_i} e_j, e_k).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ZERO,
    Endomorphism,
    FrameVector,
    NonzeroIndexed,
    OneForm,
    Scalar,
    TwoForm,
    nest,
)
from .model import ManifoldModel

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConnectionCoeffs(NonzeroIndexed):
    """gamma[i][j][k] = g(nabla_{e_i} e_j, e_k); metric-compatible and torsion-free."""

    _TABLE = "gamma"

    dim: int
    gamma: tuple[tuple[tuple[Scalar, ...], ...], ...]

    def coeff(self, i: int, j: int, k: int) -> Scalar:
        return self.gamma[i][j][k]

    def vector(self, i: int, j: int) -> FrameVector:
        """nabla_{e_i} e_j as a frame vector."""
        return FrameVector(self.gamma[i][j])


def levi_civita(m: ManifoldModel) -> ConnectionCoeffs:
    """Koszul formula on an orthonormal invariant frame.

    gamma[i][j][k] = (c[i][j][k] + c[k][i][j] - c[j][k][i]) / 2,
    accumulated from the nonzero structure constants only.
    """
    d = m.dim
    flat = [ZERO] * d ** 3
    for a, plane in enumerate(m.constants.nonzero):
        for b, row in enumerate(plane):
            for e, value in row:
                half = HALF * value
                flat[(a * d + b) * d + e] += half
                flat[(b * d + e) * d + a] += half
                flat[(e * d + a) * d + b] -= half
    return ConnectionCoeffs(d, nest(flat, d, 3))


def cov_deriv_vector(conn: ConnectionCoeffs, x: FrameVector,
                     y: FrameVector) -> FrameVector:
    """nabla_x y for invariant fields: the bilinear extension of gamma."""
    out = [ZERO] * conn.dim
    ys = y.coefficients
    for xi, plane in zip(x.coefficients, conn.nonzero):
        if not xi:
            continue
        for yj, row in zip(ys, plane):
            if yj and row:
                factor = xi * yj
                for k, g in row:
                    out[k] += factor * g
    return FrameVector(tuple(out))


def cov_deriv_endo(conn: ConnectionCoeffs, x: FrameVector,
                   a: Endomorphism) -> Endomorphism:
    """(nabla_x A) as the endomorphism y -> nabla_x(Ay) - A(nabla_x y)."""
    d = conn.dim
    columns = []
    for j in range(d):
        ej = FrameVector.basis(d, j)
        column = cov_deriv_vector(conn, x, a.column(j)) - a.apply(
            cov_deriv_vector(conn, x, ej))
        columns.append(column)
    return Endomorphism(tuple(tuple(columns[j][k] for j in range(d))
                              for k in range(d)))


def cov_deriv_oneform(conn: ConnectionCoeffs, x: FrameVector,
                      w: OneForm) -> OneForm:
    """(nabla_x w) for an invariant form: (nabla_x w)(e_j) = -w(nabla_x e_j)."""
    return OneForm(tuple(-w.value(cov_deriv_vector(conn, x,
                                                   FrameVector.basis(conn.dim, j)))
                         for j in range(conn.dim)))


def sigma_form(m: ManifoldModel, conn: ConnectionCoeffs) -> OneForm:
    """The rotation form: sigma(X) = g(nabla_X U, V), read off the table."""
    return OneForm(tuple(conn.gamma[i][m.U_index][m.V_index] for i in range(m.dim)))


def exterior_d_oneform(m: ManifoldModel, w: OneForm) -> TwoForm:
    """d of an invariant 1-form: dw(e_i, e_j) = -(1/2) w([e_i, e_j])."""
    ws = w.coefficients

    def entry(bracket_row) -> Scalar:
        total = ZERO
        for k, value in bracket_row:
            if ws[k]:
                total += ws[k] * value
        return -HALF * total if total else ZERO

    return TwoForm(tuple(tuple(entry(row) for row in plane)
                         for plane in m.constants.nonzero))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """(a ^ b)(X, Y) = (1/2)(a(X) b(Y) - a(Y) b(X)).

    The 1/2 matches the exterior-derivative convention above, which is the
    unique normalization under which the built-in model satisfies the
    contact compatibility du(X, Y) = g(X, GY) with vanishing sigma.
    """
    ca, cb = a.coefficients, b.coefficients

    def entry(i: int, j: int) -> Scalar:
        total = ZERO
        if ca[i] and cb[j]:
            total += ca[i] * cb[j]
        if ca[j] and cb[i]:
            total -= ca[j] * cb[i]
        return HALF * total if total else ZERO

    return TwoForm(tuple(tuple(entry(i, j) for j in range(len(cb)))
                         for i in range(len(ca))))
