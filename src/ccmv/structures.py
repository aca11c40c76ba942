"""Structure-tensor calculus: Nijenhuis torsion, the obstruction tensors
S and T, and the three-route normality decision.

Normality is decided three independent ways and cross-checked:

* korkmaz: S and T vanish on horizontal frame pairs, S(X, U) and T(X, V)
  vanish for every frame X.
* prop21: the trilinear characterizations of g((nabla_X G)Y, Z) and
  g((nabla_X H)Y, Z) hold over all frame triples.
* thm45: the bilinear closed forms of (nabla_X G)Y and (nabla_X H)Y hold
  over all frame pairs.

Routes two and three implement the characterizations in the form that is
equivalent to the S/T definition (the published displays carry sign and
term misprints; the identity registry in the verify module keeps the
as-printed variants under their registry ids, where they FAIL on the
built-in model).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Literal

from .core import (
    Endomorphism,
    FrameVector,
    OneForm,
    Scalar,
    Status,
    format_scalar,
    format_sparse_vector,
    TwoForm,
    inner_product,
)
from .connection import (
    ConnectionCoeffs,
    cov_deriv_endo,
    cov_deriv_vector,
    exterior_d_oneform,
    sigma_form,
)
from .model import ManifoldModel

StructureName = Literal["G", "H", "J"]


def apply_structure(m: ManifoldModel, which: StructureName,
                    x: FrameVector) -> FrameVector:
    """Apply one of the structure tensors to a frame vector."""
    tensor = {"G": m.G, "H": m.H, "J": m.J}.get(which)
    if tensor is None:
        raise ValueError(f"unknown structure tensor {which!r}")
    return tensor.apply(x)


def horizontal_projection(m: ManifoldModel, x: FrameVector) -> FrameVector:
    """X - u(X) U - v(X) V: zero out the two vertical coefficients."""
    coeffs = list(x.coefficients)
    coeffs[m.U_index] = Fraction(0)
    coeffs[m.V_index] = Fraction(0)
    return FrameVector(tuple(coeffs))


def nijenhuis(m: ManifoldModel, conn: ConnectionCoeffs, which: Literal["G", "H"],
              x: FrameVector, y: FrameVector) -> FrameVector:
    """Torsion [A,A](X,Y) = (nabla_{AX}A)Y - (nabla_{AY}A)X - A(nabla_X A)Y + A(nabla_Y A)X."""
    a = {"G": m.G, "H": m.H}.get(which)
    if a is None:
        raise ValueError(f"Nijenhuis torsion is defined here for G or H, not {which!r}")

    def deriv(direction: FrameVector, vec: FrameVector) -> FrameVector:
        """(nabla_direction A) vec = nabla_direction(A vec) - A(nabla_direction vec)."""
        return (cov_deriv_vector(conn, direction, a.apply(vec))
                - a.apply(cov_deriv_vector(conn, direction, vec)))

    return (deriv(a.apply(x), y) - deriv(a.apply(y), x)
            - a.apply(deriv(x, y)) + a.apply(deriv(y, x)))


def tensor_S(m: ManifoldModel, conn: ConnectionCoeffs, x: FrameVector,
             y: FrameVector) -> FrameVector:
    """First obstruction tensor, built on the torsion of G."""
    return _Derived(m, conn).tensor_S(x, y)


def tensor_T(m: ManifoldModel, conn: ConnectionCoeffs, x: FrameVector,
             y: FrameVector) -> FrameVector:
    """Second obstruction tensor, built on the torsion of H."""
    return _Derived(m, conn).tensor_T(x, y)


@dataclass(frozen=True)
class RouteResult:
    route: str
    status: Status
    witness: str | None = None


@dataclass(frozen=True)
class NormalityReport:
    korkmaz: RouteResult
    prop21: RouteResult
    thm45: RouteResult

    @property
    def agreement(self) -> bool:
        return self.korkmaz.status is self.prop21.status is self.thm45.status

    @property
    def all_pass(self) -> bool:
        return self.agreement and self.korkmaz.status is Status.PASS

    @property
    def routes(self) -> tuple[RouteResult, RouteResult, RouteResult]:
        return (self.korkmaz, self.prop21, self.thm45)


def _vector_witness(label: str, slots: tuple[int, ...] | str, lhs: FrameVector,
                    rhs: FrameVector) -> str:
    where = slots if isinstance(slots, str) else ",".join(str(s) for s in slots)
    return (f"{label} slots={where} lhs={format_sparse_vector(lhs)} "
            f"rhs={format_sparse_vector(rhs)}")


def _scalar_witness(label: str, slots: tuple[int, ...], lhs: Scalar,
                    rhs: Scalar) -> str:
    where = ",".join(str(s) for s in slots)
    return f"{label} slots={where} lhs={format_scalar(lhs)} rhs={format_scalar(rhs)}"


class _Derived:
    """Connection-level quantities shared by the three routes and by the
    obstruction tensors, each computed on first use."""

    def __init__(self, m: ManifoldModel, conn: ConnectionCoeffs):
        self.m = m
        self.conn = conn

    @cached_property
    def sigma(self) -> OneForm:
        return sigma_form(self.m, self.conn)

    @cached_property
    def GH(self) -> Endomorphism:
        return self.m.G.compose(self.m.H)

    @cached_property
    def dsigma(self) -> TwoForm:
        return exterior_d_oneform(self.m, self.sigma)

    @cached_property
    def dUV(self) -> Scalar:
        return self.dsigma.value(self.m.U, self.m.V)

    @cached_property
    def nabla_U_J(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.m.U, self.m.J)

    def tensor_S(self, x: FrameVector, y: FrameVector) -> FrameVector:
        m, conn, sigma, GH = self.m, self.conn, self.sigma, self.GH
        G, H = m.G, m.H
        out = nijenhuis(m, conn, "G", x, y)
        out = out + m.U.scale(2 * inner_product(x, G.apply(y)))
        out = out - m.V.scale(2 * inner_product(x, H.apply(y)))
        out = out + H.apply(x).scale(2 * m.v.value(y)) - H.apply(y).scale(2 * m.v.value(x))
        out = out + H.apply(x).scale(sigma.value(G.apply(y)))
        out = out - H.apply(y).scale(sigma.value(G.apply(x)))
        out = out + GH.apply(y).scale(sigma.value(x)) - GH.apply(x).scale(sigma.value(y))
        return out

    def tensor_T(self, x: FrameVector, y: FrameVector) -> FrameVector:
        m, conn, sigma, GH = self.m, self.conn, self.sigma, self.GH
        G, H = m.G, m.H
        out = nijenhuis(m, conn, "H", x, y)
        out = out - m.U.scale(2 * inner_product(x, G.apply(y)))
        out = out + m.V.scale(2 * inner_product(x, H.apply(y)))
        out = out + G.apply(x).scale(2 * m.u.value(y)) - G.apply(y).scale(2 * m.u.value(x))
        out = out + G.apply(y).scale(sigma.value(H.apply(x)))
        out = out - G.apply(x).scale(sigma.value(H.apply(y)))
        out = out + GH.apply(y).scale(sigma.value(x)) - GH.apply(x).scale(sigma.value(y))
        return out

    def nabla(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return cov_deriv_vector(self.conn, x, y)

    def cov_G(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return self.nabla(x, self.m.G.apply(y)) - self.m.G.apply(self.nabla(x, y))

    def cov_H(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return self.nabla(x, self.m.H.apply(y)) - self.m.H.apply(self.nabla(x, y))


def _route_korkmaz(ctx: _Derived, basis_vectors: list[FrameVector],
                   samples: list[tuple[FrameVector, FrameVector]]) -> RouteResult:
    m = ctx.m
    horizontal = list(m.horizontal_indices)
    for i, j in product(horizontal, repeat=2):
        for label, tensor in (("S", ctx.tensor_S), ("T", ctx.tensor_T)):
            value = tensor(basis_vectors[i], basis_vectors[j])
            if not value.is_zero():
                return RouteResult("korkmaz", Status.FAIL,
                                   _vector_witness(label, (i, j), value,
                                                   FrameVector.zero(m.dim)))
    for i in range(m.dim):
        for label, tensor, vertical in (("S(.,U)", ctx.tensor_S, m.U),
                                        ("T(.,V)", ctx.tensor_T, m.V)):
            value = tensor(basis_vectors[i], vertical)
            if not value.is_zero():
                slot = (i, m.U_index if label.startswith("S") else m.V_index)
                return RouteResult("korkmaz", Status.FAIL,
                                   _vector_witness(label, slot, value,
                                                   FrameVector.zero(m.dim)))
    for index, (x, y) in enumerate(samples):
        x0 = horizontal_projection(m, x)
        y0 = horizontal_projection(m, y)
        for label, tensor in (("S", ctx.tensor_S), ("T", ctx.tensor_T)):
            value = tensor(x0, y0)
            if not value.is_zero():
                return RouteResult("korkmaz", Status.FAIL,
                                   _vector_witness(label, f"sample={index}", value,
                                                   FrameVector.zero(m.dim)))
    return RouteResult("korkmaz", Status.PASS)


def _route_prop21(ctx: _Derived, basis_vectors: list[FrameVector]) -> RouteResult:
    m = ctx.m
    G, H, J = m.G, m.H, m.J
    u, v, sigma, dsigma = m.u, m.v, ctx.sigma, ctx.dsigma

    def rhs_G(x: FrameVector, y: FrameVector, z: FrameVector) -> Scalar:
        return (sigma.value(x) * inner_product(H.apply(y), z)
                + v.value(x) * dsigma.value(G.apply(z), G.apply(y))
                - 2 * v.value(x) * inner_product(H.apply(G.apply(y)), z)
                - u.value(y) * inner_product(x, z)
                - v.value(y) * inner_product(J.apply(x), z)
                + u.value(z) * inner_product(x, y)
                + v.value(z) * inner_product(J.apply(x), y))

    def rhs_H(x: FrameVector, y: FrameVector, z: FrameVector) -> Scalar:
        return (-sigma.value(x) * inner_product(G.apply(y), z)
                - u.value(x) * dsigma.value(H.apply(z), H.apply(y))
                - 2 * u.value(x) * inner_product(G.apply(H.apply(y)), z)
                + u.value(y) * inner_product(J.apply(x), z)
                - v.value(y) * inner_product(x, z)
                - u.value(z) * inner_product(J.apply(x), y)
                + v.value(z) * inner_product(x, y))

    for i, j, k in product(range(m.dim), repeat=3):
        x, y, z = basis_vectors[i], basis_vectors[j], basis_vectors[k]
        for label, cov, rhs in (("G", ctx.cov_G, rhs_G), ("H", ctx.cov_H, rhs_H)):
            lhs_value = inner_product(cov(x, y), z)
            rhs_value = rhs(x, y, z)
            if lhs_value != rhs_value:
                return RouteResult("prop21", Status.FAIL,
                                   _scalar_witness(label, (i, j, k),
                                                   lhs_value, rhs_value))
    return RouteResult("prop21", Status.PASS)


def _route_thm45(ctx: _Derived, basis_vectors: list[FrameVector]) -> RouteResult:
    m = ctx.m
    G, H, J = m.G, m.H, m.J
    u, v, sigma = m.u, m.v, ctx.sigma
    dUV = ctx.dUV
    nUJ = ctx.nabla_U_J

    def vertical_mix(y: FrameVector) -> FrameVector:
        return m.V.scale(u.value(y)) - m.U.scale(v.value(y))

    def core_term(y: FrameVector) -> FrameVector:
        y0 = horizontal_projection(m, y)
        return J.apply(y0).scale(2) + nUJ.apply(G.apply(y0))

    def rhs_G(x: FrameVector, y: FrameVector) -> FrameVector:
        return (H.apply(y).scale(sigma.value(x))
                - J.apply(y).scale(2 * v.value(x))
                - x.scale(u.value(y))
                - J.apply(x).scale(v.value(y))
                + core_term(y).scale(v.value(x))
                + m.U.scale(inner_product(x, y))
                + m.V.scale(inner_product(J.apply(x), y))
                - vertical_mix(y).scale(2 * v.value(x))
                - vertical_mix(y).scale(dUV * v.value(x)))

    def rhs_H(x: FrameVector, y: FrameVector) -> FrameVector:
        return (G.apply(y).scale(-sigma.value(x))
                + J.apply(y).scale(2 * u.value(x))
                + J.apply(x).scale(u.value(y))
                - x.scale(v.value(y))
                - core_term(y).scale(u.value(x))
                - m.U.scale(inner_product(J.apply(x), y))
                + m.V.scale(inner_product(x, y))
                + vertical_mix(y).scale(2 * u.value(x))
                + vertical_mix(y).scale(dUV * u.value(x)))

    for i, j in product(range(m.dim), repeat=2):
        x, y = basis_vectors[i], basis_vectors[j]
        for label, cov, rhs in (("G", ctx.cov_G, rhs_G), ("H", ctx.cov_H, rhs_H)):
            lhs_value = cov(x, y)
            rhs_value = rhs(x, y)
            if lhs_value != rhs_value:
                return RouteResult("thm45", Status.FAIL,
                                   _vector_witness(label, (i, j),
                                                   lhs_value, rhs_value))
    return RouteResult("thm45", Status.PASS)


def random_rational_vector(rng: random.Random, dim: int) -> FrameVector:
    """Small deterministic rational vector for smoke sampling."""
    return FrameVector(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(dim)))


def check_normality(m: ManifoldModel, conn: ConnectionCoeffs, samples: int = 32,
                    seed: int = 0) -> NormalityReport:
    """Decide normality by all three routes and report each with a witness.

    The frame loops are exhaustive and complete (every quantity involved is
    multilinear in its slots); the random rational pairs are an extra smoke
    test on the korkmaz route, deterministic in (samples, seed).
    """
    ctx = _Derived(m, conn)
    basis_vectors = [m.basis(i) for i in range(m.dim)]
    rng = random.Random(f"{seed}:normality")
    sample_pairs = [(random_rational_vector(rng, m.dim),
                     random_rational_vector(rng, m.dim))
                    for _ in range(samples)]
    return NormalityReport(
        korkmaz=_route_korkmaz(ctx, basis_vectors, sample_pairs),
        prop21=_route_prop21(ctx, basis_vectors),
        thm45=_route_thm45(ctx, basis_vectors),
    )
