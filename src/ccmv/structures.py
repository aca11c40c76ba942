"""Structure-tensor calculus: Nijenhuis torsion, the obstruction tensors
S and T, and the three-route normality decision.

Normality is decided three independent ways and cross-checked:

* korkmaz: S and T vanish on horizontal frame pairs, S(X, U) and T(X, V)
  vanish for every frame X.
* prop21: the trilinear characterizations of g((nabla_X G)Y, Z) and
  g((nabla_X H)Y, Z) hold over all frame triples.
* thm45: the bilinear closed forms of (nabla_X G)Y and (nabla_X H)Y hold
  over all frame pairs.

Routes two and three use the forms of Prop. 2.1 and Thm. 4.5 that are
equivalent to the S/T definition.  Their right-hand sides are defined once,
as methods of ConnectionWorkspace.  The published displays carry sign and
term misprints; the identity registry in the verify module states each
as-printed display (EQ-2.4, EQ-2.5, EQ-4.12, EQ-4.13) as the corrected form
plus a named delta, the literal difference of the printed terms, and those
with a nonzero delta FAIL on the built-in model.
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
    cov_deriv_oneform,
    cov_deriv_vector,
    exterior_d_oneform,
    sigma_form,
    wedge,
)
from .model import ManifoldModel

def horizontal_projection(m: ManifoldModel, x: FrameVector) -> FrameVector:
    """X - u(X) U - v(X) V: zero out the two vertical coefficients."""
    coeffs = list(x.coefficients)
    coeffs[m.U_index] = Fraction(0)
    coeffs[m.V_index] = Fraction(0)
    return FrameVector(tuple(coeffs))


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


class ConnectionWorkspace:
    """Connection-level quantities of one model; the derived ones are
    computed on first use.

    The obstruction tensors, the three normality routes and the identity
    registry (whose Workspace adds curvature on top) all read them here.
    """

    def __init__(self, m: ManifoldModel, conn: ConnectionCoeffs):
        self.model = m
        self.conn = conn
        self.basis = [m.basis(i) for i in range(m.dim)]

    @cached_property
    def sigma(self) -> OneForm:
        return sigma_form(self.model, self.conn)

    @cached_property
    def dsigma(self) -> TwoForm:
        return exterior_d_oneform(self.model, self.sigma)

    @cached_property
    def dUV(self) -> Scalar:
        return self.dsigma.value(self.model.U, self.model.V)

    @cached_property
    def du(self) -> TwoForm:
        return exterior_d_oneform(self.model, self.model.u)

    @cached_property
    def dv(self) -> TwoForm:
        return exterior_d_oneform(self.model, self.model.v)

    @cached_property
    def wedge_sigma_u(self) -> TwoForm:
        return wedge(self.sigma, self.model.u)

    @cached_property
    def wedge_sigma_v(self) -> TwoForm:
        return wedge(self.sigma, self.model.v)

    @cached_property
    def GH(self) -> Endomorphism:
        return self.model.G.compose(self.model.H)

    # nabla_U and nabla_V of the structure tensors
    @cached_property
    def nUG(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.model.U, self.model.G)

    @cached_property
    def nVG(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.model.V, self.model.G)

    @cached_property
    def nUH(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.model.U, self.model.H)

    @cached_property
    def nVH(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.model.V, self.model.H)

    @cached_property
    def nUJ(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.model.U, self.model.J)

    @cached_property
    def nVJ(self) -> Endomorphism:
        return cov_deriv_endo(self.conn, self.model.V, self.model.J)

    # short accessors used by the routes and the identity evaluators
    def G(self, x: FrameVector) -> FrameVector:
        return self.model.G.apply(x)

    def H(self, x: FrameVector) -> FrameVector:
        return self.model.H.apply(x)

    def J(self, x: FrameVector) -> FrameVector:
        return self.model.J.apply(x)

    def u(self, x: FrameVector) -> Scalar:
        return self.model.u.value(x)

    def v(self, x: FrameVector) -> Scalar:
        return self.model.v.value(x)

    def sig(self, x: FrameVector) -> Scalar:
        return self.sigma.value(x)

    def dsig(self, x: FrameVector, y: FrameVector) -> Scalar:
        return self.dsigma.value(x, y)

    def hproj(self, x: FrameVector) -> FrameVector:
        return horizontal_projection(self.model, x)

    def uv_bilinear(self, x: FrameVector, y: FrameVector) -> Scalar:
        """u(X)v(Y) - v(X)u(Y): the unhalved pairing used by the vertical
        correction terms of the curvature identities."""
        return self.u(x) * self.v(y) - self.v(x) * self.u(y)

    def vertical_mix(self, y: FrameVector) -> FrameVector:
        """u(Y) V - v(Y) U."""
        return self.model.V.scale(self.u(y)) - self.model.U.scale(self.v(y))

    def nabla(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return cov_deriv_vector(self.conn, x, y)

    def cov_form(self, x: FrameVector, w: OneForm) -> OneForm:
        return cov_deriv_oneform(self.conn, x, w)

    def cov_G(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return self.nabla(x, self.G(y)) - self.G(self.nabla(x, y))

    def cov_H(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return self.nabla(x, self.H(y)) - self.H(self.nabla(x, y))

    def cov_J(self, x: FrameVector, y: FrameVector) -> FrameVector:
        return self.nabla(x, self.J(y)) - self.J(self.nabla(x, y))

    def nijenhuis(self, which: Literal["G", "H"], x: FrameVector,
                  y: FrameVector) -> FrameVector:
        """Torsion [A,A](X,Y) = (nabla_{AX}A)Y - (nabla_{AY}A)X - A(nabla_X A)Y
        + A(nabla_Y A)X of A = G or H, with nabla A read as cov_G or cov_H."""
        pair = {"G": (self.G, self.cov_G), "H": (self.H, self.cov_H)}.get(which)
        if pair is None:
            raise ValueError(f"Nijenhuis torsion is defined here for G or H, not {which!r}")
        a, cov = pair
        return cov(a(x), y) - cov(a(y), x) - a(cov(x, y)) + a(cov(y, x))

    def tensor_S(self, x: FrameVector, y: FrameVector) -> FrameVector:
        """First obstruction tensor, built on the torsion of G."""
        m, sigma, GH = self.model, self.sigma, self.GH
        G, H = m.G, m.H
        out = self.nijenhuis("G", x, y)
        out = out + m.U.scale(2 * inner_product(x, G.apply(y)))
        out = out - m.V.scale(2 * inner_product(x, H.apply(y)))
        out = out + H.apply(x).scale(2 * m.v.value(y)) - H.apply(y).scale(2 * m.v.value(x))
        out = out + H.apply(x).scale(sigma.value(G.apply(y)))
        out = out - H.apply(y).scale(sigma.value(G.apply(x)))
        out = out + GH.apply(y).scale(sigma.value(x)) - GH.apply(x).scale(sigma.value(y))
        return out

    def tensor_T(self, x: FrameVector, y: FrameVector) -> FrameVector:
        """Second obstruction tensor, built on the torsion of H."""
        m, sigma, GH = self.model, self.sigma, self.GH
        G, H = m.G, m.H
        out = self.nijenhuis("H", x, y)
        out = out - m.U.scale(2 * inner_product(x, G.apply(y)))
        out = out + m.V.scale(2 * inner_product(x, H.apply(y)))
        out = out + G.apply(x).scale(2 * m.u.value(y)) - G.apply(y).scale(2 * m.u.value(x))
        out = out + G.apply(y).scale(sigma.value(H.apply(x)))
        out = out - G.apply(x).scale(sigma.value(H.apply(y)))
        out = out + GH.apply(y).scale(sigma.value(x)) - GH.apply(x).scale(sigma.value(y))
        return out

    def prop21_rhs_G(self, x: FrameVector, y: FrameVector, z: FrameVector) -> Scalar:
        """Prop. 2.1: the value of g((nabla_X G)Y, Z) on a normal structure."""
        u, v, J = self.u, self.v, self.J
        return (self.sig(x) * inner_product(self.H(y), z)
                + v(x) * self.dsig(self.G(z), self.G(y))
                - 2 * v(x) * inner_product(self.H(self.G(y)), z)
                - u(y) * inner_product(x, z)
                - v(y) * inner_product(J(x), z)
                + u(z) * inner_product(x, y)
                + v(z) * inner_product(J(x), y))

    def prop21_rhs_H(self, x: FrameVector, y: FrameVector, z: FrameVector) -> Scalar:
        """Prop. 2.1: the value of g((nabla_X H)Y, Z) on a normal structure."""
        u, v, J = self.u, self.v, self.J
        return (-self.sig(x) * inner_product(self.G(y), z)
                - u(x) * self.dsig(self.H(z), self.H(y))
                - 2 * u(x) * inner_product(self.G(self.H(y)), z)
                + u(y) * inner_product(J(x), z)
                - v(y) * inner_product(x, z)
                - u(z) * inner_product(J(x), y)
                + v(z) * inner_product(x, y))

    def _thm45_core(self, y: FrameVector) -> FrameVector:
        """2 J Y0 + (nabla_U J) G Y0, with Y0 the horizontal part of Y."""
        y0 = self.hproj(y)
        return self.J(y0).scale(2) + self.nUJ.apply(self.G(y0))

    def thm45_rhs_G(self, x: FrameVector, y: FrameVector) -> FrameVector:
        """Thm. 4.5: the closed form of (nabla_X G)Y on a normal structure."""
        u, v, J, m = self.u, self.v, self.J, self.model
        return (self.H(y).scale(self.sig(x))
                - J(y).scale(2 * v(x))
                - x.scale(u(y))
                - J(x).scale(v(y))
                + self._thm45_core(y).scale(v(x))
                + m.U.scale(inner_product(x, y))
                + m.V.scale(inner_product(J(x), y))
                - self.vertical_mix(y).scale(2 * v(x))
                - self.vertical_mix(y).scale(self.dUV * v(x)))

    def thm45_rhs_H(self, x: FrameVector, y: FrameVector) -> FrameVector:
        """Thm. 4.5: the closed form of (nabla_X H)Y on a normal structure."""
        u, v, J, m = self.u, self.v, self.J, self.model
        return (self.G(y).scale(-self.sig(x))
                + J(y).scale(2 * u(x))
                + J(x).scale(u(y))
                - x.scale(v(y))
                - self._thm45_core(y).scale(u(x))
                - m.U.scale(inner_product(J(x), y))
                + m.V.scale(inner_product(x, y))
                + self.vertical_mix(y).scale(2 * u(x))
                + self.vertical_mix(y).scale(self.dUV * u(x)))


def _route_korkmaz(ctx: ConnectionWorkspace,
                   samples: list[tuple[FrameVector, FrameVector]]) -> RouteResult:
    m, basis_vectors = ctx.model, ctx.basis
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


def _route_prop21(ctx: ConnectionWorkspace) -> RouteResult:
    b = ctx.basis
    for i, j, k in product(range(ctx.model.dim), repeat=3):
        x, y, z = b[i], b[j], b[k]
        for label, cov, rhs in (("G", ctx.cov_G, ctx.prop21_rhs_G),
                                ("H", ctx.cov_H, ctx.prop21_rhs_H)):
            lhs_value = inner_product(cov(x, y), z)
            rhs_value = rhs(x, y, z)
            if lhs_value != rhs_value:
                return RouteResult("prop21", Status.FAIL,
                                   _scalar_witness(label, (i, j, k),
                                                   lhs_value, rhs_value))
    return RouteResult("prop21", Status.PASS)


def _route_thm45(ctx: ConnectionWorkspace) -> RouteResult:
    b = ctx.basis
    for i, j in product(range(ctx.model.dim), repeat=2):
        x, y = b[i], b[j]
        for label, cov, rhs in (("G", ctx.cov_G, ctx.thm45_rhs_G),
                                ("H", ctx.cov_H, ctx.thm45_rhs_H)):
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


def check_normality(ctx: ConnectionWorkspace, samples: int = 32,
                    seed: int = 0) -> NormalityReport:
    """Decide normality by all three routes and report each with a witness.

    The routes read the connection-level quantities of `ctx`, so a caller
    that already holds a workspace derives them once.  The frame loops are
    exhaustive and complete (every quantity involved is multilinear in its
    slots); the random rational pairs are an extra smoke test on the korkmaz
    route, deterministic in (samples, seed).
    """
    dim = ctx.model.dim
    rng = random.Random(f"{seed}:normality")
    sample_pairs = [(random_rational_vector(rng, dim), random_rational_vector(rng, dim))
                    for _ in range(samples)]
    return NormalityReport(
        korkmaz=_route_korkmaz(ctx, sample_pairs),
        prop21=_route_prop21(ctx),
        thm45=_route_thm45(ctx),
    )
