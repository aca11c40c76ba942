"""Riemann curvature and its traces on a frame model.

Curvature convention: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z, lowered as R(X,Y,Z,W) = g(R(X,Y)Z, W).  On an
invariant frame this reduces to a closed polynomial in the connection
coefficients and structure constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    ZERO,
    DimensionMismatch,
    Endomorphism,
    FrameVector,
    NonzeroIndexed,
    Scalar,
    Tensor4,
    bilinear_value,
    inner_product,
    nest,
)
from .connection import ConnectionCoeffs
from .model import ManifoldModel


class DegeneratePlane(ValueError):
    """Sectional curvature requested for vectors that do not span a plane."""


@dataclass(frozen=True)
class CurvTensor:
    """Fully lowered curvature; r[i][j][k][l] = R(e_i, e_j, e_k, e_l).

    Symmetry of the entries is a consequence of the construction and is
    asserted by the verification suite, not by this container.
    """

    r: Tensor4

    @property
    def dim(self) -> int:
        return self.r.dim

    def entry(self, i: int, j: int, k: int, el: int) -> Scalar:
        return self.r.entry(i, j, k, el)

    def vector(self, i: int, j: int, k: int) -> FrameVector:
        """R(e_i, e_j) e_k as a frame vector."""
        return FrameVector(self.r.entries[i][j][k])


@dataclass(frozen=True)
class BilinearForm(NonzeroIndexed):
    """Symmetric bilinear form over the frame."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        side = len(self.entries)
        if any(len(row) != side for row in self.entries):
            raise DimensionMismatch("bilinear form matrix must be square")
        for i in range(side):
            for j in range(i + 1, side):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"bilinear form not symmetric at ({i}, {j})")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i][j]

    def value(self, x: FrameVector, y: FrameVector) -> Scalar:
        return bilinear_value(self.nonzero, x, y)


def _rows_through(gamma_rows) -> list[list[tuple[int, int, Scalar]]]:
    """through[p] lists (i, el, g) for every nonzero gamma[i][p][el] = g."""
    through: list[list[tuple[int, int, Scalar]]] = [[] for _ in gamma_rows]
    for i, plane in enumerate(gamma_rows):
        for p, row in enumerate(plane):
            through[p].extend((i, el, g) for el, g in row)
    return through


def riemann(m: ManifoldModel, conn: ConnectionCoeffs) -> CurvTensor:
    """Assemble the lowered curvature tensor from the connection table:

        R[i][j][k][el] = sum_p gamma[j][k][p] gamma[i][p][el]
                         - gamma[i][k][p] gamma[j][p][el] - c[i][j][p] gamma[p][k][el],

    accumulated over the nonzero connection rows and brackets only.
    """
    d = m.dim
    gamma = conn.nonzero
    through = _rows_through(gamma)
    flat = [ZERO] * d ** 4
    # gamma[a][k][p] * gamma[b][p][el] is the first term of R[b][a][k][el]
    # and minus the second term of R[a][b][k][el].
    for a, plane in enumerate(gamma):
        for k, row in enumerate(plane):
            for p, g in row:
                for b, el, h in through[p]:
                    term = g * h
                    flat[((b * d + a) * d + k) * d + el] += term
                    flat[((a * d + b) * d + k) * d + el] -= term
    for i, plane in enumerate(m.constants.nonzero):
        for j, row in enumerate(plane):
            for p, c in row:
                for k, krow in enumerate(gamma[p]):
                    for el, g in krow:
                        flat[((i * d + j) * d + k) * d + el] -= c * g
    return CurvTensor(Tensor4(nest(flat, d, 4)))


def curvature_value(rt: CurvTensor, x: FrameVector, y: FrameVector,
                    z: FrameVector, w: FrameVector) -> Scalar:
    """R(x, y, z, w) by quadrilinear contraction."""
    return rt.r.contract(x, y, z, w)


def ricci(m: ManifoldModel, rt: CurvTensor) -> BilinearForm:
    """Frame trace rho(e_j, e_k) = sum_a R(e_a, e_j, e_k, e_a)."""
    d = m.dim
    acc = [[ZERO] * d for _ in range(d)]
    for a, block in enumerate(rt.r.nonzero):
        for j, plane in enumerate(block):
            for k, row in enumerate(plane):
                for el, value in row:
                    if el == a:
                        acc[j][k] += value
    return BilinearForm(tuple(tuple(row) for row in acc))


def ricci_operator(rho: BilinearForm) -> Endomorphism:
    """Metric-equivalent endomorphism Q; with an identity metric the
    matrix coincides with the form's matrix."""
    return Endomorphism(rho.entries)


def scalar_curvature(rho: BilinearForm) -> Scalar:
    """Trace of the Ricci form over the orthonormal frame."""
    return sum((rho.entry(a, a) for a in range(rho.dim)), ZERO)


def sectional(rt: CurvTensor, x: FrameVector, y: FrameVector) -> Scalar:
    """K(x, y) = R(x, y, y, x) / (g(x,x) g(y,y) - g(x,y)^2)."""
    denominator = (inner_product(x, x) * inner_product(y, y)
                   - inner_product(x, y) ** 2)
    if not denominator:
        raise DegeneratePlane("vectors do not span a nondegenerate plane")
    return curvature_value(rt, x, y, y, x) / denominator


def holomorphic_sectional(m: ManifoldModel, rt: CurvTensor,
                          x: FrameVector) -> Scalar:
    """K(x, Jx); defined for nonzero x since J is a Hermitian isometry."""
    if x.is_zero():
        raise DegeneratePlane("holomorphic sectional curvature of the zero vector")
    return sectional(rt, x, m.J.apply(x))


def second_bianchi_cyclic_sum(m: ManifoldModel, conn: ConnectionCoeffs,
                              rt: CurvTensor, mm: int, i: int, j: int,
                              k: int, el: int) -> Scalar:
    """Cyclic sum over the first three indices of (nabla R); zero when the
    differential Bianchi identity holds.  R is differentiated as an
    invariant 4-tensor: each slot picks up a -gamma contraction."""

    def nabla_r(s: int, a: int, b: int, cc: int, dd: int) -> Scalar:
        total = ZERO
        for p in range(m.dim):
            total -= conn.gamma[s][a][p] * rt.entry(p, b, cc, dd)
            total -= conn.gamma[s][b][p] * rt.entry(a, p, cc, dd)
            total -= conn.gamma[s][cc][p] * rt.entry(a, b, p, dd)
            total -= conn.gamma[s][dd][p] * rt.entry(a, b, cc, p)
        return total

    return (nabla_r(mm, i, j, k, el) + nabla_r(i, j, mm, k, el)
            + nabla_r(j, mm, i, k, el))


def second_bianchi_failures(m: ManifoldModel, conn: ConnectionCoeffs,
                            rt: CurvTensor) -> tuple[int, ...] | None:
    """First (m, i, j, k, l) tuple, in `itertools.product` order, violating
    the differential Bianchi identity, or None.

    Streams one (m, i, j) slab of the cyclic sum at a time, accumulating
    its (k, l) entries from the nonzero connection and curvature rows only,
    and returns at the first slab with a nonzero entry.  Agrees with
    second_bianchi_cyclic_sum tuple by tuple.
    """
    d = m.dim
    gamma = conn.nonzero
    r = rt.r.nonzero
    # into[s][p] lists (e, q) for every nonzero gamma[s][e][p] = q
    into: list[list[list[tuple[int, Scalar]]]] = [[[] for _ in range(d)] for _ in range(d)]
    for s, plane in enumerate(gamma):
        for e, row in enumerate(plane):
            for p, q in row:
                into[s][p].append((e, q))

    def add_nabla_r(slab: dict[int, Scalar], s: int, a: int, b: int) -> None:
        """slab[k*d + l] += (nabla_{e_s} R)(e_a, e_b, e_k, e_l) for all k, l:
        minus the four gamma contractions, one per slot of R."""
        terms = []
        for p, q in gamma[s][a]:
            terms.extend((k * d + el, q * v)
                         for k, row in enumerate(r[p][b]) for el, v in row)
        for p, q in gamma[s][b]:
            terms.extend((k * d + el, q * v)
                         for k, row in enumerate(r[a][p]) for el, v in row)
        plane = r[a][b]
        for k, krow in enumerate(gamma[s]):
            terms.extend((k * d + el, q * v) for p, q in krow for el, v in plane[p])
        for k, row in enumerate(plane):
            terms.extend((k * d + el, q * v) for p, v in row for el, q in into[s][p])
        for key, term in terms:
            slab[key] = slab.get(key, ZERO) - term

    for mm, i, j in product(range(d), repeat=3):
        slab: dict[int, Scalar] = {}
        add_nabla_r(slab, mm, i, j)
        add_nabla_r(slab, i, j, mm)
        add_nabla_r(slab, j, mm, i)
        failing = [key for key, total in slab.items() if total]
        if failing:
            k, el = divmod(min(failing), d)
            return (mm, i, j, k, el)
    return None


def riemann_symmetry_clauses(rt: CurvTensor, i: int, j: int, k: int,
                             el: int) -> tuple[tuple[str, Scalar, Scalar], ...]:
    """The three pair symmetries at one index tuple, as (name, R_ijkl, the
    entry value the symmetry demands)."""
    value = rt.entry(i, j, k, el)
    return (("swap-first-pair", value, -rt.entry(j, i, k, el)),
            ("swap-second-pair", value, -rt.entry(i, j, el, k)),
            ("pair-exchange", value, rt.entry(k, el, i, j)))


def riemann_symmetry_failures(rt: CurvTensor) -> tuple[int, ...] | None:
    """First index tuple, in `itertools.product` order, violating the pair
    symmetries, or None."""
    for where in product(range(rt.dim), repeat=4):
        if any(lhs != rhs for _, lhs, rhs in riemann_symmetry_clauses(rt, *where)):
            return where
    return None
