"""Riemann curvature and its traces on a frame model.

Curvature convention: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z, lowered as R(X,Y,Z,W) = g(R(X,Y)Z, W).  On an
invariant frame this reduces to a closed polynomial in the connection
coefficients and structure constants.

The three checks of R on arbitrary vector fields (RIEM-SYM, BIANCHI-1,
BIANCHI-2) only ask where a quantity vanishes, and each quantity is
homogeneous in its tables: the pair symmetries and the cyclic sum are
linear in R, the cyclic nabla R sum is bilinear in (gamma, R).  Scaling a
table by one positive integer D therefore keeps the zero set, and so the
first failing tuple in `itertools.product` order.  The sweeps run on
`Table.scaled`, each table times the lcm of its denominators, with int
arithmetic only; the value a witness prints is read from the Fraction
tables at the tuple found.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    ZERO,
    Endomorphism,
    FrameVector,
    Scalar,
    Table,
    Tensor4,
    inner_product,
)
from .connection import ConnectionCoeffs
from .model import ManifoldModel


class DegeneratePlane(ValueError):
    """Sectional curvature requested for vectors that do not span a plane."""


@dataclass(frozen=True)
class BilinearForm(Table):
    """Symmetric bilinear form over the frame."""

    def __post_init__(self) -> None:
        for (i, j), a in self.items():
            if self.entry(j, i) != a:
                raise ValueError(f"bilinear form not symmetric at ({i}, {j})")

    # value(x, y) is the full contraction
    value = Table.contract


def riemann(m: ManifoldModel, conn: ConnectionCoeffs) -> Tensor4:
    """Assemble the lowered curvature tensor R(i, j, k, el) = R(e_i, e_j, e_k, e_el)
    from the connection table:

        R(i, j, k, el) = sum_p gamma(j, k, p) gamma(i, p, el)
                         - gamma(i, k, p) gamma(j, p, el) - c(i, j, p) gamma(p, k, el),

    accumulated over the nonzero connection entries and brackets only.
    Symmetry of the entries is a consequence of the construction and is
    asserted by the verification suite, not by the table.
    """
    # through[p] lists (i, el, g) for every nonzero gamma(i, p, el) = g
    through: dict[int, list[tuple[int, int, Scalar]]] = {}
    for (i, p, el), g in conn.items():
        through.setdefault(p, []).append((i, el, g))
    # each entry is summed from its first term, not from zero
    values: dict[tuple[int, int, int, int], Scalar] = {}
    # gamma(a, k, p) * gamma(b, p, el) is the first term of R(b, a, k, el)
    # and minus the second term of R(a, b, k, el).
    for (a, k, p), g in conn.items():
        for b, el, h in through.get(p, ()):
            term = g * h
            key = (b, a, k, el)
            values[key] = values[key] + term if key in values else term
            key = (a, b, k, el)
            values[key] = values[key] - term if key in values else -term
    for (i, j, p), c in m.constants.items():
        for k, row in conn.sub(p).items():
            for el, g in row:
                key = (i, j, k, el)
                values[key] = values[key] - c * g if key in values else -(c * g)
    return Tensor4.from_values(m.dim, 4, values)


def curvature_value(rt: Tensor4, x: FrameVector, y: FrameVector,
                    z: FrameVector, w: FrameVector) -> Scalar:
    """R(x, y, z, w) by quadrilinear contraction."""
    return rt.contract(x, y, z, w)


def ricci(m: ManifoldModel, rt: Tensor4) -> BilinearForm:
    """Frame trace rho(e_j, e_k) = sum_a R(e_a, e_j, e_k, e_a)."""
    values: dict[tuple[int, int], Scalar] = {}
    for (a, j, k, el), value in rt.items():
        if el == a:
            values[(j, k)] = values[(j, k)] + value if (j, k) in values else value
    return BilinearForm.from_values(m.dim, 2, values)


def ricci_operator(rho: BilinearForm) -> Endomorphism:
    """Metric-equivalent endomorphism Q; with an identity metric the
    matrix coincides with the form's matrix."""
    return Endomorphism(rho.dim, 2, rho.entries)


def scalar_curvature(rho: BilinearForm) -> Scalar:
    """Trace of the Ricci form over the orthonormal frame."""
    return sum((rho.entry(a, a) for a in range(rho.dim)), ZERO)


def sectional(rt: Tensor4, x: FrameVector, y: FrameVector) -> Scalar:
    """K(x, y) = R(x, y, y, x) / (g(x,x) g(y,y) - g(x,y)^2)."""
    denominator = (inner_product(x, x) * inner_product(y, y)
                   - inner_product(x, y) ** 2)
    if not denominator:
        raise DegeneratePlane("vectors do not span a nondegenerate plane")
    return curvature_value(rt, x, y, y, x) / denominator


def holomorphic_sectional(m: ManifoldModel, rt: Tensor4,
                          x: FrameVector) -> Scalar:
    """K(x, Jx); defined for nonzero x since J is a Hermitian isometry."""
    if x.is_zero():
        raise DegeneratePlane("holomorphic sectional curvature of the zero vector")
    return sectional(rt, x, m.J.apply(x))


def _connection_index(conn: Table, s: int) -> tuple[dict, dict]:
    """gamma(s, ., .) as stored, and into[p] listing (e, q) for every
    nonzero gamma(s, e, p) = q."""
    gamma = conn.sub(s)
    into: dict = {}
    for e, row in gamma.items():
        for p, q in row:
            into.setdefault(p, []).append((e, q))
    return gamma, into


def _subtract_nabla_r(slab: dict, gamma: dict, into: dict, rt: Table,
                      a: int, b: int) -> None:
    """slab[(k, l)] -= the four gamma contractions of R at (a, b, k, l), with
    gamma and into from `_connection_index` at one s.  Exact on Fraction
    tables and on the scaled int copies alike."""
    plane, get = rt.sub(a, b), slab.get
    for p, q in gamma.get(a, ()):
        for k, row in rt.sub(p, b).items():
            for el, v in row:
                slab[k, el] = get((k, el), 0) - q * v
    for p, q in gamma.get(b, ()):
        for k, row in rt.sub(a, p).items():
            for el, v in row:
                slab[k, el] = get((k, el), 0) - q * v
    for k, krow in gamma.items():
        for p, q in krow:
            for el, v in plane.get(p, ()):
                slab[k, el] = get((k, el), 0) - q * v
    for k, row in plane.items():
        for p, v in row:
            for el, q in into.get(p, ()):
                slab[k, el] = get((k, el), 0) - q * v


def add_nabla_r(slab: dict[tuple[int, int], Scalar], conn: ConnectionCoeffs,
                rt: Tensor4, s: int, a: int, b: int) -> None:
    """slab[(k, l)] += (nabla_{e_s} R)(e_a, e_b, e_k, e_l) for every (k, l).

    R is differentiated as an invariant 4-tensor, so each slot of R picks up
    a -gamma contraction; the four terms are read from the nonzero
    connection and curvature entries only.
    """
    _subtract_nabla_r(slab, *_connection_index(conn, s), rt, a, b)


def second_bianchi_slab(conn: ConnectionCoeffs, rt: Tensor4, mm: int, i: int,
                        j: int) -> dict[tuple[int, int], Scalar]:
    """The cyclic sum over the first three indices of nabla R at (mm, i, j),
    keyed by the last two; a key that is absent or maps to zero satisfies
    the differential Bianchi identity."""
    slab: dict[tuple[int, int], Scalar] = {}
    for s, a, b in ((mm, i, j), (i, j, mm), (j, mm, i)):
        add_nabla_r(slab, conn, rt, s, a, b)
    return slab


def second_bianchi_cyclic_sum(m: ManifoldModel, conn: ConnectionCoeffs,
                              rt: Tensor4, mm: int, i: int, j: int,
                              k: int, el: int) -> Scalar:
    """Cyclic sum over the first three indices of (nabla R); zero when the
    differential Bianchi identity holds."""
    return second_bianchi_slab(conn, rt, mm, i, j).get((k, el), ZERO)


def second_bianchi_failures(m: ManifoldModel, conn: ConnectionCoeffs,
                            rt: Tensor4) -> tuple[int, ...] | None:
    """First (m, i, j, k, l) tuple, in `itertools.product` order, violating
    the differential Bianchi identity, or None.

    The cyclic slab at (i, j, m) or (j, m, i) is the same three nabla R
    terms as at (m, i, j), so the failing triples are closed under rotation
    and the first of them in product order is the smallest of its orbit.
    Only those orbit minima are built, one slab at a time, and the sweep
    returns at the first slab with a nonzero entry.

    The slabs are built on the scaled int copies of the connection and of
    R (`Table.scaled`).  Every nabla R term is one connection value times
    one R value, so each slab entry comes out multiplied by the positive
    D_conn * D_R and is zero exactly where the Fraction entry is.
    """
    dim = m.dim
    _, gamma = conn.scaled
    _, ints = rt.scaled
    index = [_connection_index(gamma, s) for s in range(dim)]
    for mm, i, j in product(range(dim), repeat=3):
        if (i, j, mm) < (mm, i, j) or (j, mm, i) < (mm, i, j):
            continue
        slab: dict[tuple[int, int], int] = {}
        for s, a, b in ((mm, i, j), (i, j, mm), (j, mm, i)):
            _subtract_nabla_r(slab, *index[s], ints, a, b)
        failing = [key for key, total in slab.items() if total]
        if failing:
            return (mm, i, j, *min(failing))
    return None


def first_bianchi_cyclic_sum(rt: Tensor4, i: int, j: int, k: int, el: int) -> Scalar:
    """R_ijkl + R_jkil + R_kijl; zero when the first Bianchi identity holds."""
    return rt.entry(i, j, k, el) + rt.entry(j, k, i, el) + rt.entry(k, i, j, el)


def first_bianchi_failures(rt: Tensor4) -> tuple[int, ...] | None:
    """First index tuple, in `itertools.product` order, with a nonzero
    cyclic sum, or None.

    A nonzero sum has a nonzero term, so the tuple is one of the three
    rotations of the first three indices of a stored entry; only those
    candidates are read, in sorted order.  The sum is linear in R, so it is
    read from the scaled int copy (`Table.scaled`), whose positive factor
    keeps every zero.
    """
    r = dict(rt.scaled[1].items())
    candidates = {where for a, b, c, el in r
                  for where in ((a, b, c, el), (c, a, b, el), (b, c, a, el))}
    for where in sorted(candidates):
        i, j, k, el = where
        if r.get(where, 0) + r.get((j, k, i, el), 0) + r.get((k, i, j, el), 0):
            return where
    return None


def riemann_symmetry_clauses(rt: Tensor4, i: int, j: int, k: int,
                             el: int) -> tuple[tuple[str, Scalar, Scalar], ...]:
    """The three pair symmetries at one index tuple, as (name, R_ijkl, the
    entry value the symmetry demands)."""
    value = rt.entry(i, j, k, el)
    return (("swap-first-pair", value, -rt.entry(j, i, k, el)),
            ("swap-second-pair", value, -rt.entry(i, j, el, k)),
            ("pair-exchange", value, rt.entry(k, el, i, j)))


def riemann_symmetry_failures(rt: Tensor4) -> tuple[int, ...] | None:
    """First index tuple, in `itertools.product` order, violating the pair
    symmetries, or None.

    The clauses at (i, j, k, l) read R there and at (j, i, k, l),
    (i, j, l, k) and (k, l, i, j); where all four are zero every clause
    holds.  So only the stored entries and those three partners of each
    are candidates, checked in sorted order.  Each clause is linear in R,
    so it is read from the scaled int copy (`Table.scaled`), whose positive
    factor keeps every equality.
    """
    r = dict(rt.scaled[1].items())
    candidates = {where for i, j, k, el in r
                  for where in ((i, j, k, el), (j, i, k, el), (i, j, el, k), (k, el, i, j))}
    for where in sorted(candidates):
        i, j, k, el = where
        value = r.get(where, 0)
        if (value != -r.get((j, i, k, el), 0) or value != -r.get((i, j, el, k), 0)
                or value != r.get((k, el, i, j), 0)):
            return where
    return None
