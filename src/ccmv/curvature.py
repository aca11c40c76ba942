"""Riemann curvature and its traces on a frame model.

Curvature convention: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_{[X,Y]} Z, lowered as R(X,Y,Z,W) = g(R(X,Y)Z, W).  On an
invariant frame this reduces to a closed polynomial in the connection
coefficients and structure constants, assembled here on the tables' int
numerators over one den.

The three checks of R on arbitrary vector fields (RIEM-SYM, BIANCHI-1,
BIANCHI-2) run on the int numerators too, and each returns its first
failure as (index tuple, clause, lhs, rhs).  RIEM-SYM and BIANCHI-1 are
clauses of `core.first_failure`: R's numerator map against that of R with
its slots permuted, and the cyclic sum against the empty map.  Each cyclic
nabla R term of BIANCHI-2 is a connection numerator times an R numerator,
over the product of the two dens.

BIANCHI-2 builds one slab of the cyclic sum per triple of its first three
indices, keyed by the last two.  When R is antisymmetric in each pair (as
RIEM-SYM checks), so is nabla R, and the cyclic sum is totally
antisymmetric in its first three indices and antisymmetric in its last
two; then only the triples s < a < b and the entries k < l are built,
about a sixth of the full sweep, with the same first failure.  Otherwise
the sweep builds one slab per rotation orbit, full width.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .core import ZERO, Failure, Scalar, Table, first_failure
from .model import ManifoldModel


class DegeneratePlane(ValueError):
    """Sectional curvature requested for vectors that do not span a plane."""


def riemann(m: ManifoldModel, conn: Table) -> Table:
    """Assemble the lowered curvature tensor R(i, j, k, el) = R(e_i, e_j, e_k, e_el)
    from the connection table:

        R(i, j, k, el) = sum_p gamma(j, k, p) gamma(i, p, el)
                         - gamma(i, k, p) gamma(j, p, el) - c(i, j, p) gamma(p, k, el),

    accumulated over the nonzero connection entries and brackets only.
    Symmetry of the entries is a consequence of the construction and is
    asserted by the verification suite, not by the table.
    """
    # through[p] lists (i, el, g) for every nonzero gamma(i, p, el) = g; the
    # terms are brought over den = D_conn * lcm(D_conn, D_c)
    gd, cd = conn.den, m.constants.den
    den = gd * lcm(gd, cd)
    through: dict[int, list[tuple[int, int, int]]] = {}
    for (i, p, el), g in conn.numerators():
        through.setdefault(p, []).append((i, el, g * (den // (gd * gd))))
    values: dict[tuple[int, int, int, int], int] = {}
    get = values.get
    # gamma(a, k, p) * gamma(b, p, el) is the first term of R(b, a, k, el)
    # and minus the second term of R(a, b, k, el).
    for (a, k, p), g in conn.numerators():
        for b, el, h in through.get(p, ()):
            term = g * h
            values[b, a, k, el] = get((b, a, k, el), 0) + term
            values[a, b, k, el] = get((a, b, k, el), 0) - term
    for (i, j, p), c in m.constants.numerators():
        c *= den // (cd * gd)
        for k, row in conn.sub(p).items():
            for el, g in row:
                values[i, j, k, el] = get((i, j, k, el), 0) - c * g
    return Table.from_numerators(m.dim, 4, values, den)


def ricci(m: ManifoldModel, rt: Table) -> Table:
    """Frame trace rho(e_j, e_k) = sum_a R(e_a, e_j, e_k, e_a).  The metric
    is the identity in this frame, so the same table read as a map is the
    Ricci operator Q: row(j) is Q e_j."""
    values: dict[tuple[int, int], int] = {}
    for (a, j, k, el), value in rt.numerators():
        if el == a:
            values[(j, k)] = values.get((j, k), 0) + value
    return Table.from_numerators(m.dim, 2, values, rt.den)


def scalar_curvature(rho: Table) -> Scalar:
    """Trace of the Ricci form over the orthonormal frame."""
    return Fraction(sum(a for (i, j), a in rho.numerators() if i == j), rho.den)


def sectional(rt: Table, x: Table, y: Table) -> Scalar:
    """K(x, y) = R(x, y, y, x) / (g(x,x) g(y,y) - g(x,y)^2), the inner
    products the contractions of the two vectors."""
    denominator = x.contract(x) * y.contract(y) - x.contract(y) ** 2
    if not denominator:
        raise DegeneratePlane("vectors do not span a nondegenerate plane")
    return rt.contract(x, y, y, x) / denominator


def holomorphic_sectional(m: ManifoldModel, rt: Table, x: Table) -> Scalar:
    """K(x, Jx); defined for nonzero x since J is a Hermitian isometry."""
    if x.is_zero():
        raise DegeneratePlane("holomorphic sectional curvature of the zero vector")
    return sectional(rt, x, m.J.contract(x))


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
                      a: int, b: int, upper: bool) -> None:
    """slab[(k, l)] += (nabla_{e_s} R)(e_a, e_b, e_k, e_l) as a numerator over
    D_conn * D_R, with gamma and into from `_connection_index` at one s, for
    every (k, l), or only for k < l when `upper` is set.  R is
    differentiated as an invariant 4-tensor, so each of its slots picks up
    a -gamma contraction."""
    plane, get = rt.sub(a, b), slab.get
    # each loop fixes k before it walks l, and adds only the l above `least`:
    # k itself with `upper`, below every index without
    shift = 0 if upper else -rt.dim
    for p, q in gamma.get(a, ()):
        for k, row in rt.sub(p, b).items():
            least = k + shift
            for el, v in row:
                if el > least:
                    slab[k, el] = get((k, el), 0) - q * v
    for p, q in gamma.get(b, ()):
        for k, row in rt.sub(a, p).items():
            least = k + shift
            for el, v in row:
                if el > least:
                    slab[k, el] = get((k, el), 0) - q * v
    for k, krow in gamma.items():
        least = k + shift
        for p, q in krow:
            for el, v in plane.get(p, ()):
                if el > least:
                    slab[k, el] = get((k, el), 0) - q * v
    for k, row in plane.items():
        least = k + shift
        for p, v in row:
            for el, q in into.get(p, ()):
                if el > least:
                    slab[k, el] = get((k, el), 0) - q * v


def second_bianchi_failures(m: ManifoldModel, conn: Table, rt: Table,
                            pair_antisymmetric: bool = False) -> Failure | None:
    """First failure of the differential Bianchi identity, as ((m, i, j,
    k, l), "", cyclic sum, 0) at the first tuple in `itertools.product`
    order where the cyclic sum over the first three indices of nabla R is
    nonzero; None when there is none.

    The cyclic slab at (i, j, m) or (j, m, i) is the same three nabla R
    terms as at (m, i, j), so the failing triples are closed under rotation
    and the first of them in product order is the smallest of its orbit.
    By default only those orbit minima are built, one slab of numerators at
    a time, and the sweep returns at the first slab with a nonzero entry.

    `pair_antisymmetric` states that R is antisymmetric in each of its two
    pairs, as RIEM-SYM checks.  nabla R keeps every slot symmetry of R
    whatever the connection is, so the cyclic sum is then antisymmetric in
    (k, l), and swapping two of (m, i, j) turns it into minus the cyclic sum
    of the other orientation: it is totally antisymmetric in (m, i, j), and
    zero at a repeated index.  The failing tuples are closed under these
    permutations, so the first of them in product order has m < i < j and
    k < l, and only those slabs, in `itertools.combinations` order, and
    those entries are built: about a sixth of the slab entries.  On a table
    without the pair antisymmetry the default full sweep is the exact one.
    """
    index = [_connection_index(conn, s) for s in range(m.dim)]
    if pair_antisymmetric:
        triples = combinations(range(m.dim), 3)
    else:
        triples = (t for t in product(range(m.dim), repeat=3)
                   if t <= (t[1], t[2], t[0]) and t <= (t[2], t[0], t[1]))
    for mm, i, j in triples:
        slab: dict[tuple[int, int], int] = {}
        for s, a, b in ((mm, i, j), (i, j, mm), (j, mm, i)):
            _subtract_nabla_r(slab, *index[s], rt, a, b, pair_antisymmetric)
        failing = [key for key, total in slab.items() if total]
        if failing:
            key = min(failing)
            return (mm, i, j, *key), "", Fraction(slab[key], conn.den * rt.den), ZERO
    return None


def first_bianchi_failures(rt: Table) -> Failure | None:
    """First failure of the first Bianchi identity, as (index tuple, "",
    cyclic sum, 0) at the first tuple in `itertools.product` order with a
    nonzero sum R_ijkl + R_jkil + R_kijl; None when there is none.  The
    sums are of R's numerators, each stored entry added at its own tuple
    and at the two rotations of its first three indices, and are compared
    with the empty map."""
    total: dict[tuple[int, int, int, int], int] = {}
    for (i, j, k, el), a in rt.numerators():
        for key in ((i, j, k, el), (k, i, j, el), (j, k, i, el)):
            total[key] = total.get(key, 0) + a
    return first_failure([("", (total, rt.den), ({}, 1))], 4)


def riemann_symmetry_failures(rt: Table) -> Failure | None:
    """First failure of the pair symmetries, as (index tuple, clause,
    R_ijkl, the entry value the symmetry demands) at the first tuple in
    `itertools.product` order where one fails, with the first failing of
    swap-first-pair (-R_jikl), swap-second-pair (-R_ijlk) and pair-exchange
    (R_klij) there; None when all three hold.  Each clause compares R's
    numerators with those of its permuted table."""
    r = rt.keyed()
    return first_failure([("swap-first-pair", r, rt.keyed((1, 0, 2, 3), -1)),
                          ("swap-second-pair", r, rt.keyed((0, 1, 3, 2), -1)),
                          ("pair-exchange", r, rt.keyed((2, 3, 0, 1)))], 4)
