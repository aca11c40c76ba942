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

The sweeps of R below require R to be antisymmetric in each pair.  The R
of a torsion-free metric connection is (Kobayashi-Nomizu vol. I, ch. III),
and `riemann` builds it so exactly: it adds each connection product at
(b, a, ...) and subtracts it at (a, b, ...); the structure constants are
antisymmetric (`structure_constants` fills them so, and LIE-ANTISYM gates
them); and `levi_civita` gives gamma(i, k, p) = -gamma(i, p, k), which
makes the sum antisymmetric in its second pair.  RIEM-SYM checks the
property on its own, and the sweeps do not re-check it.  nabla R, for any
connection, is then antisymmetric in each pair too, and each sweep builds
only the quarter i < j, k < l of what it compares, which holds the first
failure in product order.  The cyclic sums are totally antisymmetric in
their first three indices: BIANCHI-1 adds each entry only at the rotation
of those that increases, if one does, and BIANCHI-2 builds only the slabs
s < a < b, keyed by k < l, regrouped.  Reading R(a, p, ...) as
-R(p, a, ...) pairs each term that differentiates R's first pair with one
of the next rotation, into omega(s, a, p) = gamma(s, a, p) - gamma(a, s, p);
reading R(..., k, p) as -R(..., p, k) turns the terms of its second pair
into t(k, l) - t(l, k), with t(k, l) = sum_p gamma(s, k, p) R(a, b, p, l).
The same integer products over D_conn * D_R are summed, so every slab total
is unchanged, and no property of the connection is used.  The pullbacks
R(A., A., A., A.) of EQ-2.20, EQ-2.21 and EQ-4.1 pull the second pair first,
from the entries with p < q in the first, emitting slot 3 only above slot
2; then the first pair from both orders of (p, q), the sign flipped for
(q, p), emitting slot 1 only above slot 0.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .core import ZERO, Failure, Scalar, Table, combine, first_failure
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
    for (i, p, el), g in conn.entries.items():
        through.setdefault(p, []).append((i, el, g * (den // (gd * gd))))
    values: dict[tuple[int, int, int, int], int] = {}
    get = values.get
    # gamma(a, k, p) * gamma(b, p, el) is the first term of R(b, a, k, el)
    # and minus the second term of R(a, b, k, el).
    for (a, k, p), g in conn.entries.items():
        for b, el, h in through.get(p, ()):
            term = g * h
            values[b, a, k, el] = get((b, a, k, el), 0) + term
            values[a, b, k, el] = get((a, b, k, el), 0) - term
    for (i, j, p), c in m.constants.entries.items():
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
    for (a, j, k, el), value in rt.entries.items():
        if el == a:
            values[(j, k)] = values.get((j, k), 0) + value
    return Table.from_numerators(m.dim, 2, values, rt.den)


def scalar_curvature(rho: Table) -> Scalar:
    """Trace of the Ricci form over the orthonormal frame."""
    return Fraction(sum(a for (i, j), a in rho.entries.items() if i == j), rho.den)


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


def horizontal_curvature(rt: Table, endo: Table | None, keep: range,
                         quarter: bool) -> Table:
    """R on the index tuples in `keep`, or R(A., A., A., A.) there for the
    map A = `endo`, pulled back one slot at a time; with `quarter`, only at
    i < j and k < l (see the module docstring); into[p] holds (i, c) for each
    numerator c of A(e_i) on e_p, i in `keep`."""
    if endo is None:
        return (rt.pair_quarter() if quarter else rt).restrict(keep)
    if not quarter:
        return rt.pullback(endo, range(4), keep)
    endo = endo.restrict(keep, 1)
    into = endo.permute((1, 0)).sub()
    values = {key: a for key, a in rt.entries.items() if key[0] < key[1] and key[0] in into
              and key[1] in into and key[2] in into and key[3] in into}
    for pair in range(2):
        # pull the last pair, its second slot only above its first, and move
        # it to the front; then give the next pair both orders
        part: dict[tuple[int, int, int, int], int] = {}
        for (p, q, r, s), a in values.items():
            for k, c in into[r]:
                part[p, q, k, s] = part.get((p, q, k, s), 0) + c * a
        values = {}
        for (p, q, k, s), a in part.items():
            for el, c in into[s]:
                if el > k:
                    values[k, el, p, q] = values.get((k, el, p, q), 0) + c * a
        if not pair:
            values.update({(k, el, q, p): -a for (k, el, p, q), a in values.items()})
    return Table.from_numerators(rt.dim, 4, values, rt.den * endo.den ** 4)


def _regrouped_slab(omega: dict, planes: dict, into: dict, s: int, a: int, b: int) -> dict:
    """The cyclic slab at (s, a, b) on its entries k < l, regrouped as the
    module docstring states; omega[x, y] lists the nonzero (p, omega(x, y, p))."""
    slab: dict[tuple[int, int], int] = {}
    get = slab.get
    for x, y, z in ((s, a, b), (a, b, s), (b, s, a)):
        for p, w in omega.get((x, y), ()):
            for k, row in planes.get((p, z), ()):
                for el, v in row:
                    if k < el:
                        slab[k, el] = get((k, el), 0) - w * v
        reach = into.get(x, {})
        for p, row in planes.get((y, z), ()):
            for k, q in reach.get(p, ()):
                for el, v in row:
                    if k < el:
                        slab[k, el] = get((k, el), 0) - q * v
                    elif el < k:
                        slab[el, k] = get((el, k), 0) + q * v
    return slab


def second_bianchi_failures(m: ManifoldModel, conn: Table, rt: Table) -> Failure | None:
    """First failure of the differential Bianchi identity, as ((m, i, j,
    k, l), "", cyclic sum, 0) at the first tuple in `itertools.product`
    order where the cyclic sum over the first three indices of nabla R is
    nonzero; None when there is none.  R must be antisymmetric in each pair
    (see the module docstring): the sweep builds the slabs s < a < b,
    regrouped, one slab of numerators at a time, and returns at the first
    slab with a nonzero entry.
    """
    # into[s][p] holds (e, gamma(s, e, p)); planes[a, b] lists (k, [(l, R(a, b, k, l))])
    into, planes, omega = conn.permute((0, 2, 1)).sub(), {}, {}
    for (a, b, k, el), v in rt.entries.items():
        planes.setdefault((a, b), {}).setdefault(k, []).append((el, v))
    planes = {key: list(plane.items()) for key, plane in planes.items()}
    twist = combine([(1, conn), (-1, conn.permute((1, 0, 2)))])
    for (x, y, p), w in twist.entries.items():
        omega.setdefault((x, y), []).append((p, w * (conn.den // twist.den)))
    for triple in combinations(range(m.dim), 3):
        slab = _regrouped_slab(omega, planes, into, *triple)
        if any(slab.values()):
            key = min(key for key, total in slab.items() if total)
            return (*triple, *key), "", Fraction(slab[key], conn.den * rt.den), ZERO
    return None


def first_bianchi_failures(rt: Table) -> Failure | None:
    """First failure of the first Bianchi identity, as (index tuple, "",
    cyclic sum, 0) at the first tuple in `itertools.product` order with a
    nonzero sum R_ijkl + R_jkil + R_kijl; None when there is none.  R must
    be antisymmetric in its first pair (see the module docstring).  The sums
    are of R's numerators, each stored entry added only at the rotation of
    its first three indices that increases, if one does, and are compared
    with the empty map."""
    total: dict[tuple[int, int, int, int], int] = {}
    for (i, j, k, el), a in rt.entries.items():
        for key in ((i, j, k, el), (k, i, j, el), (j, k, i, el)):
            if key[0] < key[1] < key[2]:
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
