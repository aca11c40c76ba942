"""The dense references: one exact `Fraction` definition per quantity, an
independent second route that the tests compare an engine kernel with.
Each line names a reference and the kernel it checks.

- `dense_jacobi_witness`, the Jacobi sums: LIE-JACOBI in `model.lie_checks`.
- `dense_riemann`, R from the connection: `curvature.riemann`.
- `NablaR`, nabla R and its cyclic sums: `curvature.second_bianchi_failures`.
- `dense_contract`, the sum over every index tuple: `Table.contract`.
- `dense_pullback`: `Table.pullback` and `curvature.horizontal_curvature`.
- `dense_sum`, `dense_product`, `dense_permute`, `dense_fix` and
  `dense_restrict`, on value maps: `add`, `combine` and its product terms,
  `tensor`, `permute`, `fix` and `restrict` of `Table`.
- `sorted_first_failure`, every failing key sorted: `core.first_failure`.
- `riemann_symmetry`, RIEM-SYM's clauses: `curvature.riemann_symmetry_failures`.
- `first_bianchi`, BIANCHI-1's clause: `curvature.first_bianchi_failures`.
- `REFERENCES`, per-tuple evaluators: the registry's identities in `verify`.
- the `ref_*` formulas: the normality tables and `structures.check_normality`.
- `sampled_suite_rows`, with the dropped sample phase: `verify.run_suite`.

None assumes a symmetry of R, and none calls the kernel it checks.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, product
from typing import Callable

from ccmv import (
    CheckResult,
    ManifoldModel,
    Status,
    SuiteReport,
    Table,
    format_scalar,
    format_sparse_vector,
    suite_tsv_rows,
)
from ccmv.core import ZERO, combine
from ccmv.verify import (
    REGISTRY,
    Identity,
    Workspace,
    _run_tables,
    registry_ids,
    render_witness,
)
from conftest import (
    horizontal_projection,
    random_rational_vector,
    tensor4_from_function,
    vector,
)


# ----- the Lie bracket and the curvature -----

def nonzero_rows(t: Table) -> list:
    """rows[a][b] lists the nonzero (p, t(a, b, p)) of a rank-3 table: a sum
    over p of t(a, b, p) times anything skips only its zero terms."""
    rows = [[[] for _ in range(t.dim)] for _ in range(t.dim)]
    for (a, b, p), x in t.items():
        rows[a][b].append((p, x))
    return rows


def dense_jacobi_witness(m) -> str | None:
    """The first Jacobi sum [[e_i, e_j], e_l] + [[e_j, e_l], e_i] + [[e_l, e_i], e_j]
    with a nonzero e_k coefficient, over every (i, j, l, k) in product order."""
    c, rows = dict(m.constants.items()), nonzero_rows(m.constants)
    for i, j, el, k in product(range(m.dim), repeat=4):
        total = (sum((x * c.get((mm, el, k), ZERO) for mm, x in rows[i][j]), ZERO)
                 + sum((x * c.get((mm, i, k), ZERO) for mm, x in rows[j][el]), ZERO)
                 + sum((x * c.get((mm, j, k), ZERO) for mm, x in rows[el][i]), ZERO))
        if total:
            return f"entry=({i},{j},{el},{k}) lhs={format_scalar(total)} rhs=0"
    return None


def dense_riemann(m, conn) -> Table:
    """R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k at every index tuple, from the connection and the
    brackets."""
    gamma, gamma_rows, c_rows = dict(conn.items()), nonzero_rows(conn), nonzero_rows(m.constants)

    def component(i, j, k, el):
        return (sum((x * gamma.get((i, mm, el), ZERO) for mm, x in gamma_rows[j][k]), ZERO)
                - sum((x * gamma.get((j, mm, el), ZERO) for mm, x in gamma_rows[i][k]), ZERO)
                - sum((x * gamma.get((mm, k, el), ZERO) for mm, x in c_rows[i][j]), ZERO))

    return tensor4_from_function(m.dim, component)


class NablaR:
    """nabla R of one connection and curvature, and the cyclic sums of the
    differential Bianchi identity, on Fraction values.  R is differentiated
    as an invariant 4-tensor: (nabla_{e_s} R)(e_a, e_b, e_c, e_d) is
    -sum_p gamma(s, x, p) R(.., e_p, ..) summed over the four slots, x the
    index in the slot.  Each slab (s, a, b) is summed once, over the nonzero
    connection and curvature entries, since every other term is zero; no
    symmetry of R is assumed."""

    def __init__(self, conn: Table, rt: Table):
        self.dim = rt.dim
        # gamma[s, x] lists (p, gamma(s, x, p)); into[s, p] lists (x, gamma(s, x, p))
        self.gamma: dict = {}
        self.into: dict = {}
        for (s, x, p), q in conn.items():
            self.gamma.setdefault((s, x), []).append((p, q))
            self.into.setdefault((s, p), []).append((x, q))
        # planes[a, b] lists ((c, d), R(a, b, c, d))
        self.planes: dict = {}
        for (a, b, c, d), v in rt.items():
            self.planes.setdefault((a, b), []).append(((c, d), v))
        self.slabs: dict = {}

    def slab(self, s: int, a: int, b: int) -> dict:
        """(nabla_{e_s} R)(e_a, e_b, e_c, e_d), keyed (c, d)."""
        if (s, a, b) in self.slabs:
            return self.slabs[s, a, b]
        out: dict = {}

        def subtract(key, value):
            out[key] = out.get(key, ZERO) - value
        # slots 1 and 2: gamma(s, a, p) R(e_p, e_b, ..) and gamma(s, b, p) R(e_a, e_p, ..)
        for p, q in self.gamma.get((s, a), ()):
            for key, v in self.planes.get((p, b), ()):
                subtract(key, q * v)
        for p, q in self.gamma.get((s, b), ()):
            for key, v in self.planes.get((a, p), ()):
                subtract(key, q * v)
        # slots 3 and 4: gamma(s, x, p) R(e_a, e_b, e_p, e_d) and R(e_a, e_b, e_c, e_p)
        for (c, d), v in self.planes.get((a, b), ()):
            for x, q in self.into.get((s, c), ()):
                subtract((x, d), q * v)
            for x, q in self.into.get((s, d), ()):
                subtract((c, x), q * v)
        self.slabs[s, a, b] = out
        return out

    def cyclic_slab(self, m: int, i: int, j: int) -> dict:
        """The nonzero cyclic sums over the first three indices,
        (nabla_m R)(e_i, e_j, e_k, e_l) + (nabla_i R)(e_j, e_m, ..)
        + (nabla_j R)(e_m, e_i, ..), keyed (k, l)."""
        total: dict = {}
        for triple in ((m, i, j), (i, j, m), (j, m, i)):
            for key, v in self.slab(*triple).items():
                total[key] = total.get(key, ZERO) + v
        return {key: v for key, v in total.items() if v}

    def failure(self) -> tuple | None:
        """The first failure of the differential Bianchi identity in
        `itertools.product` order over every index 5-tuple, as (5-tuple, "",
        cyclic sum, 0); None when every cyclic sum is zero."""
        for triple in product(range(self.dim), repeat=3):
            sums = self.cyclic_slab(*triple)
            if sums:
                key = min(sums)
                return (*triple, *key), "", sums[key], ZERO
        return None


# ----- table kernels -----

def dense_contract(values: dict, dim: int, rank: int, vectors) -> Fraction | Table:
    """The contraction of the table of `values` with `rank` vectors, or with
    `rank - 1` into a vector, as the plain sum over every index tuple."""
    coords = [[v.entry(i) for i in range(dim)] for v in vectors]

    def term(idx):
        coeff = values.get(idx, ZERO)
        for c, i in zip(coords, idx):
            if not coeff:
                break
            coeff *= c[i]
        return coeff
    heads = list(product(range(dim), repeat=len(vectors)))
    if len(vectors) == rank:
        return sum(map(term, heads), ZERO)
    return vector([sum((term(head + (k,)) for head in heads), ZERO) for k in range(dim)])


def dense_pullback(t: Table, endo: Table, slots, keep) -> dict:
    """Every nonzero entry of the pullback on index tuples in `keep`: at each
    tuple, t summed over every tuple of the slot arguments' coordinates, the
    image of e_i under `endo` in a pulled-back slot and e_i in the others."""
    values = dict(t.items())
    # each slot's argument as its nonzero (coordinate, coefficient) pairs
    images = {i: [] for i in range(t.dim)}
    for (i, p), x in endo.items():
        images[i].append((p, x))
    out = {}
    for idx in product(keep, repeat=t.rank):
        args = [images[i] if s in slots else [(i, 1)] for s, i in enumerate(idx)]
        total = ZERO
        for combo in product(*args):
            term = values.get(tuple(p for p, _ in combo))
            if term is None:
                continue
            for _, x in combo:
                term *= x
            total += term
        if total:
            out[idx] = total
    return out


def dense_sum(*terms) -> dict:
    """The nonzero values of the sum of c * values over the terms (c,
    values), each values a map from index tuple to value."""
    total: dict = {}
    for c, values in terms:
        for key, x in values.items():
            total[key] = total.get(key, 0) + c * x
    return {key: x for key, x in total.items() if x}


def dense_product(a: dict, b: dict, at: int = 0) -> dict:
    """The nonzero a(i...) b(j...), keyed with a's indices at slot `at` of
    b's: a ⊗ b at 0, and the product term (c, (a, b, at)) of `combine`."""
    return {y[:at] + x + y[at:]: v * w for x, v in a.items() for y, w in b.items() if v * w}


def dense_permute(values: dict, order) -> dict:
    """The nonzero values of `permute(order)`: the entry at (i_0, ...) is
    the value at (i_order[0], ...)."""
    return {tuple(key[list(order).index(s)] for s in range(len(key))): x
            for key, x in values.items() if x}


def dense_fix(values: dict, slot: int, index: int) -> dict:
    """The nonzero values whose index in `slot` is `index`, that slot dropped."""
    return {key[:slot] + key[slot + 1:]: x for key, x in values.items()
            if x and key[slot] == index}


def dense_restrict(values: dict, keep, width: int) -> dict:
    """The nonzero values whose first `width` indices lie in `keep`."""
    return {key: x for key, x in values.items() if x and all(i in keep for i in key[:width])}


# ----- sweeps -----

def first_failing_point(evaluate: Callable, points) -> tuple | None:
    """The first (where, clause, lhs, rhs) at which a clause of
    evaluate(args) has lhs != rhs, over the (where, args) points in order;
    None when every clause holds at every point."""
    for where, args in points:
        for clause, lhs, rhs in evaluate(args):
            if lhs != rhs:
                return where, clause, lhs, rhs
    return None


def sorted_first_failure(clauses, width: int, keep) -> tuple | None:
    """`core.first_failure` by sorting every failing (frame tuple, clause,
    key) over every index tuple, each side a Table t or a term (c, t)
    valued as c t in Fractions: the first, with both rows at its frame
    tuple when `width` is one less than the rank, else both values there."""
    def value(side, key):
        c, t = side if isinstance(side, tuple) else (1, side)
        return c * Fraction(t.entries.get(key, 0), t.den)

    def table(side) -> Table:
        return side[1] if isinstance(side, tuple) else side

    failing = sorted((key[:width], c, key)
                     for c, (_, left, right) in enumerate(clauses)
                     for key in product(range(table(left).dim), repeat=table(left).rank)
                     if value(left, key) != value(right, key)
                     and (keep is None or all(i in keep for i in key[:width])))
    if not failing:
        return None
    where, c, key = failing[0]
    label, left, right = clauses[c]
    dim, rank = table(left).dim, table(left).rank
    if width == rank - 1:
        return where, label, *(vector([value(side, (*where, k)) for k in range(dim)])
                               for side in (left, right))
    return where, label, value(left, key), value(right, key)


def riemann_symmetry(r: Callable, x, y, z, w) -> list:
    """RIEM-SYM's clauses at (x, y, z, w), with r the curvature 4-form."""
    value = r(x, y, z, w)
    return [("swap-first-pair", value, -r(y, x, z, w)),
            ("swap-second-pair", value, -r(x, y, w, z)),
            ("pair-exchange", value, r(z, w, x, y))]


def first_bianchi(r: Callable, x, y, z, w) -> list:
    """BIANCHI-1's clause at (x, y, z, w): the cyclic sum of the first three
    arguments, with r the curvature 4-form."""
    return [("", r(x, y, z, w) + r(y, z, x, w) + r(z, x, y, w), ZERO)]


def entry_failure(clauses: Callable, rt: Table) -> tuple | None:
    """The first failure of `riemann_symmetry` or `first_bianchi` over every
    frame 4-tuple in `itertools.product` order, the 4-form on frame vectors
    read as R's entries."""
    values = dict(rt.items())

    def r(*idx):
        return values.get(idx, ZERO)
    return first_failing_point(lambda idx: clauses(r, *idx),
                               ((idx, idx) for idx in product(range(rt.dim), repeat=4)))


# ----- the per-vector layer and the frame sweep the engine dropped -----

class VectorWorkspace(Workspace):
    """A workspace with the per-vector accessors the references read: the
    structure tensors applied to frame vectors, and the stored tables
    contracted with them.  Vectors and 1-forms are rank-1 tables, so u(X)
    is the contraction of U with X."""

    def __init__(self, m: ManifoldModel):
        super().__init__(m)
        self.basis = [m.basis(i) for i in range(m.dim)]

    def G(self, x: Table) -> Table:
        return self.model.G.contract(x)

    def H(self, x: Table) -> Table:
        return self.model.H.contract(x)

    def J(self, x: Table) -> Table:
        return self.model.J.contract(x)

    def u(self, x: Table) -> Fraction:
        return self.model.U.contract(x)

    def v(self, x: Table) -> Fraction:
        return self.model.V.contract(x)

    def sig(self, x: Table) -> Fraction:
        return self.sigma.contract(x)

    def dsig(self, x: Table, y: Table) -> Fraction:
        return self.dsigma.contract(x, y)

    def hproj(self, x: Table) -> Table:
        return horizontal_projection(self.model, x)

    def uv_bilinear(self, x: Table, y: Table) -> Fraction:
        """u(X)v(Y) - v(X)u(Y)."""
        return self.u(x) * self.v(y) - self.v(x) * self.u(y)

    def vertical_mix(self, y: Table) -> Table:
        """u(Y) V - v(Y) U."""
        return combine([(self.u(y), self.model.V), (-self.v(y), self.model.U)])

    def nabla(self, x: Table, y: Table) -> Table:
        return self.conn.contract(x, y)

    def cov_form(self, x: Table, w: Table) -> Table:
        """(nabla_X w)(e_j) = -w(nabla_X e_j)."""
        return vector([-w.contract(self.nabla(x, e)) for e in self.basis])

    def cov_J(self, x: Table, y: Table) -> Table:
        return self.nabla_J.contract(x, y)

    def R(self, x: Table, y: Table, z: Table) -> Table:
        return self.curv.contract(x, y, z)

    def R4(self, x: Table, y: Table, z: Table, w: Table) -> Fraction:
        return self.curv.contract(x, y, z, w)

    def rho_val(self, x: Table, y: Table) -> Fraction:
        return self.rho.contract(x, y)


# The per-tuple evaluators the table identities replaced: for each id, the
# slot kinds, and a function of the workspace and one frame vector per slot
# that returns the (clause, lhs, rhs) triples.  Each side is a vector
# expression in the accessors above.
REFERENCES: dict[str, tuple[tuple[str, ...], Callable]] = {}


def _references() -> None:
    def reference(identity_id: str, slots: str, fn) -> None:
        REFERENCES[identity_id] = (tuple(slots.split()), fn)

    reference("AX-du", "any any", lambda ws, vs: [(
        "", ws.du.contract(vs[0], vs[1]),
        vs[0].contract(ws.G(vs[1])) + ws.wedge_sigma_v.contract(vs[0], vs[1]))])

    reference("AX-dv", "any any", lambda ws, vs: [(
        "", ws.dv.contract(vs[0], vs[1]),
        vs[0].contract(ws.H(vs[1])) - ws.wedge_sigma_u.contract(vs[0], vs[1]))])

    # ----- contact: structure-tensor derivative identities -----
    reference("EQ-2.1", "any", lambda ws, vs: [
        ("U", ws.nUG.contract(vs[0]), combine([(ws.sig(ws.model.U), ws.H(vs[0]))])),
        ("V", ws.nVH.contract(vs[0]), combine([(-ws.sig(ws.model.V), ws.G(vs[0]))]))])

    reference("EQ-2.7", "any", lambda ws, vs: [
        ("U", ws.nabla(vs[0], ws.model.U),
         combine([(-1, ws.G(vs[0])), (ws.sig(vs[0]), ws.model.V)])),
        ("V", ws.nabla(vs[0], ws.model.V),
         combine([(-1, ws.H(vs[0])), (-ws.sig(vs[0]), ws.model.U)]))])

    reference("EQ-2.8", "", lambda ws, vs: [
        ("UU", ws.nabla(ws.model.U, ws.model.U),
         combine([(ws.sig(ws.model.U), ws.model.V)])),
        ("UV", ws.nabla(ws.model.U, ws.model.V),
         combine([(-ws.sig(ws.model.U), ws.model.U)])),
        ("VU", ws.nabla(ws.model.V, ws.model.U),
         combine([(ws.sig(ws.model.V), ws.model.V)])),
        ("VV", ws.nabla(ws.model.V, ws.model.V),
         combine([(-ws.sig(ws.model.V), ws.model.U)]))])

    reference("EQ-2.9", "any any", lambda ws, vs: [
        ("GH", ws.dsig(ws.G(vs[0]), ws.G(vs[1])),
         ws.dsig(ws.H(vs[0]), ws.H(vs[1]))),
        ("flip", ws.dsig(ws.G(vs[0]), ws.G(vs[1])),
         ws.dsig(vs[1], vs[0]) - 2 * ws.uv_bilinear(vs[1], vs[0]) * ws.dUV)])

    reference("EQ-2.10", "any", lambda ws, vs: [
        ("U", ws.dsig(ws.model.U, vs[0]), ws.v(vs[0]) * ws.dUV),
        ("V", ws.dsig(ws.model.V, vs[0]), -ws.u(vs[0]) * ws.dUV)])

    reference("EQ-2.22", "hor hor", lambda ws, vs: [(
        "", ws.dsig(vs[0], vs[1]),
        2 * ws.J(vs[0]).contract(vs[1])
        + ws.nUJ.contract(ws.G(vs[0])).contract(vs[1]))])

    reference("EQ-3.1", "any any", lambda ws, vs: [
        ("u", ws.cov_form(vs[0], ws.model.U).contract(vs[1]),
         vs[0].contract(ws.G(vs[1])) + ws.sig(vs[0]) * ws.v(vs[1])),
        ("v", ws.cov_form(vs[0], ws.model.V).contract(vs[1]),
         vs[0].contract(ws.H(vs[1])) - ws.sig(vs[0]) * ws.u(vs[1]))])

    def eq_3_2_block(ws: Workspace, vs) -> list:
        x = vs[0]
        U, V = ws.model.U, ws.model.V
        return [
            ("GU.V", ws.nUG.contract(x).contract(V), ZERO),
            ("HU.V", ws.nUH.contract(x).contract(V), ZERO),
            ("GU.U", ws.nUG.contract(x).contract(U), ZERO),
            ("HU.U", ws.nUH.contract(x).contract(U), ZERO),
            ("GV.U", ws.nVG.contract(x).contract(U), ZERO),
            ("HV.U", ws.nVH.contract(x).contract(U), ZERO),
            ("GV.V", ws.nVG.contract(x).contract(V), ZERO),
            ("HV.V", ws.nVH.contract(x).contract(V), ZERO),
            ("JU.V", ws.nUJ.contract(x).contract(V), ZERO),
            ("JU.U", ws.nUJ.contract(x).contract(U), ZERO),
            ("JV.U", ws.nVJ.contract(x).contract(U), ZERO),
            ("JV.V", ws.nVJ.contract(x).contract(V), ZERO),
        ]

    reference("EQ-3.2-BLOCK", "hor", eq_3_2_block)

    for eq_id, attr_u, attr_v in (("EQ-3.3", "nUG", "nVG"),
                                  ("EQ-3.4", "nUH", "nVH"),
                                  ("EQ-3.5", "nUJ", "nVJ")):
        def projector(ws: Workspace, vs, a=attr_u, b=attr_v) -> list:
            x = vs[0]
            return [("U", getattr(ws, a).contract(x), getattr(ws, a).contract(ws.hproj(x))),
                    ("V", getattr(ws, b).contract(x), getattr(ws, b).contract(ws.hproj(x)))]
        reference(eq_id, "any", projector)

    reference("EQ-3.6", "any any", lambda ws, vs: [(
        "", ws.nUG.contract(vs[0]).contract(vs[1]),
        ws.sig(ws.model.U) * ws.H(ws.hproj(vs[0])).contract(ws.hproj(vs[1])))])

    reference("EQ-3.7", "any any", lambda ws, vs: [(
        "", ws.nVG.contract(vs[0]).contract(vs[1]),
        ws.sig(ws.model.V) * ws.H(ws.hproj(vs[0])).contract(ws.hproj(vs[1]))
        + ws.dsig(ws.hproj(vs[1]), ws.hproj(vs[0]))
        - 2 * ws.J(ws.hproj(vs[0])).contract(ws.hproj(vs[1])))])

    reference("EQ-3.8", "any any", lambda ws, vs: [(
        "", ws.nVH.contract(vs[0]).contract(vs[1]),
        -ws.sig(ws.model.V) * ws.G(ws.hproj(vs[0])).contract(ws.hproj(vs[1])))])

    reference("EQ-3.9", "any any", lambda ws, vs: [(
        "", ws.nUH.contract(vs[0]).contract(vs[1]),
        -ws.sig(ws.model.U) * ws.G(ws.hproj(vs[0])).contract(ws.hproj(vs[1]))
        - ws.dsig(ws.hproj(vs[1]), ws.hproj(vs[0]))
        + 2 * ws.J(ws.hproj(vs[0])).contract(ws.hproj(vs[1])))])

    reference("EQ-3.10", "any any", lambda ws, vs: [(
        "", ws.nUJ.contract(ws.G(vs[0])).contract(vs[1]),
        -ws.dsig(ws.hproj(vs[1]), ws.hproj(vs[0]))
        - 2 * ws.J(ws.hproj(vs[0])).contract(ws.hproj(vs[1])))])

    reference("EQ-3.11", "any any", lambda ws, vs: [(
        "", ws.nVJ.contract(ws.G(vs[0])).contract(vs[1]),
        ws.dsig(ws.hproj(vs[1]), ws.G(ws.hproj(vs[0])))
        - 2 * ws.H(ws.hproj(vs[0])).contract(ws.hproj(vs[1])))])

    reference("EQ-4.11", "any any", lambda ws, vs: [(
        "", ws.dsig(vs[0], vs[1]),
        2 * ws.J(ws.hproj(vs[0])).contract(ws.hproj(vs[1]))
        + ws.nUJ.contract(ws.G(ws.hproj(vs[0]))).contract(ws.hproj(vs[1]))
        + ws.dUV * ws.uv_bilinear(vs[0], vs[1]))])

    reference("EQ-4.14", "any any", lambda ws, vs: [(
        "", ws.cov_J(vs[0], vs[1]),
        combine([(-2 * ws.u(vs[0]), ws.H(vs[1])),
                 (2 * ws.v(vs[0]), ws.G(vs[1])),
                 (ws.u(vs[0]), combine([(2, ws.H(ws.hproj(vs[1]))),
                                        (1, ws.nUJ.contract(ws.hproj(vs[1])))])),
                 (ws.v(vs[0]), combine([(-2, ws.G(ws.hproj(vs[1]))),
                                        (1, ws.nUJ.contract(ws.J(ws.hproj(vs[1]))))]))]))])

    # ----- curvature -----
    reference("EQ-2.11", "", lambda ws, vs: [
        ("UVVU", ws.R4(ws.model.U, ws.model.V, ws.model.V, ws.model.U),
         -2 * ws.dUV),
        ("VUUV", ws.R4(ws.model.V, ws.model.U, ws.model.U, ws.model.V),
         -2 * ws.dUV)])

    reference("EQ-2.12", "hor", lambda ws, vs: [
        ("U", ws.R(vs[0], ws.model.U, ws.model.U), vs[0]),
        ("V", ws.R(vs[0], ws.model.V, ws.model.V), vs[0])])

    reference("EQ-2.13", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], vs[1], ws.model.U),
        combine([(2 * (vs[0].contract(ws.J(vs[1])) + ws.dsig(vs[0], vs[1])),
                  ws.model.V)]))])

    reference("EQ-2.14", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], vs[1], ws.model.V),
        combine([(-2 * (vs[0].contract(ws.J(vs[1])) + ws.dsig(vs[0], vs[1])),
                  ws.model.U)]))])

    reference("EQ-2.15", "hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, ws.model.V),
        combine([(ws.sig(ws.model.U), ws.G(vs[0])), (1, ws.nUH.contract(vs[0])),
                 (-1, ws.J(vs[0]))]))])

    reference("EQ-2.16", "hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, ws.model.U),
        combine([(-ws.sig(ws.model.V), ws.H(vs[0])), (1, ws.nVG.contract(vs[0])),
                 (1, ws.J(vs[0]))]))])

    reference("EQ-2.17", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, vs[1]),
        combine([(-vs[0].contract(vs[1]), ws.model.U),
                 (ws.dsig(vs[1], vs[0]) - ws.J(vs[0]).contract(vs[1]), ws.model.V)]))])

    reference("EQ-2.18", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, vs[1]),
        combine([(-vs[0].contract(vs[1]), ws.model.V),
                 (ws.J(vs[0]).contract(vs[1]) - ws.dsig(vs[1], vs[0]), ws.model.U)]))])

    reference("EQ-2.19", "hor", lambda ws, vs: [(
        "", ws.R(ws.model.U, ws.model.V, vs[0]), ws.J(vs[0]))])

    reference("EQ-4.2", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, ws.model.U),
        combine([(1, ws.hproj(vs[0])), (-2 * ws.dUV * ws.v(vs[0]), ws.model.V)]))])

    reference("EQ-4.3", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, ws.model.V),
        combine([(1, ws.hproj(vs[0])), (-2 * ws.dUV * ws.u(vs[0]), ws.model.U)]))])

    reference("EQ-4.4", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, ws.model.V),
        combine([(ws.sig(ws.model.U), ws.G(ws.hproj(vs[0]))),
                 (1, ws.nUH.contract(ws.hproj(vs[0]))), (-1, ws.J(ws.hproj(vs[0]))),
                 (2 * ws.dUV * ws.v(vs[0]), ws.model.U)]))])

    reference("EQ-4.5", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, ws.model.U),
        combine([(-ws.sig(ws.model.V), ws.H(ws.hproj(vs[0]))),
                 (1, ws.nVG.contract(ws.hproj(vs[0]))), (1, ws.J(ws.hproj(vs[0]))),
                 (2 * ws.dUV * ws.u(vs[0]), ws.model.V)]))])

    reference("EQ-4.6", "any", lambda ws, vs: [(
        "", ws.R(ws.model.U, ws.model.V, vs[0]),
        combine([(1, ws.J(ws.hproj(vs[0]))), (2 * ws.dUV, ws.vertical_mix(vs[0]))]))])

    def eq_4_7(ws: Workspace, vs) -> list:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = combine([(-ws.u(x), y0),
                       (ws.v(x), combine([(ws.sig(ws.model.V), ws.H(y0)),
                                          (1, ws.nVG.contract(y0)), (1, ws.J(y0))])),
                       (ws.u(y), x0),
                       (ws.v(y), combine([(-ws.sig(ws.model.V), ws.H(x0)),
                                          (1, ws.nVG.contract(x0)), (1, ws.J(x0))])),
                       (2 * (x0.contract(ws.J(y0)) + ws.dsig(x0, y0))
                        + 2 * ws.dUV * ws.uv_bilinear(x, y), ws.model.V)])
        return [("", ws.R(x, y, ws.model.U), rhs)]

    reference("EQ-4.7", "any any", eq_4_7)

    def eq_4_8(ws: Workspace, vs) -> list:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = combine([(-ws.u(x), combine([(ws.sig(ws.model.U), ws.G(y0)),
                                           (1, ws.nUH.contract(y0)), (-1, ws.J(y0))])),
                       (-ws.v(x), y0),
                       (ws.u(y), combine([(-ws.sig(ws.model.U), ws.G(x0)),
                                          (1, ws.nUH.contract(x0)), (-1, ws.J(x0))])),
                       (ws.v(y), x0),
                       (-2 * (x0.contract(ws.J(y0)) + ws.dsig(x0, y0))
                        - 2 * ws.dUV * ws.uv_bilinear(x, y), ws.model.U)])
        return [("", ws.R(x, y, ws.model.V), rhs)]

    reference("EQ-4.8", "any any", eq_4_8)

    def eq_4_9(ws: Workspace, vs) -> list:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = combine([(ws.u(y), x0),
                       (-ws.v(x), ws.J(y0)),
                       (ws.v(y), combine([(ws.sig(ws.model.U), ws.G(x0)),
                                          (1, ws.nUH.contract(x0)), (-1, ws.J(x0))])),
                       (-x0.contract(y0) - 2 * ws.dUV * ws.v(x) * ws.v(y), ws.model.U),
                       (ws.dsig(y0, x0) - ws.J(x0).contract(y0)
                        - 2 * ws.dUV * ws.v(x) * ws.u(y), ws.model.V)])
        return [("", ws.R(x, ws.model.U, y), rhs)]

    reference("EQ-4.9", "any any", eq_4_9)

    def eq_4_10(ws: Workspace, vs) -> list:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = combine([(ws.u(x), ws.J(y0)),
                       (ws.v(y), x0),
                       (ws.u(y), combine([(-ws.sig(ws.model.U), ws.H(x0)),
                                          (1, ws.nVG.contract(x0)), (1, ws.J(x0))])),
                       (-x0.contract(y0) + 2 * ws.dUV * ws.u(x) * ws.u(y), ws.model.V),
                       (ws.J(x0).contract(y0) - ws.dsig(y0, x0)
                        - 2 * ws.dUV * ws.u(x) * ws.v(y), ws.model.U)])
        return [("", ws.R(x, ws.model.V, y), rhs)]

    reference("EQ-4.10", "any any", eq_4_10)

    # ----- ricci -----
    reference("EQ-5.1", "hor hor", lambda ws, vs: [
        ("G", ws.rho_val(ws.G(vs[0]), ws.G(vs[1])), ws.rho_val(vs[0], vs[1])),
        ("H", ws.rho_val(ws.H(vs[0]), ws.H(vs[1])), ws.rho_val(vs[0], vs[1]))])

    reference("EQ-5.2", "hor hor", lambda ws, vs: [
        ("G", ws.rho_val(ws.G(vs[0]), vs[1]), -ws.rho_val(vs[0], ws.G(vs[1]))),
        ("H", ws.rho_val(ws.H(vs[0]), vs[1]), -ws.rho_val(vs[0], ws.H(vs[1])))])

    reference("EQ-5.6", "hor", lambda ws, vs: [
        ("U", ws.rho_val(vs[0], ws.model.U), ZERO),
        ("V", ws.rho_val(vs[0], ws.model.V), ZERO)])

    def vertical_ricci_target(ws: Workspace) -> Fraction:
        return 4 * ws.model.n - 2 * ws.dUV

    reference("EQ-5.7", "", lambda ws, vs: [
        ("UU", ws.rho_val(ws.model.U, ws.model.U), vertical_ricci_target(ws)),
        ("VV", ws.rho_val(ws.model.V, ws.model.V), vertical_ricci_target(ws)),
        ("UV", ws.rho_val(ws.model.U, ws.model.V), ZERO)])

    reference("EQ-5.10", "any", lambda ws, vs: [
        ("U", ws.rho_val(vs[0], ws.model.U),
         vertical_ricci_target(ws) * ws.u(vs[0])),
        ("V", ws.rho_val(vs[0], ws.model.V),
         vertical_ricci_target(ws) * ws.v(vs[0]))])

    reference("EQ-5.11", "any any", lambda ws, vs: [(
        "", ws.rho_val(vs[0], vs[1]),
        ws.rho_val(ws.hproj(vs[0]), ws.hproj(vs[1]))
        + vertical_ricci_target(ws) * (ws.u(vs[0]) * ws.u(vs[1])
                                       + ws.v(vs[0]) * ws.v(vs[1])))])

    reference("EQ-5.12", "any any", lambda ws, vs: [
        ("G", ws.rho_val(vs[0], vs[1]),
         ws.rho_val(ws.G(vs[0]), ws.G(vs[1]))
         + vertical_ricci_target(ws) * (ws.u(vs[0]) * ws.u(vs[1])
                                        + ws.v(vs[0]) * ws.v(vs[1]))),
        ("H", ws.rho_val(vs[0], vs[1]),
         ws.rho_val(ws.H(vs[0]), ws.H(vs[1]))
         + vertical_ricci_target(ws) * (ws.u(vs[0]) * ws.u(vs[1])
                                        + ws.v(vs[0]) * ws.v(vs[1])))])

    reference("EQ-5.13", "any", lambda ws, vs: [
        ("G", ws.rho.contract(ws.G(vs[0])), ws.G(ws.rho.contract(vs[0]))),
        ("H", ws.rho.contract(ws.H(vs[0])), ws.H(ws.rho.contract(vs[0])))])

_references()
# the identities that were swept frame tuple by frame tuple until the
# registry held only tables and direct checks
CONVERTED_IDS = sorted(REFERENCES)

# EQ-2.20, EQ-2.21 and EQ-4.1 as the per-tuple evaluators the table
# equations replaced: R4 contracted on the G or H images of each frame tuple.
HORIZONTAL_REFERENCES = {
    "EQ-2.20": lambda ws, vs: [(
        "", ws.R4(ws.G(vs[0]), ws.G(vs[1]), ws.G(vs[2]), ws.G(vs[3])),
        ws.R4(vs[0], vs[1], vs[2], vs[3])
        - 2 * ws.J(vs[2]).contract(vs[3]) * ws.dsig(vs[0], vs[1])
        + 2 * ws.H(vs[0]).contract(vs[1]) * ws.dsig(ws.G(vs[2]), vs[3])
        + 2 * ws.J(vs[0]).contract(vs[1]) * ws.dsig(vs[2], vs[3])
        - 2 * ws.H(vs[2]).contract(vs[3]) * ws.dsig(ws.G(vs[0]), vs[1]))],
    "EQ-2.21": lambda ws, vs: [(
        "", ws.R4(ws.H(vs[0]), ws.H(vs[1]), ws.H(vs[2]), ws.H(vs[3])),
        ws.R4(vs[0], vs[1], vs[2], vs[3])
        - 2 * ws.J(vs[2]).contract(vs[3]) * ws.dsig(vs[0], vs[1])
        + 2 * ws.G(vs[0]).contract(vs[1]) * ws.dsig(ws.H(vs[2]), vs[3])
        + 2 * ws.J(vs[0]).contract(vs[1]) * ws.dsig(vs[2], vs[3])
        - 2 * ws.G(vs[2]).contract(vs[3]) * ws.dsig(ws.H(vs[0]), vs[1]))],
    "EQ-4.1": lambda ws, vs: [
        ("G", ws.R4(ws.G(vs[0]), ws.G(vs[1]), ws.G(vs[2]), ws.G(vs[3])),
         ws.R4(vs[0], vs[1], vs[2], vs[3])),
        ("H", ws.R4(ws.H(vs[0]), ws.H(vs[1]), ws.H(vs[2]), ws.H(vs[3])),
         ws.R4(vs[0], vs[1], vs[2], vs[3]))],
}


# The per-vector formulas that the normality tables replaced: nabla A, the
# torsions, S and T, and the right-hand sides of Prop. 2.1 and Thm. 4.5,
# each read off the connection by contraction on frame vectors.

def ref_cov(ws: Workspace, a, x, y) -> Table:
    """(nabla_X A)Y = nabla_X(AY) - A(nabla_X Y)."""
    return combine([(1, ws.nabla(x, a(y))), (-1, a(ws.nabla(x, y)))])


def ref_nijenhuis(ws: Workspace, which: str, x, y) -> Table:
    a = {"G": ws.G, "H": ws.H}[which]

    def cov(p, q):
        return ref_cov(ws, a, p, q)
    return combine([(1, cov(a(x), y)), (-1, cov(a(y), x)), (-1, a(cov(x, y))),
                    (1, a(cov(y, x)))])


def ref_tensor_S(ws: Workspace, x, y) -> Table:
    m, sig = ws.model, ws.sig
    G, H = ws.G, ws.H
    return combine([(1, ref_nijenhuis(ws, "G", x, y)),
                    (2 * x.contract(G(y)), m.U),
                    (-2 * x.contract(H(y)), m.V),
                    (2 * ws.v(y), H(x)), (-2 * ws.v(x), H(y)),
                    (sig(G(y)), H(x)),
                    (-sig(G(x)), H(y)),
                    (sig(x), G(H(y))), (-sig(y), G(H(x)))])


def ref_tensor_T(ws: Workspace, x, y) -> Table:
    m, sig = ws.model, ws.sig
    G, H = ws.G, ws.H
    return combine([(1, ref_nijenhuis(ws, "H", x, y)),
                    (-2 * x.contract(G(y)), m.U),
                    (2 * x.contract(H(y)), m.V),
                    (2 * ws.u(y), G(x)), (-2 * ws.u(x), G(y)),
                    (sig(H(x)), G(y)),
                    (-sig(H(y)), G(x)),
                    (sig(x), G(H(y))), (-sig(y), G(H(x)))])


def ref_prop21_rhs_G(ws: Workspace, x, y, z) -> Fraction:
    u, v, J = ws.u, ws.v, ws.J
    return (ws.sig(x) * ws.H(y).contract(z)
            + v(x) * ws.dsig(ws.G(z), ws.G(y))
            - 2 * v(x) * ws.H(ws.G(y)).contract(z)
            - u(y) * x.contract(z)
            - v(y) * J(x).contract(z)
            + u(z) * x.contract(y)
            + v(z) * J(x).contract(y))


def ref_prop21_rhs_H(ws: Workspace, x, y, z) -> Fraction:
    u, v, J = ws.u, ws.v, ws.J
    return (-ws.sig(x) * ws.G(y).contract(z)
            - u(x) * ws.dsig(ws.H(z), ws.H(y))
            - 2 * u(x) * ws.G(ws.H(y)).contract(z)
            + u(y) * J(x).contract(z)
            - v(y) * x.contract(z)
            - u(z) * J(x).contract(y)
            + v(z) * x.contract(y))


def ref_nabla_U_J_G0(ws: Workspace, y) -> Table:
    """(nabla_U J) G Y0, with Y0 the horizontal part of Y."""
    return ref_cov(ws, ws.J, ws.model.U, ws.G(ws.hproj(y)))


def ref_dUV(ws: Workspace) -> Fraction:
    return ws.dsig(ws.model.U, ws.model.V)


def ref_thm45_core(ws: Workspace, y) -> Table:
    return combine([(2, ws.J(ws.hproj(y))), (1, ref_nabla_U_J_G0(ws, y))])


def ref_thm45_rhs_G(ws: Workspace, x, y) -> Table:
    u, v, J, m = ws.u, ws.v, ws.J, ws.model
    return combine([(ws.sig(x), ws.H(y)),
                    (-2 * v(x), J(y)),
                    (-u(y), x),
                    (-v(y), J(x)),
                    (v(x), ref_thm45_core(ws, y)),
                    (x.contract(y), m.U),
                    (J(x).contract(y), m.V),
                    (-2 * v(x), ws.vertical_mix(y)),
                    (-ref_dUV(ws) * v(x), ws.vertical_mix(y))])


def ref_thm45_rhs_H(ws: Workspace, x, y) -> Table:
    u, v, J, m = ws.u, ws.v, ws.J, ws.model
    return combine([(-ws.sig(x), ws.G(y)),
                    (2 * u(x), J(y)),
                    (u(y), J(x)),
                    (-v(y), x),
                    (-u(x), ref_thm45_core(ws, y)),
                    (-J(x).contract(y), m.U),
                    (x.contract(y), m.V),
                    (2 * u(x), ws.vertical_mix(y)),
                    (ref_dUV(ws) * u(x), ws.vertical_mix(y))])


def _vector_witness(label, slots, lhs, rhs) -> str:
    where = slots if isinstance(slots, str) else ",".join(str(s) for s in slots)
    return (f"{label} slots={where} lhs={format_sparse_vector(lhs)} "
            f"rhs={format_sparse_vector(rhs)}")


def ref_route_korkmaz(ws: Workspace, samples) -> CheckResult:
    """S and T on every horizontal frame pair, S before T; then S(e_i, U)
    and T(e_i, V); then the horizontal parts of the sample pairs."""
    m, b = ws.model, ws.basis
    zero = Table.from_values(m.dim, 1, {})
    for i, j in product(m.horizontal_indices, repeat=2):
        for label, tensor in (("S", ref_tensor_S), ("T", ref_tensor_T)):
            value = tensor(ws, b[i], b[j])
            if not value.is_zero():
                return CheckResult("NORM-KORKMAZ", Status.FAIL,
                                   _vector_witness(label, (i, j), value, zero))
    for i in range(m.dim):
        for label, tensor, w in (("S(.,U)", ref_tensor_S, m.U_index),
                                 ("T(.,V)", ref_tensor_T, m.V_index)):
            value = tensor(ws, b[i], b[w])
            if not value.is_zero():
                return CheckResult("NORM-KORKMAZ", Status.FAIL,
                                   _vector_witness(label, (i, w), value, zero))
    for index, (x, y) in enumerate(samples):
        for label, tensor in (("S", ref_tensor_S), ("T", ref_tensor_T)):
            value = tensor(ws, ws.hproj(x), ws.hproj(y))
            if not value.is_zero():
                return CheckResult("NORM-KORKMAZ", Status.FAIL,
                                   _vector_witness(label, f"sample={index}", value, zero))
    return CheckResult("NORM-KORKMAZ", Status.PASS)


def ref_route_prop21(ws: Workspace) -> CheckResult:
    b = ws.basis
    for i, j, k in product(range(ws.model.dim), repeat=3):
        for label, a, rhs in (("G", ws.G, ref_prop21_rhs_G), ("H", ws.H, ref_prop21_rhs_H)):
            lhs_value = ref_cov(ws, a, b[i], b[j]).contract(b[k])
            rhs_value = rhs(ws, b[i], b[j], b[k])
            if lhs_value != rhs_value:
                return CheckResult("NORM-PROP21", Status.FAIL,
                                   f"{label} slots={i},{j},{k} lhs={format_scalar(lhs_value)} "
                                   f"rhs={format_scalar(rhs_value)}")
    return CheckResult("NORM-PROP21", Status.PASS)


def ref_route_thm45(ws: Workspace) -> CheckResult:
    b = ws.basis
    for i, j in product(range(ws.model.dim), repeat=2):
        for label, a, rhs in (("G", ws.G, ref_thm45_rhs_G), ("H", ws.H, ref_thm45_rhs_H)):
            lhs_value = ref_cov(ws, a, b[i], b[j])
            rhs_value = rhs(ws, b[i], b[j])
            if lhs_value != rhs_value:
                return CheckResult("NORM-THM45", Status.FAIL,
                                   _vector_witness(label, (i, j), lhs_value, rhs_value))
    return CheckResult("NORM-THM45", Status.PASS)


def ref_check_normality(ws: Workspace, samples: int = 32, seed: int = 0) -> SuiteReport:
    return SuiteReport(ws.model.name, (ref_route_korkmaz(ws, sample_pairs(ws, samples, seed)),
                                       ref_route_prop21(ws), ref_route_thm45(ws)))


# EQ-2.4, EQ-2.5, EQ-2.6, EQ-4.12 and EQ-4.13 as the per-tuple evaluators the
# table equations replaced, with the literal differences of the printed terms.
def eq_2_5_misprint(ws: Workspace, x, y, z) -> Fraction:
    """HG printed where GH belongs in the 2 u(X) term."""
    return (-2 * ws.u(x) * ws.H(ws.G(y)).contract(z)
            + 2 * ws.u(x) * ws.G(ws.H(y)).contract(z))


def eq_4_12_misprint(ws: Workspace, x, y) -> Table:
    """The printed sign of the nabla_U J term, and 2 v(X)(u(Y)V - v(Y)U) dropped."""
    return combine([(-2 * ws.v(x), ref_nabla_U_J_G0(ws, y)),
                    (2 * ws.v(x), ws.vertical_mix(y))])


def eq_4_13_misprint(ws: Workspace, x, y) -> Table:
    """-2 u(X)(u(Y)V - v(Y)U) dropped."""
    return combine([(-2 * ws.u(x), ws.vertical_mix(y))])


NORMALITY_REFERENCES = {
    "EQ-2.4": lambda ws, vs: [(
        "", ref_cov(ws, ws.G, vs[0], vs[1]).contract(vs[2]),
        ref_prop21_rhs_G(ws, *vs))],
    "EQ-2.5": lambda ws, vs: [(
        "", ref_cov(ws, ws.H, vs[0], vs[1]).contract(vs[2]),
        ref_prop21_rhs_H(ws, *vs) + eq_2_5_misprint(ws, *vs))],
    "EQ-2.6": lambda ws, vs: [(
        "", ref_cov(ws, ws.J, vs[0], vs[1]).contract(vs[2]),
        ws.u(vs[0]) * (ws.dsig(vs[2], ws.G(vs[1]))
                       - 2 * ws.H(vs[1]).contract(vs[2]))
        + ws.v(vs[0]) * (ws.dsig(vs[2], ws.H(vs[1]))
                         + 2 * ws.G(vs[1]).contract(vs[2])))],
    "EQ-4.12": lambda ws, vs: [(
        "", ref_cov(ws, ws.G, *vs),
        combine([(1, ref_thm45_rhs_G(ws, *vs)), (1, eq_4_12_misprint(ws, *vs))]))],
    "EQ-4.13": lambda ws, vs: [(
        "", ref_cov(ws, ws.H, *vs),
        combine([(1, ref_thm45_rhs_H(ws, *vs)), (1, eq_4_13_misprint(ws, *vs))]))],
}
NORMALITY_SLOTS = {"EQ-2.4": 3, "EQ-2.5": 3, "EQ-2.6": 3, "EQ-4.12": 2, "EQ-4.13": 2}


REFERENCES.update({identity_id: (("hor",) * 4, fn)
                   for identity_id, fn in HORIZONTAL_REFERENCES.items()})
REFERENCES.update({identity_id: (("any",) * NORMALITY_SLOTS[identity_id], fn)
                   for identity_id, fn in NORMALITY_REFERENCES.items()})

# RIEM-SYM and BIANCHI-1 as slot identities, on R4 of the workspace's R.
REFERENCES["RIEM-SYM"] = (("any",) * 4, lambda ws, vs: riemann_symmetry(ws.R4, *vs))
REFERENCES["BIANCHI-1"] = (("any",) * 4, lambda ws, vs: first_bianchi(ws.R4, *vs))


def sample_points(ws: Workspace, identity_id: str, slots, samples: int, seed: int):
    """`samples` tuples of random rational vectors (horizontally projected
    in `hor` slots), drawn from a stream seeded by `seed` and the id."""
    rng = random.Random(f"{seed}:{identity_id}")
    for sample_index in range(samples):
        vectors = []
        for kind in slots:
            vec = random_rational_vector(rng, ws.model.dim)
            vectors.append(horizontal_projection(ws.model, vec) if kind == "hor" else vec)
        yield f"sample:{sample_index}", tuple(vectors)


def frame_failure(ws: VectorWorkspace, identity_id: str, samples: int = 0,
                  seed: int = 0) -> tuple | None:
    """An identity's first failure by its reference evaluator: every frame
    tuple of its slot ranges in `itertools.product` order, where is the
    index tuple, then the random samples, where is "sample:<n>"."""
    slots, evaluate = REFERENCES[identity_id]
    m = ws.model
    ranges = [m.horizontal_indices if kind == "hor" else range(m.dim) for kind in slots]
    frame = ((idx, tuple(ws.basis[i] for i in idx)) for idx in product(*ranges))
    return first_failing_point(lambda vs: evaluate(ws, vs),
                               chain(frame, sample_points(ws, identity_id, slots, samples, seed)))


def reference_row(identity_id: str, failure: tuple | None) -> CheckResult:
    """The row of a (where, clause, lhs, rhs) failure, or of none."""
    if failure is None:
        return CheckResult(identity_id, Status.PASS)
    where, clause, lhs, rhs = failure
    if isinstance(where, tuple):
        where = ",".join(map(str, where)) or "-"
    return CheckResult(identity_id, Status.FAIL, render_witness(where, clause, lhs, rhs))


def reference_sweep(ws: VectorWorkspace, identity_id: str, samples: int = 0,
                    seed: int = 0) -> CheckResult:
    """An identity's row by its reference evaluator."""
    return reference_row(identity_id, frame_failure(ws, identity_id, samples, seed))


# ----- the random-sample phase the engine dropped -----
# Every side is linear in each slot, so once the frame tuples agree no
# sample can fail; the suite's rows must equal these.

def clause_tables(ws: Workspace, ident: Identity) -> list:
    """A table identity's clauses with every side a Table: a side (c, t),
    which the engine compares as c t unbuilt, is built here."""
    return [(name, *(side if type(side) is Table else combine([side]) for side in sides))
            for name, *sides in ident.tables(ws)]


def sampled_tables(ws: Workspace, ident: Identity, samples: int,
                   seed: int) -> CheckResult:
    """A table identity by the engine's check, then its tables contracted
    with the sample tuples."""
    result = _run_tables(ws, ident)
    if result.status is Status.FAIL or not ident.slots:
        return result
    clauses = clause_tables(ws, ident)

    def evaluate(vectors):
        return [(name, lhs.contract(*vectors), rhs.contract(*vectors))
                for name, lhs, rhs in clauses]
    return reference_row(ident.identity_id, first_failing_point(
        evaluate, sample_points(ws, ident.identity_id, ident.slots, samples, seed)))


def sample_pairs(ws: Workspace, samples: int, seed: int) -> list:
    """The random rational vector pairs of the normality sample phase."""
    rng = random.Random(f"{seed}:normality")
    d = ws.model.dim
    return [(random_rational_vector(rng, d), random_rational_vector(rng, d))
            for _ in range(samples)]


def sampled_korkmaz(ws: VectorWorkspace, samples: int, seed: int) -> CheckResult:
    """The engine's korkmaz route, then S and T on the horizontal parts of
    the sample pairs."""
    route = ws.normality.result("NORM-KORKMAZ")
    if route.status is Status.FAIL:
        return route
    zero = Table.from_values(ws.model.dim, 1, {})
    for index, (x, y) in enumerate(sample_pairs(ws, samples, seed)):
        for label, t in (("S", ws.obstruction_S), ("T", ws.obstruction_T)):
            value = t.contract(ws.hproj(x), ws.hproj(y))
            if not value.is_zero():
                return CheckResult("NORM-KORKMAZ", Status.FAIL,
                                   _vector_witness(label, f"sample={index}", value, zero))
    return route


def sampled_suite_rows(m: ManifoldModel, samples: int, seed: int) -> list[str]:
    """`run_suite(m)` as TSV rows with the sample phase put back."""
    ws = VectorWorkspace(m)
    results = []
    for ident in REGISTRY:
        if ident.identity_id == "NORM-KORKMAZ":
            results.append(sampled_korkmaz(ws, samples, seed))
        elif ident.direct is not None:
            results.append(ident.direct(ws))
        else:
            results.append(sampled_tables(ws, ident, samples, seed))
    order = registry_ids("all")
    results.sort(key=lambda r: order.index(r.check_id))
    return suite_tsv_rows(SuiteReport(m.name, tuple(results)))


# ----- bumped tables -----

def bumped(t: Table, bumps: dict[tuple[int, ...], int]) -> Table:
    """The table, of the same class, with each delta added at its index."""
    values = dict(t.items())
    for idx, delta in bumps.items():
        values[idx] = values.get(idx, ZERO) + delta
    return type(t).from_values(t.dim, t.rank, values)


def pair_partner_bumps(where: tuple[int, ...], delta: Fraction,
                       exchange: bool = True) -> dict:
    """delta at R(i, j, k, l) and at its 3 partners under the pair swaps,
    signed so that R stays antisymmetric in each pair, as the curvature
    sweeps require; with `exchange`, also at the 4 pair-exchanged tuples,
    so that a Riemann-symmetric R stays so: RIEM-SYM still holds, BIANCHI-1
    and BIANCHI-2 need not.  Without it, RIEM-SYM fails at pair-exchange."""
    i, j, k, el = where
    bumps: dict = {}
    for key, sign in (((i, j, k, el), 1), ((j, i, k, el), -1),
                      ((i, j, el, k), -1), ((j, i, el, k), 1)):
        for at in (key, key[2:] + key[:2])[:1 + exchange]:
            bumps[at] = bumps.get(at, ZERO) + sign * delta
    return bumps
