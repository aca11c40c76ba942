"""The nonzero-driven kernels agree with the dense formulas they replace.

Each reference below is the dense index-range formula, kept here as an
independent second route: the Jacobi sweep, the curvature assembly, the
exhaustive second-Bianchi sweep and its cyclic nabla R slabs on Fraction
values, the product-order index sweeps of the
Riemann symmetries and of the first Bianchi identity, the per-vector
formulas of nabla G/H/J, the torsions, S, T and the Prop. 2.1 and Thm. 4.5
right-hand sides with the three normality route loops, the pullback of a
table through an endomorphism, and the quadrilinear and trilinear
contractions.  Every identity the engine checks as a table equation keeps
its per-tuple evaluator here, on the per-vector layer the engine dropped
(`VectorWorkspace`), with the frame sweep that ran it (`reference_sweep`);
so do RIEM-SYM and BIANCHI-1, and the slotless EQ-2.11 and EQ-5.7.  The
random-sample phase the engine dropped is kept here too, as a reference
the suite's rows must equal.  They are compared on the bundled model,
generated nilpotent perturbations, the n=2 block-diagonal model, a fixed
two-step model with [U, V] != 0 and non-integral tables, systematic
mutations and single-entry bumps of the bundled model, curvature bumps
that keep every pair partner and connection bumps of each generated
model, random two-step nilpotent models with random structure tensors,
and random sparse 4-tensors, some antisymmetric in their first pair.

BIANCHI-1, BIANCHI-2 and EQ-4.1, and EQ-2.20 and EQ-2.21 where their
rank-2 factors are skew, build and compare only the quarter i < j, k < l.
That requires R to be antisymmetric in each pair, as `riemann` builds it;
a hypothesis test below checks this on random bracket tables.  So every R
these sweeps are given here keeps its pair partners, and their rows are
compared with the references: the product-order and exhaustive sweeps,
the Fraction slabs and the full builds.  An R that breaks a pair goes only
to RIEM-SYM, whose witness reports it, and to one test of what the
quarter misses.
"""
from __future__ import annotations

import importlib.resources
import operator
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from types import SimpleNamespace
from typing import Callable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccmv import (
    CheckResult,
    HEISENBERG_CCM,
    ManifoldModel,
    Status,
    Table,
    build_heisenberg,
    format_scalar,
    format_sparse_vector,
    levi_civita,
    lie_checks,
    load_model,
    riemann,
    riemann_symmetry_failures,
    run_suite,
    suite_tsv_rows,
)
from ccmv import curvature
from ccmv.core import combine
from ccmv.curvature import (
    first_bianchi_failures,
    horizontal_curvature,
    second_bianchi_failures,
)
from ccmv.model import structure_constants
from ccmv.structures import NormalityReport, check_normality, first_table_failure
from ccmv.verify import (
    REGISTRY,
    Identity,
    SuiteReport,
    Workspace,
    _run_tables,
    diff_expected,
    parse_expected,
    registry_ids,
    render_witness,
)
from conftest import (
    ERRATA,
    basis,
    horizontal_projection,
    make_heisenberg_model,
    make_nilpotent_model,
    make_two_step_model,
    random_rational_vector,
    tensor4_from_function,
    vector,
)

ZERO = Fraction(0)

MODELS = {
    "bundled": build_heisenberg,
    **{f"nilpotent-{seed}": (lambda seed=seed: make_nilpotent_model(seed))
       for seed in range(5)},
    "heisenberg-n2": lambda: make_heisenberg_model(2),
    "two-step": make_two_step_model,
}


# ----- dense reference routes -----

def dense_view(t) -> list:
    """The table as dense nested lists, for the index-range formulas."""
    def block(depth):
        if depth == t.rank - 1:
            return [ZERO] * t.dim
        return [block(depth + 1) for _ in range(t.dim)]

    view = block(0)
    for idx, value in t.items():
        node = view
        for i in idx[:-1]:
            node = node[i]
        node[idx[-1]] = value
    return view


def dense_jacobi_witness(m) -> str | None:
    d = m.dim
    c = m.constants.entry
    for i, j, el, k in product(range(d), repeat=4):
        total = sum((c(i, j, mm) * c(mm, el, k)
                     + c(j, el, mm) * c(mm, i, k)
                     + c(el, i, mm) * c(mm, j, k) for mm in range(d)), ZERO)
        if total:
            return f"entry=({i},{j},{el},{k}) lhs={format_scalar(total)} rhs=0"
    return None


def dense_riemann(m, conn) -> Table:
    d = m.dim
    gamma = dense_view(conn)
    c = dense_view(m.constants)

    def component(i, j, k, el):
        total = ZERO
        for mm in range(d):
            total += gamma[j][k][mm] * gamma[i][mm][el]
            total -= gamma[i][k][mm] * gamma[j][mm][el]
            total -= c[i][j][mm] * gamma[mm][k][el]
        return total

    return tensor4_from_function(d, component)


def dense_cyclic_sum(m, conn, rt, mm, i, j, k, el) -> Fraction:
    gamma = dense_view(conn)

    def nabla_r(s, a, b, cc, dd):
        total = ZERO
        for p in range(m.dim):
            total -= gamma[s][a][p] * rt.entry(p, b, cc, dd)
            total -= gamma[s][b][p] * rt.entry(a, p, cc, dd)
            total -= gamma[s][cc][p] * rt.entry(a, b, p, dd)
            total -= gamma[s][dd][p] * rt.entry(a, b, cc, p)
        return total

    return (nabla_r(mm, i, j, k, el) + nabla_r(i, j, mm, k, el)
            + nabla_r(j, mm, i, k, el))


def add_nabla_r(slab: dict, conn, rt, s: int, a: int, b: int) -> None:
    """slab[(k, l)] += (nabla_{e_s} R)(e_a, e_b, e_k, e_l) for every (k, l),
    on the Fraction values: R is differentiated as an invariant 4-tensor, so
    each slot of R picks up a -gamma contraction, read from the nonzero
    connection and curvature entries only."""
    gamma = [((x, p), q) for (t, x, p), q in conn.items() if t == s]
    for (i, j, k, el), v in rt.items():
        for (x, p), q in gamma:
            for hit, key in (((x, p, j) == (a, i, b), (k, el)),
                             ((x, p, i) == (b, j, a), (k, el)),
                             ((i, j, p) == (a, b, k), (x, el)),
                             ((i, j, p) == (a, b, el), (k, x))):
                if hit:
                    slab[key] = slab.get(key, ZERO) - q * v


def second_bianchi_slab(conn, rt, mm: int, i: int, j: int) -> dict:
    """The cyclic sum over the first three indices of nabla R at (mm, i, j),
    keyed by the last two, on the Fraction values."""
    slab: dict = {}
    for s, a, b in ((mm, i, j), (i, j, mm), (j, mm, i)):
        add_nabla_r(slab, conn, rt, s, a, b)
    return slab


def second_bianchi_cyclic_sum(conn, rt, mm, i, j, k, el) -> Fraction:
    """One entry of `second_bianchi_slab`; zero where the differential
    Bianchi identity holds."""
    return second_bianchi_slab(conn, rt, mm, i, j).get((k, el), ZERO)


def dense_bianchi_failure(m, conn, rt) -> tuple[int, ...] | None:
    """First failing tuple of the exhaustive sweep; the dense formula with
    the connection read through its zero-free rows only, to stay fast."""
    d = m.dim
    r = dense_view(rt)
    gamma = dense_view(conn)
    rows = [[[(p, gamma[s][a][p]) for p in range(d) if gamma[s][a][p]]
             for a in range(d)] for s in range(d)]

    def nabla_r(s, a, b, cc, dd):
        total = ZERO
        for p, q in rows[s][a]:
            total -= q * r[p][b][cc][dd]
        for p, q in rows[s][b]:
            total -= q * r[a][p][cc][dd]
        for p, q in rows[s][cc]:
            total -= q * r[a][b][p][dd]
        for p, q in rows[s][dd]:
            total -= q * r[a][b][cc][p]
        return total

    for mm, i, j, k, el in product(range(d), repeat=5):
        if (nabla_r(mm, i, j, k, el) + nabla_r(i, j, mm, k, el)
                + nabla_r(j, mm, i, k, el)):
            return (mm, i, j, k, el)
    return None


def dense(v: Table) -> list:
    """A vector's coefficients as a dense list."""
    return [v.entry(i) for i in range(v.dim)]


def dense_contract(t: Table, x, y, z, w) -> Fraction:
    d = t.dim
    x, y, z, w = map(dense, (x, y, z, w))
    return sum((x[i] * y[j] * z[k] * w[el] * t.entry(i, j, k, el)
                for i, j, k, el in product(range(d), repeat=4)), ZERO)


def dense_contract3(t: Table, x, y, z) -> Table:
    d = t.dim
    x, y, z = map(dense, (x, y, z))
    return vector([sum((x[i] * y[j] * z[k] * t.entry(i, j, k, el)
                        for i, j, k in product(range(d), repeat=3)), ZERO)
                   for el in range(d)])


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


def first_failure(identity_id: str, evaluate, points) -> CheckResult:
    """The first clause that fails at the first (where, vectors) point."""
    for where, vectors in points:
        for clause, lhs, rhs in evaluate(vectors):
            if lhs != rhs:
                return CheckResult(identity_id, Status.FAIL,
                                   render_witness(where, clause, lhs, rhs))
    return CheckResult(identity_id, Status.PASS)


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


def reference_sweep(ws: VectorWorkspace, identity_id: str, samples: int = 0,
                    seed: int = 0) -> CheckResult:
    """An identity by its reference evaluator: every frame tuple of its slot
    ranges in `itertools.product` order, then the random samples."""
    slots, evaluate = REFERENCES[identity_id]
    m = ws.model
    ranges = [m.horizontal_indices if kind == "hor" else range(m.dim) for kind in slots]
    frame = ((",".join(map(str, idx)) or "-", tuple(ws.basis[i] for i in idx))
             for idx in product(*ranges))
    return first_failure(identity_id, lambda vs: evaluate(ws, vs),
                         chain(frame, sample_points(ws, identity_id, slots, samples, seed)))


# The random-sample phase the engine dropped.  Every side is linear in each
# slot, so once the frame tuples agree no sample can fail; the suite's rows
# must equal these.

def sampled_tables(ws: Workspace, ident: Identity, samples: int,
                   seed: int) -> CheckResult:
    """A table identity by the engine's check, then its tables contracted
    with the sample tuples."""
    result = _run_tables(ws, ident)
    if result.status is Status.FAIL or not ident.slots:
        return result
    clauses = ident.tables(ws)

    def evaluate(vectors):
        return [(name, lhs.contract(*vectors), rhs.contract(*vectors))
                for name, lhs, rhs in clauses]
    return first_failure(ident.identity_id, evaluate,
                         sample_points(ws, ident.identity_id, ident.slots, samples, seed))


def sample_pairs(ws: Workspace, samples: int, seed: int) -> list:
    """The random rational vector pairs of the normality sample phase."""
    rng = random.Random(f"{seed}:normality")
    d = ws.model.dim
    return [(random_rational_vector(rng, d), random_rational_vector(rng, d))
            for _ in range(samples)]


def sampled_korkmaz(ws: VectorWorkspace, samples: int, seed: int) -> CheckResult:
    """The engine's korkmaz route, then S and T on the horizontal parts of
    the sample pairs."""
    route = ws.normality.korkmaz
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
    return suite_tsv_rows(SuiteReport(m.name, "all", tuple(results)))


# RIEM-SYM and BIANCHI-1 as slot identities: R4 clauses over every frame 4-tuple.
REFERENCES["RIEM-SYM"] = (("any",) * 4, lambda ws, vs: [
    ("swap-first-pair", ws.R4(vs[0], vs[1], vs[2], vs[3]),
     -ws.R4(vs[1], vs[0], vs[2], vs[3])),
    ("swap-second-pair", ws.R4(vs[0], vs[1], vs[2], vs[3]),
     -ws.R4(vs[0], vs[1], vs[3], vs[2])),
    ("pair-exchange", ws.R4(vs[0], vs[1], vs[2], vs[3]),
     ws.R4(vs[2], vs[3], vs[0], vs[1]))])
REFERENCES["BIANCHI-1"] = (("any",) * 4, lambda ws, vs: [(
    "", ws.R4(vs[0], vs[1], vs[2], vs[3])
    + ws.R4(vs[1], vs[2], vs[0], vs[3])
    + ws.R4(vs[2], vs[0], vs[1], vs[3]), ZERO)])


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


def ref_check_normality(ws: Workspace, samples: int = 32, seed: int = 0) -> NormalityReport:
    return NormalityReport(ref_route_korkmaz(ws, sample_pairs(ws, samples, seed)),
                           ref_route_prop21(ws), ref_route_thm45(ws))


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


def registry_identity(identity_id: str) -> Identity:
    return next(i for i in REGISTRY if i.identity_id == identity_id)


def table_result(ws: Workspace, identity_id: str) -> CheckResult:
    ident = registry_identity(identity_id)
    assert ident.tables is not None
    return _run_tables(ws, ident)


def dense_pullback(t: Table, endo: Table, slots, keep) -> dict:
    """Every nonzero entry of the pullback on index tuples in `keep`: the
    dense 4-fold sum of t over the images of the pulled-back slots."""
    d = t.dim
    view = dense_view(t)
    out = {}
    for idx in product(keep, repeat=4):
        x, y, z, w = (dense(endo.row(i) if s in slots else basis(d, i))
                      for s, i in enumerate(idx))
        total = sum((x[a] * y[b] * z[c] * w[e] * view[a][b][c][e]
                     for a, b, c, e in product(range(d), repeat=4)
                     if x[a] and y[b] and z[c] and w[e]), ZERO)
        if total:
            out[idx] = total
    return out


def product_order_riemann_symmetry_failure(rt: Table):
    """The first failing (tuple, clause, R there, the value the clause
    demands) of every frame 4-tuple in product order, on Fraction values."""
    r = rt.entry
    for i, j, k, el in product(range(rt.dim), repeat=4):
        value = r(i, j, k, el)
        for clause, demanded in (("swap-first-pair", -r(j, i, k, el)),
                                 ("swap-second-pair", -r(i, j, el, k)),
                                 ("pair-exchange", r(k, el, i, j))):
            if value != demanded:
                return (i, j, k, el), clause, value, demanded
    return None


def first_bianchi_cyclic_sum(rt: Table, i: int, j: int, k: int, el: int) -> Fraction:
    """R_ijkl + R_jkil + R_kijl on the Fraction values."""
    return rt.entry(i, j, k, el) + rt.entry(j, k, i, el) + rt.entry(k, i, j, el)


def product_order_first_bianchi_failure(rt: Table):
    """The first (tuple, "", nonzero cyclic sum, 0) of every frame 4-tuple
    in product order, on Fraction values."""
    for where in product(range(rt.dim), repeat=4):
        total = first_bianchi_cyclic_sum(rt, *where)
        if total:
            return where, "", total, ZERO
    return None


def direct_result(ws: Workspace, identity_id: str) -> CheckResult:
    return registry_identity(identity_id).direct(ws)


def _jacobi_witness(m) -> str | None:
    check = {c.check_id: c for c in lie_checks(m)}["LIE-JACOBI"]
    assert (check.status is Status.FAIL) == (check.witness is not None)
    return check.witness


# ----- generated models -----

@pytest.fixture(scope="module", params=sorted(MODELS))
def geometry(request):
    m = MODELS[request.param]()
    conn = levi_civita(m)
    return m, conn, riemann(m, conn)


class TestGeneratedModels:
    def test_jacobi_matches_dense_sweep(self, geometry):
        m, _, _ = geometry
        assert _jacobi_witness(m) == dense_jacobi_witness(m)

    def test_riemann_matches_dense_assembly(self, geometry):
        m, conn, rt = geometry
        assert rt == dense_riemann(m, conn)

    def test_bianchi_sweep_matches_dense_sweep(self, geometry):
        m, conn, rt = geometry
        found = second_bianchi_failures(m, conn, rt)
        assert (found and found[0]) == dense_bianchi_failure(m, conn, rt)

    def test_riemann_symmetry_matches_frame_sweep(self, geometry):
        ws = VectorWorkspace(geometry[0])
        assert direct_result(ws, "RIEM-SYM") == reference_sweep(ws, "RIEM-SYM", 32)

    def test_first_bianchi_matches_frame_sweep(self, geometry):
        ws = VectorWorkspace(geometry[0])
        assert direct_result(ws, "BIANCHI-1") == reference_sweep(ws, "BIANCHI-1", 32)

    @pytest.mark.parametrize("identity_id", sorted(HORIZONTAL_REFERENCES))
    def test_horizontal_identities_match_frame_sweep(self, geometry, identity_id):
        ws = VectorWorkspace(geometry[0])
        assert table_result(ws, identity_id) == reference_sweep(ws, identity_id, 32)

    @pytest.mark.parametrize("identity_id", sorted(NORMALITY_REFERENCES))
    def test_normality_identities_match_frame_sweep(self, geometry, identity_id):
        ws = VectorWorkspace(geometry[0])
        assert table_result(ws, identity_id) == reference_sweep(ws, identity_id, 32)

    def test_converted_identities_match_frame_sweep(self, geometry):
        ws = VectorWorkspace(geometry[0])
        for identity_id in CONVERTED_IDS:
            assert_tables_match_reference(ws, identity_id)
            assert (registry_identity(identity_id).direct is not None
                    or table_result(ws, identity_id) == reference_sweep(ws, identity_id, 32))

    def test_hor_slots_filter_the_comparison(self, geometry):
        # a `hor` identity's row is that of its clauses with every side
        # restricted to horizontal frame tuples by hand, then compared on
        # every key
        ws = Workspace(geometry[0])
        hor = ws.model.horizontal_indices
        for ident in REGISTRY:
            if ident.tables is None or "hor" not in ident.slots:
                continue
            assert set(ident.slots) == {"hor"}, ident.identity_id
            width = len(ident.slots)
            restricted = [(name, lhs.restrict(hor, width), rhs.restrict(hor, width))
                          for name, lhs, rhs in ident.tables(ws)]
            by_hand = Identity(ident.identity_id, ident.group, ("any",) * width,
                               tables=lambda _, clauses=restricted: clauses)
            assert _run_tables(ws, ident) == _run_tables(ws, by_hand)

    def test_normality_routes_match_reference_loops(self, geometry):
        ws = VectorWorkspace(geometry[0])
        report = check_normality(ws)
        assert report == ref_check_normality(ws)
        assert report == ref_check_normality(ws, 3, 7)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_suite_rows_equal_the_sampled_rows(self, geometry, seed):
        m = geometry[0]
        assert suite_tsv_rows(run_suite(m)) == sampled_suite_rows(m, 32, seed)

    def test_index_sweeps_match_product_order(self, geometry):
        _, _, rt = geometry
        assert riemann_symmetry_failures(rt) == product_order_riemann_symmetry_failure(rt)
        assert first_bianchi_failures(rt) == product_order_first_bianchi_failure(rt)


# ----- mutated models -----

BRACKET_LINES = [line for line in HEISENBERG_CCM.splitlines()
                 if line.startswith("bracket ")]


def _flip_sign(line: str) -> str:
    *head, value = line.split()
    return " ".join(head + [value[1:] if value.startswith("-") else f"-{value}"])


def _retarget(line: str) -> str:
    """Send the bracket into the horizontal span: the algebra stops being
    two-step nilpotent, and the Jacobi identity generally breaks."""
    keyword, i, j, _, value = line.split()
    return " ".join([keyword, i, j, str((int(j) + 1) % 4), value])


class TestMutatedModels:
    @pytest.mark.parametrize("line", BRACKET_LINES)
    def test_sign_flip_gives_the_same_jacobi_witness(self, line):
        m = load_model(HEISENBERG_CCM.replace(line, _flip_sign(line)))
        assert _jacobi_witness(m) == dense_jacobi_witness(m)

    def test_retargeted_brackets_give_the_same_jacobi_witness(self):
        witnesses = []
        for line in BRACKET_LINES:
            m = load_model(HEISENBERG_CCM.replace(line, _retarget(line)))
            witness = _jacobi_witness(m)
            assert witness == dense_jacobi_witness(m), line
            witnesses.append(witness)
        assert sum(w is not None for w in witnesses) >= 2, witnesses

    def test_non_antisymmetric_table_gives_the_same_jacobi_witness(self):
        base = build_heisenberg()
        c = dict(base.constants.items())
        c[(2, 0, 1)] = Fraction(3)           # only one of the pair (0,2), (2,0)
        raw = Table.from_values(6, 3, c)
        m = ManifoldModel("raw", 1, raw, base.G, base.H, base.J)
        witness = _jacobi_witness(m)
        assert witness is not None and witness == dense_jacobi_witness(m)

    @pytest.mark.parametrize("where", [(0, 2, 2, 0), (0, 1, 0, 1), (1, 3, 4, 5),
                                       (4, 5, 4, 5), (5, 4, 0, 1), (3, 1, 2, 0)])
    def test_bumped_curvature_gives_the_same_bianchi_witness(self, heisenberg,
                                                             heis_conn, heis_curv, where):
        bad = _bumped(heis_curv, pair_partner_bumps(where, Fraction(1)))
        found, _, value, _ = second_bianchi_failures(heisenberg, heis_conn, bad)
        assert found == dense_bianchi_failure(heisenberg, heis_conn, bad)
        assert value != 0
        assert value == dense_cyclic_sum(heisenberg, heis_conn, bad, *found)
        slab = second_bianchi_slab(heis_conn, bad, *found[:3])
        assert value == slab[found[3:]]
        for k, el in product(range(heisenberg.dim), repeat=2):
            assert (slab.get((k, el), ZERO)
                    == dense_cyclic_sum(heisenberg, heis_conn, bad, *found[:3], k, el)), (k, el)

    # Each break adds 1 to R(a, b, c, e) and to signed partner entries, so
    # that every symmetry clause before the named one still holds there.
    @pytest.mark.parametrize("clause,partners", [
        ("swap-first-pair", []),
        ("swap-second-pair", [((1, 0, 2, 3), -1)]),
        ("pair-exchange", [((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1), ((1, 0, 3, 2), 1)]),
    ])
    @pytest.mark.parametrize("where", [(0, 1, 2, 3), (5, 4, 1, 0), (3, 0, 5, 2)])
    def test_broken_symmetry_gives_the_same_riemann_witness(self, heisenberg, heis_curv,
                                                            clause, partners, where):
        bumps = {where: 1}
        for order, sign in partners:
            bumps[tuple(where[p] for p in order)] = sign

        def broken(*idx):
            return heis_curv.entry(*idx) + bumps.get(idx, 0)

        ws = VectorWorkspace(heisenberg)
        ws.curv = tensor4_from_function(heisenberg.dim, broken)
        result = direct_result(ws, "RIEM-SYM")
        assert result.status is Status.FAIL
        assert result == reference_sweep(ws, "RIEM-SYM", 32)
        assert (riemann_symmetry_failures(ws.curv)
                == product_order_riemann_symmetry_failure(ws.curv))
        if where == (0, 1, 2, 3):
            assert result.witness.startswith(f"slots=0,1,2,3 part={clause} ")


# ----- witnesses reached only through a rotation, a partner or an orbit -----

def _bumped(t: Table, bumps: dict[tuple[int, ...], int]) -> Table:
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


class TestCandidateWitnesses:
    """Each first failure is a tuple whose own entry is zero, so a sweep that
    read only the stored entries, or only one slab of an orbit, would
    report another tuple."""

    @pytest.mark.parametrize("bump", [(2, 4, 1, 3), (4, 1, 2, 3)])
    def test_first_bianchi_witness_is_a_rotation(self, heisenberg, heis_curv, bump):
        # either bump, with its partners under the pair swaps, first shows
        # at its rotation (1, 2, 4, 3)
        ws = VectorWorkspace(heisenberg)
        ws.curv = _bumped(heis_curv, pair_partner_bumps(bump, 1, exchange=False))
        assert ws.curv.entry(1, 2, 4, 3) == 0
        result = direct_result(ws, "BIANCHI-1")
        assert result.status is Status.FAIL
        assert result.witness == "slots=1,2,4,3 lhs=1 rhs=0"
        assert result == reference_sweep(ws, "BIANCHI-1", 32)
        assert first_bianchi_failures(ws.curv) == ((1, 2, 4, 3), "", 1, 0)
        assert first_bianchi_failures(ws.curv) == product_order_first_bianchi_failure(ws.curv)

    @pytest.mark.parametrize("bumps,where,clause", [
        ({(2, 0, 1, 4): 1}, (0, 2, 1, 4), "swap-first-pair"),
        ({(0, 2, 4, 1): 1}, (0, 2, 1, 4), "swap-second-pair"),
        ({(2, 3, 0, 4): 1, (3, 2, 0, 4): -1, (2, 3, 4, 0): -1, (3, 2, 4, 0): 1},
         (0, 4, 2, 3), "pair-exchange"),
    ])
    def test_riemann_symmetry_witness_is_a_partner(self, heisenberg, heis_curv,
                                                   bumps, where, clause):
        ws = VectorWorkspace(heisenberg)
        ws.curv = _bumped(heis_curv, bumps)
        assert ws.curv.entry(*where) == 0
        result = direct_result(ws, "RIEM-SYM")
        slots = ",".join(map(str, where))
        assert result.witness.startswith(f"slots={slots} part={clause} lhs=0 ")
        assert result == reference_sweep(ws, "RIEM-SYM", 32)
        assert (riemann_symmetry_failures(ws.curv)
                == product_order_riemann_symmetry_failure(ws.curv))

    # EQ-4.1 on the bundled model, where G and H act on horizontal frame
    # indices as signed permutations.  Each bump is a delta with its
    # partners under the pair swaps.  The first is its own G-pullback, so
    # the G clause holds everywhere; the second and third sit at zero
    # entries, and their first failure is the delta's own tuple (only the
    # rhs, R, is stored there) or its G-image (only the lhs, G*R, is).
    @pytest.mark.parametrize("bumps,where,clause,witness", [
        (pair_partner_bumps((1, 3, 0, 2), 2, exchange=False), (0, 2, 1, 3), "H",
         "slots=0,2,1,3 part=H lhs=1 rhs=-1"),
        (pair_partner_bumps((0, 1, 0, 2), 1, exchange=False), (0, 1, 0, 2), "G",
         "slots=0,1,0,2 part=G lhs=0 rhs=1"),
        (pair_partner_bumps((2, 3, 0, 2), 1, exchange=False), (0, 1, 0, 2), "G",
         "slots=0,1,0,2 part=G lhs=-1 rhs=0"),
    ])
    def test_pulled_back_curvature_witness(self, heisenberg, heis_curv, bumps, where,
                                           clause, witness):
        ws = VectorWorkspace(heisenberg)
        ws.curv = _bumped(heis_curv, bumps)
        result = table_result(ws, "EQ-4.1")
        assert result.status is Status.FAIL
        assert result.witness == witness
        assert result == reference_sweep(ws, "EQ-4.1", 32)
        # an entry the witness prints as 0 is not stored in its quarter side
        assert on_quarter(where)
        lhs = ws.curv_side(clause, True)
        assert (where in dict(lhs.items())) == (" lhs=0 " not in witness)
        assert (where in dict(ws.curv_side("R", True).items())) == (not witness.endswith(" rhs=0"))
        if clause == "H":
            assert ws.curv_side("G", True) == ws.curv_side("R", True)
            assert where not in bumps

    # Single bumps of the bundled connection (kind "conn", a gamma index) or
    # of one structure tensor (an (input, output) index); each first failure
    # is reachable one way only, named by the test.
    @staticmethod
    def _bumped_normality(kind: str, idx: tuple[int, ...]) -> Workspace:
        m = build_heisenberg()
        if kind == "conn":
            ws = VectorWorkspace(m)
            ws.conn = _bumped(ws.conn, {idx: 1})
            return ws
        tensors = {"G": m.G, "H": m.H, "J": m.J, kind: _bumped(getattr(m, kind), {idx: 1})}
        return VectorWorkspace(ManifoldModel(m.name, m.n, m.constants, **tensors))

    @pytest.mark.parametrize("kind,idx,witness", [
        ("conn", (5, 4, 5), "H slots=4,0,3 lhs=0 rhs=1"),
        ("H", (4, 0), "H slots=0,2,0 lhs=1 rhs=0"),
    ])
    def test_prop21_witness_only_through_H(self, kind, idx, witness):
        ws = self._bumped_normality(kind, idx)
        report = check_normality(ws)
        assert report.prop21.witness == witness
        assert ws.nabla_G == ws.prop21_G
        assert report == ref_check_normality(ws)

    @pytest.mark.parametrize("idx,witness", [
        ((0, 2, 0), "T slots=0,1 lhs=-1:3 rhs=0"),
        ((0, 5, 0), "T(.,V) slots=0,5 lhs=-1:0 rhs=0"),
    ])
    def test_korkmaz_witness_only_through_T(self, idx, witness):
        ws = self._bumped_normality("conn", idx)
        m = ws.model
        report = check_normality(ws)
        assert report.korkmaz.witness == witness
        assert ws.obstruction_S.restrict(m.horizontal_indices, 2).is_zero()
        assert ws.obstruction_S.fix(1, m.U_index).is_zero()
        assert report == ref_check_normality(ws)

    def test_korkmaz_witness_only_in_the_vertical_phase(self):
        ws = self._bumped_normality("conn", (1, 4, 0))
        m = ws.model
        report = check_normality(ws)
        assert report.korkmaz.witness == "S(.,U) slots=1,4 lhs=-1:0 rhs=0"
        for t in (ws.obstruction_S, ws.obstruction_T):
            assert t.restrict(m.horizontal_indices, 2).is_zero()
        assert report == ref_check_normality(ws)

    def test_thm45_witness_is_the_first_clause_whose_row_differs(self):
        # at the witness pair (0, 0), H's row differs at a smaller output
        # index than G's; a per-key minimum would report H
        ws = self._bumped_normality("conn", (0, 0, 1))
        report = check_normality(ws)
        assert report.thm45.witness == "G slots=0,0 lhs=-1:3,1:4 rhs=1:4"

        def first_k(lhs, rhs):
            return min(k for k in range(ws.model.dim)
                       if lhs.entry(0, 0, k) != rhs.entry(0, 0, k))
        assert first_k(ws.nabla_H, ws.thm45_H) < first_k(ws.nabla_G, ws.thm45_G)
        assert report == ref_check_normality(ws)
        assert (table_result(ws, "EQ-4.12")
                == reference_sweep(ws, "EQ-4.12"))

    @pytest.mark.parametrize("idx,witness,stored", [
        ((0, 2, 4), "G slots=0,0,4 lhs=0 rhs=1", "rhs"),
        ((0, 0, 0), "G slots=0,0,2 lhs=1 rhs=0", "lhs"),
    ])
    def test_prop21_witness_stored_on_one_side(self, idx, witness, stored):
        ws = self._bumped_normality("conn", idx)
        report = check_normality(ws)
        assert report.prop21.witness == witness
        where = tuple(int(i) for i in witness.split()[1][len("slots="):].split(","))
        assert (where in dict(ws.nabla_G.items())) == (stored == "lhs")
        assert (where in dict(ws.prop21_G.items())) == (stored == "rhs")
        assert report == ref_check_normality(ws)
        result = table_result(ws, "EQ-2.4")
        assert result.witness == "slots=" + witness.split("slots=")[1]
        assert result == reference_sweep(ws, "EQ-2.4", 32)

    # Single-entry bumps of one table of the bundled model, each failing
    # only through a later clause, or in a vector-valued row only at a later
    # output index, than a first-clause or first-entry check would see.
    @pytest.mark.parametrize("identity_id,attr,bumps,witness", [
        ("EQ-2.12", "curv", pair_partner_bumps((0, 5, 5, 1), 1, exchange=False),
         "slots=0 part=V lhs=1:0,1:1 rhs=1:0"),
        # the delta and its G-pullback: the G clause holds everywhere
        ("EQ-5.1", "rho", {(0, 0): 1, (2, 2): 1}, "slots=0,0 part=H lhs=-4 rhs=-3"),
        ("EQ-3.2-BLOCK", "nVJ", {(1, 5): 1}, "slots=1 part=JV.V lhs=1 rhs=0"),
        ("EQ-4.7", "curv", pair_partner_bumps((0, 1, 4, 5), 1, exchange=False),
         "slots=0,1 lhs=3:5 rhs=2:5"),
        ("EQ-4.14", "nabla_J", {(1, 2, 5): 1}, "slots=1,2 lhs=1:5 rhs=0"),
    ], ids=["EQ-2.12", "EQ-5.1", "EQ-3.2-BLOCK", "EQ-4.7", "EQ-4.14"])
    def test_later_clause_witness(self, heisenberg, identity_id, attr, bumps, witness):
        ws = VectorWorkspace(heisenberg)
        setattr(ws, attr, _bumped(getattr(ws, attr), bumps))
        result = table_result(ws, identity_id)
        assert result.witness == witness
        assert result == reference_sweep(ws, identity_id, 32)
        ident = registry_identity(identity_id)
        clauses = ident.tables(ws)
        if len(clauses) > 1:
            name = witness.split(" part=")[1].split()[0]
            others = [c for c in clauses if c[0] != name]
            keep = heisenberg.horizontal_indices if "hor" in ident.slots else None
            assert first_table_failure(others, len(ident.slots), keep) is None

    def test_vertical_bump_reaches_the_full_form_only(self, heisenberg):
        # R(X, U)U bumped at X = V: EQ-4.2 compares it, and EQ-2.12, whose U
        # clause is EQ-4.2's on a `hor` slot, does not
        plain, ws = VectorWorkspace(heisenberg), VectorWorkspace(heisenberg)
        ws.curv = _bumped(ws.curv, pair_partner_bumps((5, 4, 4, 0), 1, exchange=False))
        assert table_result(plain, "EQ-4.2").status is Status.PASS
        assert table_result(ws, "EQ-4.2").witness == "slots=5 lhs=1:0 rhs=0"
        assert table_result(ws, "EQ-2.12") == table_result(plain, "EQ-2.12")
        assert table_result(ws, "EQ-2.12").status is Status.PASS
        for identity_id in ("EQ-2.12", "EQ-4.2"):
            assert table_result(ws, identity_id) == reference_sweep(ws, identity_id, 32)

    def test_second_bianchi_witness_comes_from_a_rotated_term(self, heisenberg,
                                                              heis_conn, heis_curv):
        # the bump at (0, 4, 1, 0), with its pair partners, first breaks the
        # slab (0, 1, 3), and there only through the rotated terms:
        # nabla_0 R(e_1, e_3) is zero at (0, 1)
        bad = _bumped(heis_curv, pair_partner_bumps((0, 4, 1, 0), 1))
        found, _, value, _ = second_bianchi_failures(heisenberg, heis_conn, bad)
        assert found == (0, 1, 3, 0, 1)
        assert found == dense_bianchi_failure(heisenberg, heis_conn, bad)
        own: dict = {}
        add_nabla_r(own, heis_conn, bad, 0, 1, 3)
        assert not own.get((0, 1))
        assert value != 0
        assert value == second_bianchi_cyclic_sum(heis_conn, bad, *found)
        assert value == dense_cyclic_sum(heisenberg, heis_conn, bad, *found)


def dense_second_bianchi(ws: Workspace) -> CheckResult:
    """The BIANCHI-2 row from the exhaustive dense sweep and sum."""
    where = dense_bianchi_failure(ws.model, ws.conn, ws.curv)
    if where is None:
        return CheckResult("BIANCHI-2", Status.PASS)
    return CheckResult("BIANCHI-2", Status.FAIL, render_witness(
        ",".join(map(str, where)), "",
        dense_cyclic_sum(ws.model, ws.conn, ws.curv, *where), ZERO))


class TestRationalBumps:
    """The bundled model's connection and curvature are integral, so both
    dens are 1.  A bump of R by 1/3 and of the connection by 1/5 gives the
    two tables coprime dens, and every failing row must still be the
    reference row, printing the non-integral value the reference's
    Fraction arithmetic gives.  The R bump keeps its partners under the
    pair swaps but not the pair exchange, so RIEM-SYM fails too."""

    @pytest.mark.parametrize("r_bump,conn_bump,failing,witness", [
        (Fraction(1, 3), None, ("RIEM-SYM", "BIANCHI-1", "BIANCHI-2"),
         "slots=0,1,2,0,1 lhs=-1/3 rhs=0"),
        (None, Fraction(1, 5), ("BIANCHI-2",), "slots=0,1,2,0,1 lhs=3/5 rhs=0"),
        (Fraction(1, 3), Fraction(1, 5), ("RIEM-SYM", "BIANCHI-1", "BIANCHI-2"),
         "slots=0,1,2,0,1 lhs=4/15 rhs=0"),
    ], ids=["curvature", "connection", "both"])
    def test_rows_equal_the_reference_rows(self, heisenberg, heis_conn, heis_curv,
                                           r_bump, conn_bump, failing, witness):
        ws = VectorWorkspace(heisenberg)
        if r_bump is not None:
            ws.curv = _bumped(heis_curv, pair_partner_bumps((0, 1, 0, 5), r_bump, exchange=False))
        if conn_bump is not None:
            ws.conn = _bumped(heis_conn, {(0, 0, 2): conn_bump})
        rows = {i: direct_result(ws, i) for i in ("RIEM-SYM", "BIANCHI-1", "BIANCHI-2")}
        assert rows["RIEM-SYM"] == reference_sweep(ws, "RIEM-SYM", 32)
        assert rows["BIANCHI-1"] == reference_sweep(ws, "BIANCHI-1", 32)
        assert rows["BIANCHI-2"] == dense_second_bianchi(ws)
        assert rows["BIANCHI-2"].witness == witness
        for identity_id, result in rows.items():
            assert (result.status is Status.FAIL) == (identity_id in failing)
            if result.status is Status.FAIL:
                lhs = result.witness.split(" lhs=")[1].split()[0]
                assert "/" in lhs, result.witness
        if r_bump is not None:
            assert (riemann_symmetry_failures(ws.curv)
                    == product_order_riemann_symmetry_failure(ws.curv))
            assert first_bianchi_failures(ws.curv) == product_order_first_bianchi_failure(ws.curv)


# ----- BIANCHI-2 on its antisymmetric quarter -----

def _draw_bump(rng: random.Random, dim: int, kind: str) -> tuple[tuple[int, ...], Fraction]:
    """A position for a bump of `kind` ("R", a pair-partner bump with i != j
    and k != l; "conn", a gamma index; "single", any R index), and a
    nonzero p/q."""
    if kind == "R":
        where = (*rng.sample(range(dim), 2), *rng.sample(range(dim), 2))
    else:
        where = tuple(rng.randrange(dim) for _ in range(3 if kind == "conn" else 4))
    return where, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


@contextmanager
def slab_kernel_calls():
    """Every BIANCHI-2 slab built in the block, in order, as (triple, slab
    numerators)."""
    calls: list[tuple[tuple[int, ...], dict]] = []
    kernel = curvature._regrouped_slab

    def counted(*args):
        calls.append((args[-3:], kernel(*args)))
        return calls[-1][1]

    curvature._regrouped_slab = counted
    try:
        yield calls
    finally:
        curvature._regrouped_slab = kernel


class TestQuarterSweep:
    """BIANCHI-2 builds only the slabs with s < a < b and the entries with
    k < l, on an R antisymmetric in each pair.  Its result must be the
    exhaustive dense sweep's on tables where the identity fails, and an R
    that breaks a pair must fail RIEM-SYM."""

    @pytest.mark.parametrize("kind", ["R", "conn"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_quarter_sweep_gives_the_full_and_dense_witness(self, name, kind):
        m = MODELS[name]()
        rng = random.Random(f"quarter:{name}:{kind}")
        for _ in range(12):
            ws = Workspace(m)
            where, delta = _draw_bump(rng, m.dim, kind)
            if kind == "R":
                ws.curv = _bumped(ws.curv, pair_partner_bumps(where, delta))
            else:
                ws.conn = _bumped(ws.conn, {where: delta})
            assert riemann_symmetry_failures(ws.curv) is None, where
            found = second_bianchi_failures(m, ws.conn, ws.curv)
            assert found is not None, where
            assert found[0] == dense_bianchi_failure(m, ws.conn, ws.curv), where
            with slab_kernel_calls() as calls:
                result = direct_result(ws, "BIANCHI-2")
            assert calls
            assert result == dense_second_bianchi(ws), where

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_broken_pair_symmetry_fails_riem_sym(self, name):
        # a bump without its partners breaks a pair, which the quarter
        # sweeps require; RIEM-SYM reports it with the reference witness
        m = MODELS[name]()
        rng = random.Random(f"broken:{name}")
        for _ in range(8):
            ws = VectorWorkspace(m)
            where, delta = _draw_bump(rng, m.dim, "single")
            ws.curv = _bumped(ws.curv, {where: delta})
            rt = ws.curv
            assert (rt.keyed((1, 0, 2, 3), -1)[0] != rt.entries
                    or rt.keyed((0, 1, 3, 2), -1)[0] != rt.entries), where
            found = riemann_symmetry_failures(rt)
            assert found is not None, where
            assert found == product_order_riemann_symmetry_failure(rt), where
            result = direct_result(ws, "RIEM-SYM")
            assert result.status is Status.FAIL
            assert result == reference_sweep(ws, "RIEM-SYM"), where

    def test_quarter_sweep_misses_a_repeated_index_witness(self, heisenberg, heis_curv,
                                                           heis_conn):
        # the precondition: a bump without its partners breaks RIEM-SYM and
        # fails first at a repeated index, a slab the quarter sweep never
        # builds, so the sweep reports another tuple than the dense one
        bad = _bumped(heis_curv, {(0, 1, 2, 3): Fraction(1, 3)})
        assert riemann_symmetry_failures(bad) is not None
        dense = dense_bianchi_failure(heisenberg, heis_conn, bad)
        assert dense == (0, 0, 1, 2, 5)
        assert second_bianchi_failures(heisenberg, heis_conn, bad)[0] != dense

    def test_quarter_sweep_builds_its_slab_count(self):
        # heis-n2 passes BIANCHI-2, so every slab is built: C(10, 3) = 120
        m = make_heisenberg_model(2)
        ws = Workspace(m)
        with slab_kernel_calls() as calls:
            assert direct_result(ws, "BIANCHI-2").status is Status.PASS
        assert [triple for triple, _ in calls] == list(combinations(range(10), 3))


# ----- EQ-2.20, EQ-2.21, EQ-4.1 and BIANCHI-1 on the pair-antisymmetric quarter -----

QUARTER_IDS = ("EQ-2.20", "EQ-2.21", "EQ-4.1")


def on_quarter(key: tuple[int, ...]) -> bool:
    return key[0] < key[1] and key[2] < key[3]


def takes_the_quarter(ws: VectorWorkspace, identity_id: str) -> bool:
    """Whether EQ-2.20, EQ-2.21 or EQ-4.1 compares its sides on the keys
    i < j, k < l only: always for EQ-4.1, and for EQ-2.20 and EQ-2.21 when
    the four rank-2 factors of the right-hand side are antisymmetric on
    horizontal frame vectors, read by the per-vector evaluators."""
    if identity_id == "EQ-4.1":
        return True
    a, b = (ws.G, ws.H) if identity_id == "EQ-2.20" else (ws.H, ws.G)
    factors = [ws.dsig, lambda x, y: ws.J(x).contract(y), lambda x, y: b(x).contract(y),
               lambda x, y: ws.dsig(a(x), y)]
    e = ws.basis
    return all(f(e[i], e[j]) == -f(e[j], e[i]) for f in factors
               for i, j in product(ws.model.horizontal_indices, repeat=2))


def full_build_row(ws: Workspace, identity_id: str) -> CheckResult:
    """The row of EQ-2.20, EQ-2.21 or EQ-4.1 with every side built on every
    horizontal key: R restricted, its pullbacks through every slot, and the
    right-hand side from the whole rank-2 factors."""
    m, hor = ws.model, ws.model.horizontal_indices
    r = ws.curv.restrict(hor)
    pulled = {a: ws.curv.pullback(getattr(m, a), range(4), hor) for a in "GH"}
    if identity_id == "EQ-4.1":
        clauses = [(a, pulled[a], r) for a in "GH"]
    else:
        a, b = ("G", "H") if identity_id == "EQ-2.20" else ("H", "G")
        ds, form_j, form_b = (t.restrict(hor) for t in (ws.dsigma, m.J, getattr(m, b)))
        ds_a = ws.dsigma.pullback(getattr(m, a), (0,), hor)
        clauses = [("", pulled[a], r.add([(-2, ds.tensor(form_j)), (2, form_b.tensor(ds_a)),
                                           (2, form_j.tensor(ds)), (-2, ds_a.tensor(form_b))]))]
    ident = registry_identity(identity_id)
    return _run_tables(ws, Identity(identity_id, ident.group, ident.slots,
                                    tables=lambda _: clauses))


@st.composite
def pair_antisymmetric_pullbacks(draw):
    """(table, endomorphism, keep): a random sparse 4-tensor of dim 2-5,
    antisymmetric in its first pair, with entries p/q, and an endomorphism
    with more than one nonzero in a row and in a column, so that one output
    is reached from two inputs; the primes 2, 3, 5 and 7 are split between
    the two, so their dens are coprime."""
    dim = draw(st.integers(2, 5))
    index = st.integers(0, dim - 1)
    primes = draw(st.permutations([2, 3, 5, 7]))
    values = draw(st.dictionaries(st.tuples(index, index, index, index),
                                  ratios([1, *primes[:2]]), max_size=8))
    table: dict = {}
    for (i, j, k, el), a in values.items():
        if i != j:
            table[i, j, k, el] = table.get((i, j, k, el), ZERO) + a
            table[j, i, k, el] = table.get((j, i, k, el), ZERO) - a
    endo = draw(st.dictionaries(st.tuples(index, index), ratios([1, *primes[2:]]), max_size=5))
    i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    endo.update({(i, i): draw(ratios(primes[2:])), (i, j): draw(ratios([1])),
                 (j, i): draw(ratios([1]))})
    keep = range(draw(st.integers(1, dim)))
    return Table.from_values(dim, 4, table), Table.from_values(dim, 2, endo), keep


@given(pair_antisymmetric_pullbacks())
@settings(max_examples=80, deadline=None)
def test_quarter_pullback_is_the_dense_pullback_restricted(case):
    t, endo, keep = case
    dense = dense_pullback(t, endo, range(4), keep)
    assert (dict(horizontal_curvature(t, endo, keep, True).items())
            == {key: value for key, value in dense.items() if on_quarter(key)})
    assert dict(horizontal_curvature(t, endo, keep, False).items()) == dense
    restricted = {key: value for key, value in t.items() if all(i in keep for i in key)}
    assert (dict(horizontal_curvature(t, None, keep, True).items())
            == {key: value for key, value in restricted.items() if on_quarter(key)})


class TestPairQuarter:
    """The pullbacks and R on horizontal keys are built on the quarter
    i < j, k < l only, and EQ-4.1, and EQ-2.20 and EQ-2.21 where their
    rank-2 factors are antisymmetric, compare the quarter; so does
    BIANCHI-1 on its first three indices.  Every row must be the full
    build's and the product-order sweep's, on tables where the identities
    fail."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_quarter_pullback_is_the_full_pullback_restricted(self, name):
        m = MODELS[name]()
        rt, hor = Workspace(m).curv, m.horizontal_indices
        for endo in (None, m.G, m.H):
            full = rt.restrict(hor) if endo is None else rt.pullback(endo, range(4), hor)
            assert (dict(horizontal_curvature(rt, endo, hor, True).items())
                    == {key: value for key, value in full.items() if on_quarter(key)})
            assert horizontal_curvature(rt, endo, hor, False) == full

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_equal_the_full_build_under_pair_partner_bumps(self, name):
        m = MODELS[name]()
        rng = random.Random(f"pair-quarter:{name}")
        failing = 0
        for _ in range(8):
            ws = VectorWorkspace(m)
            where, delta = _draw_bump(rng, m.dim, "R")
            ws.curv = _bumped(ws.curv, pair_partner_bumps(where, delta))
            for identity_id in QUARTER_IDS:
                quarter = takes_the_quarter(ws, identity_id)
                # two-step's J and G are not skew, so EQ-2.20 and EQ-2.21 build in full
                assert quarter == (identity_id == "EQ-4.1" or name != "two-step")
                keys = [key for _, lhs, rhs in ws.clauses(registry_identity(identity_id).tables)
                        for key in chain(lhs.entries, rhs.entries)]
                assert all(map(on_quarter, keys)) == quarter, identity_id
                row = table_result(ws, identity_id)
                assert row == full_build_row(ws, identity_id), (where, identity_id)
                failing += row.status is Status.FAIL
        assert failing

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_first_bianchi_quarter_under_pair_partner_bumps(self, name):
        m = MODELS[name]()
        rng = random.Random(f"first-bianchi:{name}")
        failing = 0
        for _ in range(12):
            ws = VectorWorkspace(m)
            where, delta = _draw_bump(rng, m.dim, "R")
            ws.curv = _bumped(ws.curv, pair_partner_bumps(where, delta))
            found = first_bianchi_failures(ws.curv)
            assert found == product_order_first_bianchi_failure(ws.curv), where
            failing += found is not None
        assert failing

    @pytest.mark.parametrize("kind", ["R", "conn"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_regrouped_slabs_equal_the_reference_slabs(self, name, kind):
        # every slab the quarter sweep builds, up to its first failure, is
        # the reference slab's entries k < l, not only the witness
        m = MODELS[name]()
        ws = Workspace(m)
        where, delta = _draw_bump(random.Random(f"slabs:{name}:{kind}"), m.dim, kind)
        if kind == "R":
            ws.curv = _bumped(ws.curv, pair_partner_bumps(where, delta))
        else:
            ws.conn = _bumped(ws.conn, {where: delta})
        with slab_kernel_calls() as slabs:
            second_bianchi_failures(m, ws.conn, ws.curv)
        assert slabs
        den = ws.conn.den * ws.curv.den
        for triple, slab in slabs:
            reference = second_bianchi_slab(ws.conn, ws.curv, *triple)
            assert ({key: Fraction(total, den) for key, total in slab.items() if total}
                    == {key: value for key, value in reference.items()
                        if value and key[0] < key[1]}), triple


# ----- the curvature sweeps on random sparse tensors -----

small_values = st.integers(-3, 3).filter(bool).map(Fraction)


def algebraic_part(dim: int, values: dict) -> dict:
    """Project a 4-tensor onto the tensors with the Riemann symmetries: the
    average over the pair swaps and the pair exchange, minus a third of
    its cyclic sum (which is then alternating)."""
    t = {}
    for (i, j, k, el), a in values.items():
        for idx, sign in (((i, j, k, el), 1), ((j, i, k, el), -1),
                          ((i, j, el, k), -1), ((j, i, el, k), 1)):
            for key in (idx, idx[2:] + idx[:2]):
                t[key] = t.get(key, ZERO) + Fraction(sign, 8) * a
    r = t.get
    return {(i, j, k, el): r((i, j, k, el), ZERO)
            - (r((i, j, k, el), ZERO) + r((j, k, i, el), ZERO) + r((k, i, j, el), ZERO)) / 3
            for i, j, k, el in product(range(dim), repeat=4)}


@st.composite
def sparse_curvature(draw):
    """(dim, connection, curvature, clean): random sparse tables of dim 2-5;
    half the curvature tensors are projected onto the Riemann symmetries,
    and `clean` marks those left unbumped."""
    dim = draw(st.integers(2, 5))
    index = st.integers(0, dim - 1)
    values = draw(st.dictionaries(st.tuples(index, index, index, index), small_values,
                                  max_size=6))
    clean = False
    if draw(st.booleans()):
        values = algebraic_part(dim, values)
        bump = draw(st.none() | st.tuples(index, index, index, index))
        if bump is None:
            clean = True
        else:
            values[bump] = values.get(bump, ZERO) + 1
    gamma = draw(st.dictionaries(st.tuples(index, index, index), small_values, max_size=5))
    return (dim, Table.from_values(dim, 3, gamma),
            Table.from_values(dim, 4, values), clean)


def pair_antisymmetric_part(t: Table) -> Table:
    """4 times the part of a 4-tensor antisymmetric in each pair: each
    entry added with its partners under the pair swaps, which is 4t where
    t has that symmetry already; no den is added."""
    values: dict = {}
    for idx, a in t.items():
        for key, b in pair_partner_bumps(idx, a, exchange=False).items():
            values[key] = values.get(key, ZERO) + b
    return Table.from_values(t.dim, 4, values)


def assert_sweeps_match_references(case) -> None:
    """The three sweeps find the product-order and dense first failures,
    and the BIANCHI-2 witness value is the dense cyclic sum there.  RIEM-SYM
    reads the drawn tensor; the Bianchi sweeps, which require R to be
    antisymmetric in each pair, read its pair-antisymmetric part."""
    dim, conn, raw, clean = case
    sym = riemann_symmetry_failures(raw)
    assert sym == product_order_riemann_symmetry_failure(raw)
    rt = pair_antisymmetric_part(raw)
    first = first_bianchi_failures(rt)
    assert first == product_order_first_bianchi_failure(rt)
    if clean:
        assert sym is None and first is None
    # the sweeps read only the frame dimension of the model
    model = SimpleNamespace(dim=dim)
    failure = second_bianchi_failures(model, conn, rt)
    assert (failure and failure[0]) == dense_bianchi_failure(model, conn, rt)
    if failure is not None:
        found, clause, value, rhs = failure
        assert (clause, rhs) == ("", 0)
        assert value != 0
        assert value == second_bianchi_cyclic_sum(conn, rt, *found)
        assert value == dense_cyclic_sum(model, conn, rt, *found)


@given(sparse_curvature())
@settings(max_examples=150, deadline=None)
def test_curvature_sweeps_match_product_order(case):
    assert_sweeps_match_references(case)


def ratios(denominators) -> st.SearchStrategy:
    """Nonzero p/q with 0 < |p| <= 3 and q drawn from `denominators`."""
    return st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.sampled_from(denominators))


@st.composite
def rational_curvature(draw):
    """(dim, connection, curvature, clean) as in `sparse_curvature`, with
    entries p/q for q in {1, 2, 3, 5, 7}.  The primes 2, 3, 5 and 7 are
    split between the two tables, so the connection and the curvature
    have different, coprime dens."""
    dim = draw(st.integers(2, 5))
    index = st.integers(0, dim - 1)
    primes = draw(st.permutations([2, 3, 5, 7]))
    cut = draw(st.integers(1, 3))
    gamma_values, r_values = ratios([1, *primes[:cut]]), ratios([1, *primes[cut:]])
    values = draw(st.dictionaries(st.tuples(index, index, index, index), r_values,
                                  max_size=6))
    clean = False
    if draw(st.booleans()):
        values = algebraic_part(dim, values)
        bump = draw(st.none() | st.tuples(index, index, index, index))
        if bump is None:
            clean = True
        else:
            values[bump] = values.get(bump, ZERO) + draw(r_values)
    gamma = draw(st.dictionaries(st.tuples(index, index, index), gamma_values,
                                 min_size=1, max_size=5))
    return (dim, Table.from_values(dim, 3, gamma),
            Table.from_values(dim, 4, values), clean)


@given(rational_curvature())
@settings(max_examples=150, deadline=None)
def test_curvature_sweeps_match_product_order_on_rational_tables(case):
    assert_sweeps_match_references(case)


@st.composite
def bracket_models(draw):
    """A model of n = 1 or 2 whose brackets are a random antisymmetric
    table with entries p/q, the Jacobi identity not required; G, H and J
    are the block-diagonal Heisenberg model's, which R does not read."""
    base = make_heisenberg_model(draw(st.integers(1, 2)))
    index = st.integers(0, base.dim - 1)
    keys = st.tuples(index, index, index).filter(lambda key: key[0] < key[1])
    brackets = draw(st.dictionaries(keys, ratios([1, 2, 3, 5]), min_size=1, max_size=12))
    return ManifoldModel("random-brackets", base.n, structure_constants(base.dim, brackets),
                         base.G, base.H, base.J)


@given(bracket_models())
@settings(max_examples=60, deadline=None)
def test_riemann_is_antisymmetric_in_each_pair(m):
    # the precondition of the quarter sweeps, on any antisymmetric bracket
    # table; the pair exchange needs the Jacobi identity, and is not asserted
    rt = riemann(m, levi_civita(m))
    assert rt.keyed((1, 0, 2, 3), -1)[0] == rt.entries
    assert rt.keyed((0, 1, 3, 2), -1)[0] == rt.entries


# ----- the table equations on random models and random tables -----

@st.composite
def two_step_models(draw):
    """Random two-step nilpotent model of dim 6 with random sparse G, H, J.

    The brackets map the span of A = {0, 1, U, V} into Z = {2, 3}, so the
    Jacobi identity holds.  [U, V] and [e_0, e_1] both have an e_2
    component, so sigma(e_2) is nonzero; draws where the e_3 components
    cancel dsigma(e_0, e_1) are rejected, so the dsigma terms of EQ-2.20
    and EQ-2.21 take part.  G, H and J are not
    signed permutations: one input has two image coefficients and one
    output coefficient is reached from two inputs.
    """
    a_pairs = [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    brackets = draw(st.dictionaries(
        st.tuples(st.sampled_from(a_pairs), st.sampled_from([2, 3])).map(
            lambda pair: (*pair[0], pair[1])), small_values, max_size=6))
    brackets[(0, 1, 2)] = draw(small_values)
    brackets[(4, 5, 2)] = draw(small_values)
    # sigma(e_k) = -c(U, V, k) / 2, so dsigma(e_0, e_1) = sum_k c(0, 1, k) c(U, V, k) / 4
    assume(sum(brackets.get((0, 1, k), 0) * brackets.get((4, 5, k), 0) for k in (2, 3)))
    index = st.integers(0, 5)

    def endomorphism():
        values = draw(st.dictionaries(st.tuples(index, index), small_values, max_size=8))
        i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        values.update({(i, i): draw(small_values), (i, j): draw(small_values),
                       (j, i): draw(small_values)})
        return Table.from_values(6, 2, values)

    return ManifoldModel("two-step", 1, structure_constants(6, brackets),
                         endomorphism(), endomorphism(), endomorphism())


@given(two_step_models())
@settings(max_examples=15, deadline=None)
def test_horizontal_tables_match_reference_evaluators(m):
    # entry by entry on every horizontal tuple an identity's sides are built
    # on, not only at the witness: the quarter i < j, k < l where it takes
    # the quarter path, and no key stored off it; every one where it does not
    assert _jacobi_witness(m) is None
    ws = VectorWorkspace(m)
    assert ws.horizontal(ws.dsigma).entry(0, 1) != 0
    for identity_id, reference in sorted(HORIZONTAL_REFERENCES.items()):
        clauses = registry_identity(identity_id).tables(ws)
        quarter = takes_the_quarter(ws, identity_id)
        for idx in product(m.horizontal_indices, repeat=4):
            if quarter and not (idx[0] < idx[1] and idx[2] < idx[3]):
                assert all(idx not in lhs.entries and idx not in rhs.entries
                           for _, lhs, rhs in clauses), (identity_id, idx)
                continue
            expected = reference(ws, tuple(ws.basis[i] for i in idx))
            assert [(name, lhs.entry(*idx), rhs.entry(*idx))
                    for name, lhs, rhs in clauses] == expected, (identity_id, idx)
        assert (table_result(ws, identity_id)
                == reference_sweep(ws, identity_id, 2)), identity_id


@given(two_step_models())
@settings(max_examples=15, deadline=None)
def test_normality_tables_match_reference_formulas(m):
    # entry by entry on every frame tuple: the structure tensors are not
    # signed permutations, so no AX-* identity holds to lean on
    assert _jacobi_witness(m) is None
    ws = VectorWorkspace(m)
    b, d = ws.basis, m.dim
    vectors = {"nabla_G": lambda x, y: ref_cov(ws, ws.G, x, y),
               "nabla_H": lambda x, y: ref_cov(ws, ws.H, x, y),
               "nabla_J": lambda x, y: ref_cov(ws, ws.J, x, y),
               "torsion_G": lambda x, y: ref_nijenhuis(ws, "G", x, y),
               "torsion_H": lambda x, y: ref_nijenhuis(ws, "H", x, y),
               "obstruction_S": lambda x, y: ref_tensor_S(ws, x, y),
               "obstruction_T": lambda x, y: ref_tensor_T(ws, x, y),
               "thm45_G": lambda x, y: ref_thm45_rhs_G(ws, x, y),
               "thm45_H": lambda x, y: ref_thm45_rhs_H(ws, x, y)}
    for i, j in product(range(d), repeat=2):
        for name, reference in vectors.items():
            assert getattr(ws, name).row(i, j) == reference(b[i], b[j]), (name, i, j)
        for k in range(d):
            assert ws.prop21_G.entry(i, j, k) == ref_prop21_rhs_G(ws, b[i], b[j], b[k])
            assert ws.prop21_H.entry(i, j, k) == ref_prop21_rhs_H(ws, b[i], b[j], b[k])
    for name, a, w in (("nUG", ws.G, m.U), ("nVG", ws.G, m.V), ("nUH", ws.H, m.U),
                       ("nVH", ws.H, m.V), ("nUJ", ws.J, m.U), ("nVJ", ws.J, m.V)):
        assert all(getattr(ws, name).row(j) == ref_cov(ws, a, w, b[j]) for j in range(d)), name
    for identity_id, reference in sorted(NORMALITY_REFERENCES.items()):
        clauses = registry_identity(identity_id).tables(ws)
        for idx in product(range(d), repeat=NORMALITY_SLOTS[identity_id]):
            side = (Table.entry if len(idx) == 3 else Table.row)
            assert ([(name, side(lhs, *idx), side(rhs, *idx)) for name, lhs, rhs in clauses]
                    == reference(ws, tuple(b[i] for i in idx))), (identity_id, idx)
        assert (table_result(ws, identity_id)
                == reference_sweep(ws, identity_id, 2)), identity_id
    assert check_normality(ws) == ref_check_normality(ws, samples=2)


def side_values(t: Table, width: int):
    """A side's value at each frame tuple: entries read from the stored keys,
    or rows."""
    if t.rank == width:
        stored = dict(t.items())
        return lambda idx: stored.get(idx, ZERO)
    return lambda idx: t.row(*idx)


def assert_tables_match_reference(ws: VectorWorkspace, identity_id: str) -> None:
    """Entry by entry, or row by row, on every frame tuple of the slot
    ranges, not only at the witness; then the rows."""
    slots, reference = REFERENCES[identity_id]
    m, ident = ws.model, registry_identity(identity_id)
    if ident.direct is not None:
        assert ident.direct(ws) == reference_sweep(ws, identity_id), identity_id
        return
    sides = [(name, side_values(lhs, len(slots)), side_values(rhs, len(slots)))
             for name, lhs, rhs in ident.tables(ws)]
    ranges = [m.horizontal_indices if kind == "hor" else range(m.dim) for kind in slots]
    for idx in product(*ranges):
        expected = reference(ws, tuple(ws.basis[i] for i in idx))
        assert [(name, lhs(idx), rhs(idx)) for name, lhs, rhs in sides] == expected, (
            identity_id, idx)
    assert table_result(ws, identity_id) == reference_sweep(ws, identity_id, 2), identity_id


@given(two_step_models())
@settings(max_examples=15, deadline=None)
def test_converted_tables_match_reference_evaluators(m):
    # G, H and J are not signed permutations, so nearly every identity
    # fails, at many tuples, and every entry of every side is compared
    assert _jacobi_witness(m) is None
    ws = VectorWorkspace(m)
    for identity_id in CONVERTED_IDS:
        assert_tables_match_reference(ws, identity_id)


@st.composite
def pullback_cases(draw):
    """(table, endomorphism, slots, keep): a random sparse 4-tensor of dim
    2-4 and an endomorphism with more than one nonzero per row and per
    column, pulled back through a random set of slots on a leading range."""
    dim = draw(st.integers(2, 4))
    index = st.integers(0, dim - 1)
    values = draw(st.dictionaries(st.tuples(index, index, index, index), small_values,
                                  max_size=8))
    endo = draw(st.dictionaries(st.tuples(index, index), small_values, max_size=5))
    i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
    endo.update({(i, i): draw(small_values), (i, j): draw(small_values),
                 (j, i): draw(small_values)})
    slots = tuple(sorted(draw(st.sets(st.integers(0, 3)))))
    keep = range(draw(st.integers(1, dim)))
    return (Table.from_values(dim, 4, values), Table.from_values(dim, 2, endo),
            slots, keep)


@given(pullback_cases())
@settings(max_examples=60, deadline=None)
def test_pullback_matches_dense_sum(case):
    t, endo, slots, keep = case
    pulled = t.pullback(endo, slots, keep)
    assert type(pulled) is Table
    assert dict(pulled.items()) == dense_pullback(t, endo, slots, keep)


MODEL_CHECK_IDS = ("LIE-ANTISYM", "LIE-JACOBI", "AX-G2", "AX-H2", "AX-J2", "AX-ANTICOMM",
                   "AX-KERNEL", "AX-SKEW", "AX-HGJ", "AX-JH", "AX-JV", "AX-HERM")


def test_identities_run_without_contractions(monkeypatch):
    """Every registry identity but the twelve model checks (AX-KERNEL and
    AX-JV apply the structure tensors to vectors) compares stored table
    entries only: no contraction of any table (Table.contract) runs, not
    even while the tables are built, and no reference formula runs.  The rows are the frozen ones."""
    ws = Workspace(make_heisenberg_model(2))
    calls = []
    original = Table.contract

    def counted(self, *vectors):
        calls.append(type(self).__name__)
        return original(self, *vectors)

    monkeypatch.setattr(Table, "contract", counted)
    module = globals()
    for name in [name for name in module if name.startswith("ref_")]:
        monkeypatch.setitem(module, name, lambda *args, _name=name: calls.append(_name))
    frozen = {row.split("\t")[0]: row for row in
              (ERRATA / "heisenberg_n2_suite.tsv").read_text().splitlines()}
    checked = [ident for ident in REGISTRY if ident.identity_id not in MODEL_CHECK_IDS]
    assert len(checked) == len(REGISTRY) - 12
    for ident in checked:
        result = ident.direct(ws) if ident.direct is not None else _run_tables(ws, ident)
        assert (f"{ident.identity_id}\t{result.status}\t{result.witness or ''}"
                == frozen[ident.identity_id])
    assert calls == []
    # the wrapper does see a contraction of one of those tables
    ws.nabla_G.contract(*[ws.model.basis(i) for i in range(2)])
    assert calls == ["Table"]


@contextmanager
def fraction_op_counts():
    """Count calls of Fraction.__new__, Fraction._mul and Fraction._add, as
    the benchmark's op counters do.  Fraction's operator methods are
    rebuilt with the class's own `_operator_fallbacks`, so dispatch is
    unchanged."""
    counts = {"new": 0, "mul": 0, "add": 0}
    names = ("__new__", "__mul__", "__rmul__", "__add__", "__radd__")
    saved = {name: Fraction.__dict__[name] for name in names}
    original_new = saved["__new__"].__func__

    def new(cls, *args, **kwargs):
        counts["new"] += 1
        return original_new(cls, *args, **kwargs)

    def counted(key, fn):
        def op(a, b):
            counts[key] += 1
            return fn(a, b)
        return op

    try:
        Fraction.__new__ = staticmethod(new)
        Fraction.__mul__, Fraction.__rmul__ = Fraction._operator_fallbacks(
            counted("mul", Fraction._mul), operator.mul)
        Fraction.__add__, Fraction.__radd__ = Fraction._operator_fallbacks(
            counted("add", Fraction._add), operator.add)
        yield counts
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)


@pytest.mark.parametrize("build", [build_heisenberg, lambda: make_heisenberg_model(2),
                                   make_two_step_model],
                         ids=["bundled", "heisenberg-n2", "two-step"])
def test_curvature_sweeps_run_without_fraction_arithmetic(build):
    """The Lie checks, the connection, R and the RIEM-SYM, BIANCHI-1 and
    BIANCHI-2 checks run on int numerators: on a passing model no Fraction
    product or sum runs, not even on a model whose tables are not
    integral."""
    m = build()
    with fraction_op_counts() as counts:
        assert all(check.status is Status.PASS for check in lie_checks(m))
        conn = levi_civita(m)
        rt = riemann(m, conn)
        assert riemann_symmetry_failures(rt) is None
        assert first_bianchi_failures(rt) is None
        assert second_bianchi_failures(m, conn, rt) is None
    assert (counts["mul"], counts["add"]) == (0, 0)
    # the counters do see the Fraction routes of the reference witness
    # values: nabla R products, and the cyclic sum's additions
    with fraction_op_counts() as counts:
        assert second_bianchi_cyclic_sum(conn, rt, 0, 1, 2, 0, 1) == 0
        assert first_bianchi_cyclic_sum(rt, 0, 1, 2, 3) == 0
    assert counts["mul"] > 0 and counts["add"] > 0


def test_suite_fraction_arithmetic_does_not_grow_with_n():
    """Every table kernel of the suite runs on int numerators, so the
    Fraction products and sums left are the few scalars of the registry
    (sigma(U), dsigma(U, V), 4n - 2 dsigma(U, V), ...): the same count at
    every n, where a kernel on Fraction values would add work per entry."""
    counts = []
    for n in (1, 2, 3):
        m = make_heisenberg_model(n)
        with fraction_op_counts() as ops:
            run_suite(m, "all")
        counts.append((ops["mul"], ops["add"]))
    assert counts[0] == counts[1] == counts[2], counts
    # both counters are live: the registry's scalars do reach them
    assert counts[0][0] > 0 and counts[0][1] > 0, counts
    assert sum(counts[0]) <= 20, counts


def test_diff_fraction_arithmetic_is_one_product_per_sectional_entry():
    """`diff` reads R and the connection as int numerators: on the published
    table no Fraction sum runs, and each `sec` or `hol` entry makes one
    Fraction product, g(x, x) g(y, y) in its plane's area."""
    m = build_heisenberg()
    source = importlib.resources.files("ccmv").joinpath("data/iwasawa_expected.ccmx")
    expected = parse_expected(source.read_text(), m.dim)
    planes = sum(1 for e in expected.entries if e.kind in ("sec", "hol"))
    assert planes > 0
    with fraction_op_counts() as counts:
        diff_expected(m, expected)
    assert counts["add"] == 0, counts
    assert counts["mul"] <= planes, (counts, planes)


# ----- contractions on random rational vectors -----

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
sparse_rationals = st.one_of(st.just(ZERO), rationals)
vectors6 = st.lists(sparse_rationals, min_size=6, max_size=6).map(
    vector)


@pytest.fixture(scope="module")
def workspace():
    return VectorWorkspace(build_heisenberg())


@given(vectors6, vectors6, vectors6, vectors6)
@settings(max_examples=25, deadline=None)
def test_contract_matches_dense_sum(x, y, z, w):
    t = tensor4_from_function(6, lambda i, j, k, el: Fraction((i - j) * (k - el), el + 1)
                              if (i + k) % 3 else ZERO)
    assert t.contract(x, y, z, w) == dense_contract(t, x, y, z, w)


@given(vectors6, vectors6, vectors6, vectors6)
@settings(max_examples=25, deadline=None)
def test_workspace_contractions_match_dense_sums(workspace, x, y, z, w):
    r = workspace.curv
    assert workspace.R4(x, y, z, w) == dense_contract(r, x, y, z, w)
    assert workspace.R(x, y, z) == dense_contract3(r, x, y, z)


# ----- linearity: why the frame sweep decides an identity -----

# Each side of a slotted identity is linear in each slot, so sides that agree
# on every frame tuple agree on every tuple of rational combinations of frame
# vectors.  A side that is not linear in some slot fails here.  The sides are
# the reference evaluators', which the tables equal on every frame tuple.
SLOTTED_IDS = [identity_id for identity_id in CONVERTED_IDS if REFERENCES[identity_id][0]]
LINEARITY_MODELS = {
    "bundled": build_heisenberg,
    "heisenberg-n2": lambda: make_heisenberg_model(2),
    "nilpotent-0": lambda: make_nilpotent_model(0),
}


@lru_cache(maxsize=None)
def linearity_workspace(name: str) -> VectorWorkspace:
    return VectorWorkspace(LINEARITY_MODELS[name]())


# p/q with |p| <= 4 and q <= 5, drawn as two integers: several times
# cheaper than st.fractions, and a case draws hundreds of coefficients
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


@lru_cache(maxsize=None)
def frame_vectors(dim: int):
    """Random rational vectors of a dimension; one strategy per dim."""
    return st.lists(coefficients, min_size=dim, max_size=dim).map(
        vector)


def _combine(a, b, c):
    """a + c b, for scalars or vectors."""
    return combine([(1, a), (c, b)]) if isinstance(a, Table) else a + c * b


@pytest.mark.parametrize("identity_id", SLOTTED_IDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_slotted_sides_are_linear_in_each_slot(identity_id, data):
    slots, evaluate = REFERENCES[identity_id]
    ws = linearity_workspace(data.draw(st.sampled_from(sorted(LINEARITY_MODELS))))

    def draw_slot(kind):
        v = data.draw(frame_vectors(ws.model.dim))
        return ws.hproj(v) if kind == "hor" else v

    base = [draw_slot(kind) for kind in slots]
    for slot, kind in enumerate(slots):
        x, y, c = draw_slot(kind), draw_slot(kind), data.draw(coefficients)

        def sides(v):
            vectors = tuple(base[:slot] + [v] + base[slot + 1:])
            return [(lhs, rhs) for _, lhs, rhs in evaluate(ws, vectors)]

        at_x, at_y = sides(x), sides(y)
        expected = [tuple(_combine(p, q, c) for p, q in zip(sx, sy))
                    for sx, sy in zip(at_x, at_y)]
        assert sides(_combine(x, y, c)) == expected, (identity_id, slot)
