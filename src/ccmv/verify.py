"""Identity registry, suite runner, and expected-values diffing.

Every registered identity is an independent claim about a model,
evaluated exhaustively over frame tuples in its free slots (slots the
statement restricts to the horizontal distribution range over horizontal
frame indices only).  Comparison is exact; the first inequality is
reported as the witness.  Each side of every identity is linear in each
slot, so a side that agrees on every frame tuple agrees on every vector
tuple: the frame sweep decides the identity, and no vector beyond the
frame is evaluated.

Direct identities do not go through that frame-tuple sweep.  The
structural checks and the three normality routes report the results of
their own checks; the routes compare the structures module's tables (see
there).  RIEM-SYM, BIANCHI-1 and BIANCHI-2 sweep no frame tuples at all:
they read the stored curvature and connection tables, visit only the
index tuples that can fail (stored entries with their partners or
rotations, and one slab per cyclic orbit), and still report the first
failing tuple in `itertools.product` order.

Table identities state each side as a table built once from stored
nonzeros.  EQ-2.20, EQ-2.21 and EQ-4.1 use tables on horizontal indices:
R pulled back through G or H, and R plus tensor products of the 2-forms
<J., .>, <G., .>, <H., .>, dsigma and its pullbacks.  EQ-2.4, EQ-2.5 and
EQ-2.6 compare g((nabla_X A)Y, Z) for A = G, H, J with Prop. 2.1's
right-hand sides, and EQ-4.12 and EQ-4.13 compare nabla G and nabla H with
Thm. 4.5's closed forms as vector-valued tables, one slot more than the
identity's, whose last slot is the output vector.  The check reads the
stored keys of either side only and reports what a frame sweep would:
the first failing frame tuple in `itertools.product` order, then the first
clause failing there.  For a vector-valued side the frame tuple is the key
without its last index, and a clause fails there when its rows differ.

Registry ids are stable opaque labels (the EQ-*/AX-*/NORM-* vocabulary
used by the report formats); several identities are recorded here in a
published form that is internally inconsistent with the rest of the
structure, and those FAIL on the built-in model by design.  The shipped
errata reports pin their statuses.  The engine reports; it never
adjudicates which side of an inconsistency was intended.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

from .core import (
    ZERO,
    FrameVector,
    Scalar,
    Status,
    Table,
    format_scalar,
    format_sparse_vector,
    inner_product,
    parse_frame_index,
    parse_scalar,
    parse_sparse_vector,
)
from .connection import levi_civita
from .curvature import (
    first_bianchi_cyclic_sum,
    first_bianchi_failures,
    holomorphic_sectional,
    ricci,
    ricci_operator,
    riemann,
    riemann_symmetry_clauses,
    riemann_symmetry_failures,
    scalar_curvature,
    second_bianchi_cyclic_sum,
    second_bianchi_failures,
    sectional,
)
from .model import (
    CheckResult,
    ManifoldModel,
    lie_checks,
    require_lie_algebra,
    structure_tensor_checks,
)
from .structures import (
    ConnectionWorkspace,
    NormalityReport,
    check_normality,
    first_table_failure,
)

SELECTORS = ("all", "axioms", "contact", "normality", "curvature", "ricci")

Clause = tuple[str, object, object]
# a clause whose two sides are tables over the identity's slots
TableClause = tuple[str, Table, Table]


@dataclass(frozen=True)
class IdentityResult:
    identity_id: str
    status: Status
    witness: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    model_name: str
    selector: str
    results: tuple[IdentityResult, ...]

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.results if r.status is Status.PASS)

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.results if r.status is Status.FAIL)

    @property
    def all_pass(self) -> bool:
        return self.fail_count == 0

    def result(self, identity_id: str) -> IdentityResult:
        for r in self.results:
            if r.identity_id == identity_id:
                return r
        raise KeyError(identity_id)


class Workspace(ConnectionWorkspace):
    """Shared derived quantities for one model, computed once per run: the
    connection-level ones, curvature, Ricci, and the two shared report
    caches."""

    def __init__(self, m: ManifoldModel):
        super().__init__(m, levi_civita(m))
        self.curv = riemann(m, self.conn)
        self.rho = ricci(m, self.curv)
        self.Q = ricci_operator(self.rho)
        self.tau = scalar_curvature(self.rho)

    def R(self, x: FrameVector, y: FrameVector, z: FrameVector) -> FrameVector:
        """R(x, y) z by trilinear contraction of the stored tensor."""
        return self.curv.contract(x, y, z)

    def R4(self, x: FrameVector, y: FrameVector, z: FrameVector,
           w: FrameVector) -> Scalar:
        return self.curv.contract(x, y, z, w)

    def rho_val(self, x: FrameVector, y: FrameVector) -> Scalar:
        return self.rho.value(x, y)

    @cached_property
    def normality(self) -> NormalityReport:
        return check_normality(self)

    @cached_property
    def model_checks(self) -> dict[str, CheckResult]:
        return {check.check_id: check
                for check in lie_checks(self.model) + structure_tensor_checks(self.model)}

    # Sides of the horizontal 4-slot identities (EQ-2.20, EQ-2.21, EQ-4.1):
    # tables on horizontal indices, built once from stored nonzeros.
    def horizontal(self, t: Table) -> Table:
        return t.restrict(self.model.horizontal_indices)

    @cached_property
    def curv_hor(self) -> Table:
        return self.horizontal(self.curv)

    @cached_property
    def curv_G(self) -> Table:
        """R(G., G., G., G.), pulled back one slot at a time."""
        return self.curv.pullback(self.model.G, range(4), self.model.horizontal_indices)

    @cached_property
    def curv_H(self) -> Table:
        """R(H., H., H., H.), pulled back one slot at a time."""
        return self.curv.pullback(self.model.H, range(4), self.model.horizontal_indices)


@dataclass(frozen=True)
class Identity:
    identity_id: str
    group: str
    slots: tuple[str, ...]
    evaluate: Callable[[Workspace, tuple[FrameVector, ...]], list[Clause]] | None = None
    # each side a table holding only index tuples in the slot ranges, with
    # one slot per frame slot, or one more for a vector-valued side
    tables: Callable[[Workspace], list[TableClause]] | None = None
    direct: Callable[[Workspace], IdentityResult] | None = None


def _render_value(value) -> str:
    if isinstance(value, FrameVector):
        return format_sparse_vector(value)
    return format_scalar(value)


def render_witness(slots: str, clause: str, lhs, rhs) -> str:
    part = f" part={clause}" if clause else ""
    return f"slots={slots}{part} lhs={_render_value(lhs)} rhs={_render_value(rhs)}"


def _run_slots(ws: Workspace, ident: Identity) -> IdentityResult:
    if ident.tables is not None:
        failure = first_table_failure(ident.tables(ws), len(ident.slots))
        if failure is None:
            return IdentityResult(ident.identity_id, Status.PASS)
        idx, clause, lhs, rhs = failure
        return IdentityResult(ident.identity_id, Status.FAIL,
                              render_witness(",".join(map(str, idx)), clause, lhs, rhs))
    m = ws.model
    ranges = [m.horizontal_indices if kind == "hor" else range(m.dim)
              for kind in ident.slots]
    for idx in product(*ranges):
        vectors = tuple(ws.basis[i] for i in idx)
        for clause, lhs, rhs in ident.evaluate(ws, vectors):
            if lhs != rhs:
                slot_text = ",".join(str(i) for i in idx) if idx else "-"
                return IdentityResult(ident.identity_id, Status.FAIL,
                                      render_witness(slot_text, clause, lhs, rhs))
    return IdentityResult(ident.identity_id, Status.PASS)


def _wrap_model_check(check_id: str) -> Callable[[Workspace], IdentityResult]:
    def run(ws: Workspace) -> IdentityResult:
        check = ws.model_checks[check_id]
        return IdentityResult(check.check_id, check.status, check.witness)
    return run


def _wrap_normality_route(route_name: str) -> Callable[[Workspace], IdentityResult]:
    identity_id = f"NORM-{route_name.upper()}"

    def run(ws: Workspace) -> IdentityResult:
        route = getattr(ws.normality, route_name)
        return IdentityResult(identity_id, route.status, route.witness)
    return run


def _registry() -> list[Identity]:
    ids: list[Identity] = []

    def add(identity_id: str, group: str, slots: str, fn) -> None:
        ids.append(Identity(identity_id, group, tuple(slots.split()) if slots else (),
                            evaluate=fn))

    def add_tables(identity_id: str, group: str, slots: str, fn) -> None:
        ids.append(Identity(identity_id, group, tuple(slots.split()), tables=fn))

    def add_direct(identity_id: str, group: str, fn) -> None:
        ids.append(Identity(identity_id, group, (), direct=fn))

    # ----- axioms -----
    for check_id in ("LIE-ANTISYM", "LIE-JACOBI", "AX-G2", "AX-H2", "AX-J2",
                     "AX-ANTICOMM", "AX-KERNEL", "AX-SKEW", "AX-HGJ", "AX-JH",
                     "AX-JV", "AX-HERM"):
        add_direct(check_id, "axioms", _wrap_model_check(check_id))

    add("AX-du", "axioms", "any any", lambda ws, vs: [(
        "", ws.du.value(vs[0], vs[1]),
        inner_product(vs[0], ws.G(vs[1])) + ws.wedge_sigma_v.value(vs[0], vs[1]))])
    add("AX-dv", "axioms", "any any", lambda ws, vs: [(
        "", ws.dv.value(vs[0], vs[1]),
        inner_product(vs[0], ws.H(vs[1])) - ws.wedge_sigma_u.value(vs[0], vs[1]))])

    # ----- contact: structure-tensor derivative identities -----
    add("EQ-2.1", "contact", "any", lambda ws, vs: [
        ("U", ws.nUG.apply(vs[0]), ws.H(vs[0]).scale(ws.sig(ws.model.U))),
        ("V", ws.nVH.apply(vs[0]), ws.G(vs[0]).scale(-ws.sig(ws.model.V)))])

    # g((nabla_X J)Y, Z) = u(X)(dsigma(Z, GY) - 2 <HY, Z>)
    #                      + v(X)(dsigma(Z, HY) + 2 <GY, Z>)
    def eq_2_6(ws: Workspace) -> list[TableClause]:
        m, (_, u, v) = ws.model, ws.forms
        at_u = ws.reversed_dsigma(m.G, (1,)).add([(-2, m.H)])
        at_v = ws.reversed_dsigma(m.H, (1,)).add([(2, m.G)])
        return [("", ws.nabla_J, u.tensor(at_u).add([(1, v.tensor(at_v))]))]
    add_tables("EQ-2.6", "contact", "any any any", eq_2_6)

    add("EQ-2.7", "contact", "any", lambda ws, vs: [
        ("U", ws.nabla(vs[0], ws.model.U),
         -ws.G(vs[0]) + ws.model.V.scale(ws.sig(vs[0]))),
        ("V", ws.nabla(vs[0], ws.model.V),
         -ws.H(vs[0]) - ws.model.U.scale(ws.sig(vs[0])))])

    add("EQ-2.8", "contact", "", lambda ws, vs: [
        ("UU", ws.nabla(ws.model.U, ws.model.U),
         ws.model.V.scale(ws.sig(ws.model.U))),
        ("UV", ws.nabla(ws.model.U, ws.model.V),
         ws.model.U.scale(-ws.sig(ws.model.U))),
        ("VU", ws.nabla(ws.model.V, ws.model.U),
         ws.model.V.scale(ws.sig(ws.model.V))),
        ("VV", ws.nabla(ws.model.V, ws.model.V),
         ws.model.U.scale(-ws.sig(ws.model.V)))])

    add("EQ-2.9", "contact", "any any", lambda ws, vs: [
        ("GH", ws.dsig(ws.G(vs[0]), ws.G(vs[1])),
         ws.dsig(ws.H(vs[0]), ws.H(vs[1]))),
        ("flip", ws.dsig(ws.G(vs[0]), ws.G(vs[1])),
         ws.dsig(vs[1], vs[0]) - 2 * ws.uv_bilinear(vs[1], vs[0]) * ws.dUV)])

    add("EQ-2.10", "contact", "any", lambda ws, vs: [
        ("U", ws.dsig(ws.model.U, vs[0]), ws.v(vs[0]) * ws.dUV),
        ("V", ws.dsig(ws.model.V, vs[0]), -ws.u(vs[0]) * ws.dUV)])

    add("EQ-2.22", "contact", "hor hor", lambda ws, vs: [(
        "", ws.dsig(vs[0], vs[1]),
        2 * inner_product(ws.J(vs[0]), vs[1])
        + inner_product(ws.nUJ.apply(ws.G(vs[0])), vs[1]))])

    add("EQ-3.1", "contact", "any any", lambda ws, vs: [
        ("u", ws.cov_form(vs[0], ws.model.u).value(vs[1]),
         inner_product(vs[0], ws.G(vs[1])) + ws.sig(vs[0]) * ws.v(vs[1])),
        ("v", ws.cov_form(vs[0], ws.model.v).value(vs[1]),
         inner_product(vs[0], ws.H(vs[1])) - ws.sig(vs[0]) * ws.u(vs[1]))])

    def eq_3_2_block(ws: Workspace, vs) -> list[Clause]:
        x = vs[0]
        U, V = ws.model.U, ws.model.V
        return [
            ("GU.V", inner_product(ws.nUG.apply(x), V), ZERO),
            ("HU.V", inner_product(ws.nUH.apply(x), V), ZERO),
            ("GU.U", inner_product(ws.nUG.apply(x), U), ZERO),
            ("HU.U", inner_product(ws.nUH.apply(x), U), ZERO),
            ("GV.U", inner_product(ws.nVG.apply(x), U), ZERO),
            ("HV.U", inner_product(ws.nVH.apply(x), U), ZERO),
            ("GV.V", inner_product(ws.nVG.apply(x), V), ZERO),
            ("HV.V", inner_product(ws.nVH.apply(x), V), ZERO),
            ("JU.V", inner_product(ws.nUJ.apply(x), V), ZERO),
            ("JU.U", inner_product(ws.nUJ.apply(x), U), ZERO),
            ("JV.U", inner_product(ws.nVJ.apply(x), U), ZERO),
            ("JV.V", inner_product(ws.nVJ.apply(x), V), ZERO),
        ]
    add("EQ-3.2-BLOCK", "contact", "hor", eq_3_2_block)

    for eq_id, attr_u, attr_v in (("EQ-3.3", "nUG", "nVG"),
                                  ("EQ-3.4", "nUH", "nVH"),
                                  ("EQ-3.5", "nUJ", "nVJ")):
        def projector(ws: Workspace, vs, a=attr_u, b=attr_v) -> list[Clause]:
            x = vs[0]
            return [("U", getattr(ws, a).apply(x), getattr(ws, a).apply(ws.hproj(x))),
                    ("V", getattr(ws, b).apply(x), getattr(ws, b).apply(ws.hproj(x)))]
        add(eq_id, "contact", "any", projector)

    add("EQ-3.6", "contact", "any any", lambda ws, vs: [(
        "", inner_product(ws.nUG.apply(vs[0]), vs[1]),
        ws.sig(ws.model.U) * inner_product(ws.H(ws.hproj(vs[0])), ws.hproj(vs[1])))])
    add("EQ-3.7", "contact", "any any", lambda ws, vs: [(
        "", inner_product(ws.nVG.apply(vs[0]), vs[1]),
        ws.sig(ws.model.V) * inner_product(ws.H(ws.hproj(vs[0])), ws.hproj(vs[1]))
        + ws.dsig(ws.hproj(vs[1]), ws.hproj(vs[0]))
        - 2 * inner_product(ws.J(ws.hproj(vs[0])), ws.hproj(vs[1])))])
    add("EQ-3.8", "contact", "any any", lambda ws, vs: [(
        "", inner_product(ws.nVH.apply(vs[0]), vs[1]),
        -ws.sig(ws.model.V) * inner_product(ws.G(ws.hproj(vs[0])), ws.hproj(vs[1])))])
    add("EQ-3.9", "contact", "any any", lambda ws, vs: [(
        "", inner_product(ws.nUH.apply(vs[0]), vs[1]),
        -ws.sig(ws.model.U) * inner_product(ws.G(ws.hproj(vs[0])), ws.hproj(vs[1]))
        - ws.dsig(ws.hproj(vs[1]), ws.hproj(vs[0]))
        + 2 * inner_product(ws.J(ws.hproj(vs[0])), ws.hproj(vs[1])))])
    add("EQ-3.10", "contact", "any any", lambda ws, vs: [(
        "", inner_product(ws.nUJ.apply(ws.G(vs[0])), vs[1]),
        -ws.dsig(ws.hproj(vs[1]), ws.hproj(vs[0]))
        - 2 * inner_product(ws.J(ws.hproj(vs[0])), ws.hproj(vs[1])))])
    add("EQ-3.11", "contact", "any any", lambda ws, vs: [(
        "", inner_product(ws.nVJ.apply(ws.G(vs[0])), vs[1]),
        ws.dsig(ws.hproj(vs[1]), ws.G(ws.hproj(vs[0])))
        - 2 * inner_product(ws.H(ws.hproj(vs[0])), ws.hproj(vs[1])))])

    add("EQ-4.11", "contact", "any any", lambda ws, vs: [(
        "", ws.dsig(vs[0], vs[1]),
        2 * inner_product(ws.J(ws.hproj(vs[0])), ws.hproj(vs[1]))
        + inner_product(ws.nUJ.apply(ws.G(ws.hproj(vs[0]))), ws.hproj(vs[1]))
        + ws.dUV * ws.uv_bilinear(vs[0], vs[1]))])

    # EQ-4.12 and EQ-4.13 as printed: Thm. 4.5's closed forms (the NORM-THM45
    # route) plus the literal difference of the printed terms.  Both sides
    # are vector-valued: row (i, j) is the vector at (e_i, e_j).
    def eq_4_12(ws: Workspace) -> list[TableClause]:
        """The printed sign of the nabla_U J term, and 2 v(X)(u(Y)V - v(Y)U) dropped."""
        _, _, v = ws.forms
        return [("", ws.nabla_G, ws.thm45_G.add([(-2, v.tensor(ws.nUJ_G0)),
                                                 (2, v.tensor(ws.vertical_mix_table))]))]
    add_tables("EQ-4.12", "contact", "any any", eq_4_12)

    def eq_4_13(ws: Workspace) -> list[TableClause]:
        """-2 u(X)(u(Y)V - v(Y)U) dropped."""
        _, u, _ = ws.forms
        return [("", ws.nabla_H, ws.thm45_H.add([(-2, u.tensor(ws.vertical_mix_table))]))]
    add_tables("EQ-4.13", "contact", "any any", eq_4_13)

    add("EQ-4.14", "contact", "any any", lambda ws, vs: [(
        "", ws.cov_J(vs[0], vs[1]),
        ws.H(vs[1]).scale(-2 * ws.u(vs[0]))
        + ws.G(vs[1]).scale(2 * ws.v(vs[0]))
        + (ws.H(ws.hproj(vs[1])).scale(2)
           + ws.nUJ.apply(ws.hproj(vs[1]))).scale(ws.u(vs[0]))
        + (ws.G(ws.hproj(vs[1])).scale(-2)
           + ws.nUJ.apply(ws.J(ws.hproj(vs[1])))).scale(ws.v(vs[0])))])

    # ----- normality -----
    # EQ-2.4 and EQ-2.5 as printed: Prop. 2.1's forms (the NORM-PROP21 route)
    # plus the literal difference of the printed terms.  EQ-2.4 is printed
    # correctly.
    add_tables("EQ-2.4", "normality", "any any any", lambda ws: [
        ("", ws.nabla_G, ws.prop21_G)])

    def eq_2_5(ws: Workspace) -> list[TableClause]:
        """HG printed where GH belongs in the 2 u(X) term."""
        _, u, _ = ws.forms
        return [("", ws.nabla_H, ws.prop21_H.add([(-2, u.tensor(ws.HG)),
                                                  (2, u.tensor(ws.GH))]))]
    add_tables("EQ-2.5", "normality", "any any any", eq_2_5)

    for route in ("korkmaz", "prop21", "thm45"):
        add_direct(f"NORM-{route.upper()}", "normality", _wrap_normality_route(route))

    # ----- curvature -----
    add("EQ-2.11", "curvature", "", lambda ws, vs: [
        ("UVVU", ws.R4(ws.model.U, ws.model.V, ws.model.V, ws.model.U),
         -2 * ws.dUV),
        ("VUUV", ws.R4(ws.model.V, ws.model.U, ws.model.U, ws.model.V),
         -2 * ws.dUV)])

    add("EQ-2.12", "curvature", "hor", lambda ws, vs: [
        ("U", ws.R(vs[0], ws.model.U, ws.model.U), vs[0]),
        ("V", ws.R(vs[0], ws.model.V, ws.model.V), vs[0])])

    add("EQ-2.13", "curvature", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], vs[1], ws.model.U),
        ws.model.V.scale(2 * (inner_product(vs[0], ws.J(vs[1]))
                              + ws.dsig(vs[0], vs[1]))))])
    add("EQ-2.14", "curvature", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], vs[1], ws.model.V),
        ws.model.U.scale(-2 * (inner_product(vs[0], ws.J(vs[1]))
                               + ws.dsig(vs[0], vs[1]))))])

    add("EQ-2.15", "curvature", "hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, ws.model.V),
        ws.G(vs[0]).scale(ws.sig(ws.model.U)) + ws.nUH.apply(vs[0]) - ws.J(vs[0]))])
    add("EQ-2.16", "curvature", "hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, ws.model.U),
        ws.H(vs[0]).scale(-ws.sig(ws.model.V)) + ws.nVG.apply(vs[0]) + ws.J(vs[0]))])

    add("EQ-2.17", "curvature", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, vs[1]),
        ws.model.U.scale(-inner_product(vs[0], vs[1]))
        + ws.model.V.scale(ws.dsig(vs[1], vs[0])
                           - inner_product(ws.J(vs[0]), vs[1])))])
    add("EQ-2.18", "curvature", "hor hor", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, vs[1]),
        ws.model.V.scale(-inner_product(vs[0], vs[1]))
        + ws.model.U.scale(inner_product(ws.J(vs[0]), vs[1])
                           - ws.dsig(vs[1], vs[0])))])

    add("EQ-2.19", "curvature", "hor", lambda ws, vs: [(
        "", ws.R(ws.model.U, ws.model.V, vs[0]), ws.J(vs[0]))])

    # EQ-2.20 (A = G, B = H) and EQ-2.21 (A = H, B = G): R(AX, AY, AZ, AW) =
    # R(X, Y, Z, W) - 2 <JZ, W> dsigma(X, Y) + 2 <BX, Y> dsigma(AZ, W)
    # + 2 <JX, Y> dsigma(Z, W) - 2 <BZ, W> dsigma(AX, Y), on horizontal
    # vectors.  <J., .> and <B., .> are the stored entries of J and B.
    def pulled_back_curvature(a: str, b: str):
        def tables(ws: Workspace) -> list[TableClause]:
            m = ws.model
            form_b, form_j = ws.horizontal(getattr(m, b)), ws.horizontal(m.J)
            ds = ws.horizontal(ws.dsigma)
            ds_a = ws.dsigma.pullback(getattr(m, a), (0,), m.horizontal_indices)
            rhs = ws.curv_hor.add([(-2, ds.tensor(form_j)), (2, form_b.tensor(ds_a)),
                                   (2, form_j.tensor(ds)), (-2, ds_a.tensor(form_b))])
            return [("", getattr(ws, f"curv_{a}"), rhs)]
        return tables
    add_tables("EQ-2.20", "curvature", "hor hor hor hor", pulled_back_curvature("G", "H"))
    add_tables("EQ-2.21", "curvature", "hor hor hor hor", pulled_back_curvature("H", "G"))

    add_tables("EQ-4.1", "curvature", "hor hor hor hor", lambda ws: [
        ("G", ws.curv_G, ws.curv_hor), ("H", ws.curv_H, ws.curv_hor)])

    add("EQ-4.2", "curvature", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, ws.model.U),
        ws.hproj(vs[0]) + ws.model.V.scale(-2 * ws.dUV * ws.v(vs[0])))])
    add("EQ-4.3", "curvature", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, ws.model.V),
        ws.hproj(vs[0]) + ws.model.U.scale(-2 * ws.dUV * ws.u(vs[0])))])
    add("EQ-4.4", "curvature", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.U, ws.model.V),
        ws.G(ws.hproj(vs[0])).scale(ws.sig(ws.model.U))
        + ws.nUH.apply(ws.hproj(vs[0])) - ws.J(ws.hproj(vs[0]))
        + ws.model.U.scale(2 * ws.dUV * ws.v(vs[0])))])
    add("EQ-4.5", "curvature", "any", lambda ws, vs: [(
        "", ws.R(vs[0], ws.model.V, ws.model.U),
        ws.H(ws.hproj(vs[0])).scale(-ws.sig(ws.model.V))
        + ws.nVG.apply(ws.hproj(vs[0])) + ws.J(ws.hproj(vs[0]))
        + ws.model.V.scale(2 * ws.dUV * ws.u(vs[0])))])
    add("EQ-4.6", "curvature", "any", lambda ws, vs: [(
        "", ws.R(ws.model.U, ws.model.V, vs[0]),
        ws.J(ws.hproj(vs[0])) + ws.vertical_mix(vs[0]).scale(2 * ws.dUV))])

    def eq_4_7(ws: Workspace, vs) -> list[Clause]:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = (y0.scale(-ws.u(x))
               + (ws.H(y0).scale(ws.sig(ws.model.V)) + ws.nVG.apply(y0)
                  + ws.J(y0)).scale(ws.v(x))
               + x0.scale(ws.u(y))
               + (ws.H(x0).scale(-ws.sig(ws.model.V)) + ws.nVG.apply(x0)
                  + ws.J(x0)).scale(ws.v(y))
               + ws.model.V.scale(2 * (inner_product(x0, ws.J(y0))
                                       + ws.dsig(x0, y0))
                                  + 2 * ws.dUV * ws.uv_bilinear(x, y)))
        return [("", ws.R(x, y, ws.model.U), rhs)]
    add("EQ-4.7", "curvature", "any any", eq_4_7)

    def eq_4_8(ws: Workspace, vs) -> list[Clause]:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = ((ws.G(y0).scale(ws.sig(ws.model.U)) + ws.nUH.apply(y0)
                - ws.J(y0)).scale(-ws.u(x))
               + y0.scale(-ws.v(x))
               + (ws.G(x0).scale(-ws.sig(ws.model.U)) + ws.nUH.apply(x0)
                  - ws.J(x0)).scale(ws.u(y))
               + x0.scale(ws.v(y))
               + ws.model.U.scale(-2 * (inner_product(x0, ws.J(y0))
                                        + ws.dsig(x0, y0))
                                  - 2 * ws.dUV * ws.uv_bilinear(x, y)))
        return [("", ws.R(x, y, ws.model.V), rhs)]
    add("EQ-4.8", "curvature", "any any", eq_4_8)

    def eq_4_9(ws: Workspace, vs) -> list[Clause]:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = (x0.scale(ws.u(y))
               - ws.J(y0).scale(ws.v(x))
               + (ws.G(x0).scale(ws.sig(ws.model.U)) + ws.nUH.apply(x0)
                  - ws.J(x0)).scale(ws.v(y))
               + ws.model.U.scale(-inner_product(x0, y0)
                                  - 2 * ws.dUV * ws.v(x) * ws.v(y))
               + ws.model.V.scale(ws.dsig(y0, x0)
                                  - inner_product(ws.J(x0), y0)
                                  - 2 * ws.dUV * ws.v(x) * ws.u(y)))
        return [("", ws.R(x, ws.model.U, y), rhs)]
    add("EQ-4.9", "curvature", "any any", eq_4_9)

    def eq_4_10(ws: Workspace, vs) -> list[Clause]:
        x, y = vs
        x0, y0 = ws.hproj(x), ws.hproj(y)
        rhs = (ws.J(y0).scale(ws.u(x))
               + x0.scale(ws.v(y))
               + (ws.H(x0).scale(-ws.sig(ws.model.U)) + ws.nVG.apply(x0)
                  + ws.J(x0)).scale(ws.u(y))
               + ws.model.V.scale(-inner_product(x0, y0)
                                  + 2 * ws.dUV * ws.u(x) * ws.u(y))
               + ws.model.U.scale(inner_product(ws.J(x0), y0)
                                  - ws.dsig(y0, x0)
                                  - 2 * ws.dUV * ws.u(x) * ws.v(y)))
        return [("", ws.R(x, ws.model.V, y), rhs)]
    add("EQ-4.10", "curvature", "any any", eq_4_10)

    def riemann_sym(ws: Workspace) -> IdentityResult:
        where = riemann_symmetry_failures(ws.curv)
        if where is None:
            return IdentityResult("RIEM-SYM", Status.PASS)
        clause, lhs, rhs = next(part for part in riemann_symmetry_clauses(ws.curv, *where)
                                if part[1] != part[2])
        return IdentityResult("RIEM-SYM", Status.FAIL,
                              render_witness(",".join(map(str, where)), clause, lhs, rhs))
    add_direct("RIEM-SYM", "curvature", riemann_sym)

    def bianchi_1(ws: Workspace) -> IdentityResult:
        where = first_bianchi_failures(ws.curv)
        if where is None:
            return IdentityResult("BIANCHI-1", Status.PASS)
        return IdentityResult(
            "BIANCHI-1", Status.FAIL,
            render_witness(",".join(map(str, where)), "",
                           first_bianchi_cyclic_sum(ws.curv, *where), ZERO))
    add_direct("BIANCHI-1", "curvature", bianchi_1)

    def bianchi_2(ws: Workspace) -> IdentityResult:
        where = second_bianchi_failures(ws.model, ws.conn, ws.curv)
        if where is None:
            return IdentityResult("BIANCHI-2", Status.PASS)
        mm, i, j, k, el = where
        total = second_bianchi_cyclic_sum(ws.model, ws.conn, ws.curv,
                                          mm, i, j, k, el)
        return IdentityResult(
            "BIANCHI-2", Status.FAIL,
            render_witness(f"{mm},{i},{j},{k},{el}", "", total, ZERO))
    add_direct("BIANCHI-2", "curvature", bianchi_2)

    # ----- ricci -----
    add("EQ-5.1", "ricci", "hor hor", lambda ws, vs: [
        ("G", ws.rho_val(ws.G(vs[0]), ws.G(vs[1])), ws.rho_val(vs[0], vs[1])),
        ("H", ws.rho_val(ws.H(vs[0]), ws.H(vs[1])), ws.rho_val(vs[0], vs[1]))])
    add("EQ-5.2", "ricci", "hor hor", lambda ws, vs: [
        ("G", ws.rho_val(ws.G(vs[0]), vs[1]), -ws.rho_val(vs[0], ws.G(vs[1]))),
        ("H", ws.rho_val(ws.H(vs[0]), vs[1]), -ws.rho_val(vs[0], ws.H(vs[1])))])
    add("EQ-5.6", "ricci", "hor", lambda ws, vs: [
        ("U", ws.rho_val(vs[0], ws.model.U), ZERO),
        ("V", ws.rho_val(vs[0], ws.model.V), ZERO)])

    def vertical_ricci_target(ws: Workspace) -> Scalar:
        return 4 * ws.model.n - 2 * ws.dUV

    add("EQ-5.7", "ricci", "", lambda ws, vs: [
        ("UU", ws.rho_val(ws.model.U, ws.model.U), vertical_ricci_target(ws)),
        ("VV", ws.rho_val(ws.model.V, ws.model.V), vertical_ricci_target(ws)),
        ("UV", ws.rho_val(ws.model.U, ws.model.V), ZERO)])
    add("EQ-5.10", "ricci", "any", lambda ws, vs: [
        ("U", ws.rho_val(vs[0], ws.model.U),
         vertical_ricci_target(ws) * ws.u(vs[0])),
        ("V", ws.rho_val(vs[0], ws.model.V),
         vertical_ricci_target(ws) * ws.v(vs[0]))])
    add("EQ-5.11", "ricci", "any any", lambda ws, vs: [(
        "", ws.rho_val(vs[0], vs[1]),
        ws.rho_val(ws.hproj(vs[0]), ws.hproj(vs[1]))
        + vertical_ricci_target(ws) * (ws.u(vs[0]) * ws.u(vs[1])
                                       + ws.v(vs[0]) * ws.v(vs[1])))])
    add("EQ-5.12", "ricci", "any any", lambda ws, vs: [
        ("G", ws.rho_val(vs[0], vs[1]),
         ws.rho_val(ws.G(vs[0]), ws.G(vs[1]))
         + vertical_ricci_target(ws) * (ws.u(vs[0]) * ws.u(vs[1])
                                        + ws.v(vs[0]) * ws.v(vs[1]))),
        ("H", ws.rho_val(vs[0], vs[1]),
         ws.rho_val(ws.H(vs[0]), ws.H(vs[1]))
         + vertical_ricci_target(ws) * (ws.u(vs[0]) * ws.u(vs[1])
                                        + ws.v(vs[0]) * ws.v(vs[1])))])
    add("EQ-5.13", "ricci", "any", lambda ws, vs: [
        ("G", ws.Q.apply(ws.G(vs[0])), ws.G(ws.Q.apply(vs[0]))),
        ("H", ws.Q.apply(ws.H(vs[0])), ws.H(ws.Q.apply(vs[0])))])

    return ids


REGISTRY: tuple[Identity, ...] = tuple(_registry())


def _natural_key(identity_id: str) -> tuple:
    return tuple((0, piece) if index % 2 == 0 else (1, int(piece))
                 for index, piece in enumerate(re.split(r"(\d+)", identity_id)))


def registry_ids(selector: str = "all") -> list[str]:
    """Registered identity ids for a selector, in report order."""
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; choose from {SELECTORS}")
    chosen = [ident.identity_id for ident in REGISTRY
              if selector == "all" or ident.group == selector]
    return sorted(chosen, key=_natural_key)


def run_suite(m: ManifoldModel, selector: str = "all") -> SuiteReport:
    """Evaluate every selected identity on the model; exact, deterministic."""
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; choose from {SELECTORS}")
    require_lie_algebra(m)
    ws = Workspace(m)
    results = []
    for ident in REGISTRY:
        if selector != "all" and ident.group != selector:
            continue
        if ident.direct is not None:
            results.append(ident.direct(ws))
        else:
            results.append(_run_slots(ws, ident))
    results.sort(key=lambda r: _natural_key(r.identity_id))
    return SuiteReport(m.name, selector, tuple(results))


# ----- expected-values files -----

class ExpectedFormatError(ValueError):
    """Malformed expected-values document; carries the source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ExpectedEntry:
    kind: str
    indices: tuple[int, ...]
    expected: object  # FrameVector for R/conn, Scalar otherwise
    line: int

    @property
    def key(self) -> str:
        return " ".join([self.kind, *map(str, self.indices)])


@dataclass(frozen=True)
class ExpectedValues:
    entries: tuple[ExpectedEntry, ...]


_EXPECTED_ARITY = {"R": 3, "conn": 2, "ric": 2, "scal": 0, "sec": 2, "hol": 1}
_EXPECTED_VECTOR_KINDS = {"R", "conn"}


def parse_expected(source: str, dim: int) -> ExpectedValues:
    """Parse an expected-values document against a model dimension."""
    entries: list[ExpectedEntry] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in _EXPECTED_ARITY:
            raise ExpectedFormatError(line_no, f"unknown entry kind {kind!r}")
        arity = _EXPECTED_ARITY[kind]
        if len(tokens) != arity + 3 or tokens[arity + 1] != "=":
            raise ExpectedFormatError(
                line_no, f"{kind} entry must look like `{kind}"
                         f"{' <i>' * arity} = <value>`")
        try:
            indices = tuple(parse_frame_index(tok) for tok in tokens[1:arity + 1])
        except ValueError:
            raise ExpectedFormatError(line_no, "indices must be integers")
        if any(not 0 <= idx < dim for idx in indices):
            raise ExpectedFormatError(line_no, f"index out of range for dim {dim}")
        value_text = tokens[arity + 2]
        try:
            if kind in _EXPECTED_VECTOR_KINDS:
                expected = parse_sparse_vector(value_text, dim)
            else:
                expected = parse_scalar(value_text)
        except ValueError as exc:
            raise ExpectedFormatError(line_no, str(exc))
        entries.append(ExpectedEntry(kind, indices, expected, line_no))
    return ExpectedValues(tuple(entries))


@dataclass(frozen=True)
class DiffEntry:
    key: str
    matched: bool
    expected_text: str
    computed_text: str


@dataclass(frozen=True)
class DiffReport:
    model_name: str
    entries: tuple[DiffEntry, ...]

    @property
    def match_count(self) -> int:
        return sum(1 for e in self.entries if e.matched)

    @property
    def mismatch_count(self) -> int:
        return sum(1 for e in self.entries if not e.matched)

    @property
    def all_match(self) -> bool:
        return self.mismatch_count == 0

    def entry(self, key: str) -> DiffEntry:
        """First diff entry for a key (duplicate keys keep their own verdicts)."""
        for e in self.entries:
            if e.key == key:
                return e
        raise KeyError(key)


def diff_expected(m: ManifoldModel, exp: ExpectedValues) -> DiffReport:
    """Recompute every expected entry exactly and report MATCH/MISMATCH."""
    require_lie_algebra(m)
    ws = Workspace(m)

    def compute(entry: ExpectedEntry):
        if entry.kind == "R":
            i, j, k = entry.indices
            return ws.curv.row(i, j, k)
        if entry.kind == "conn":
            i, j = entry.indices
            return ws.conn.row(i, j)
        if entry.kind == "ric":
            i, j = entry.indices
            return ws.rho.entry(i, j)
        if entry.kind == "scal":
            return ws.tau
        if entry.kind == "sec":
            i, j = entry.indices
            return sectional(ws.curv, m.basis(i), m.basis(j))
        i, = entry.indices
        return holomorphic_sectional(m, ws.curv, m.basis(i))

    diffs = []
    for entry in exp.entries:
        computed = compute(entry)
        diffs.append(DiffEntry(
            key=entry.key,
            matched=computed == entry.expected,
            expected_text=_render_value(entry.expected),
            computed_text=_render_value(computed),
        ))
    return DiffReport(m.name, tuple(diffs))


# ----- deterministic report rendering (shared by the CLI and tests) -----

def suite_text_rows(report: SuiteReport) -> list[str]:
    rows = []
    for r in report.results:
        row = f"{r.identity_id} {r.status}"
        if r.witness:
            row += f" {r.witness}"
        rows.append(row)
    return rows


def suite_tsv_rows(report: SuiteReport) -> list[str]:
    return [f"{r.identity_id}\t{r.status}\t{r.witness or ''}"
            for r in report.results]


def diff_text_rows(report: DiffReport) -> list[str]:
    rows = []
    for e in report.entries:
        if e.matched:
            rows.append(f"{e.key} MATCH")
        else:
            rows.append(f"{e.key} MISMATCH expected {e.expected_text} "
                        f"computed {e.computed_text}")
    return rows


def diff_tsv_rows(report: DiffReport) -> list[str]:
    return [f"{e.key}\t{'MATCH' if e.matched else 'MISMATCH'}\t{e.computed_text}"
            for e in report.entries]
