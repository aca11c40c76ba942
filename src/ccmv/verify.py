"""Identity registry, suite runner, and expected-values diffing.

Every registered identity is an independent claim about a model, checked
exhaustively and exactly; the first inequality is reported as the
witness.  A registry entry is one of two kinds.

Table identities state each side of each clause as a `Table`, built once
per `Workspace` from stored nonzeros, with one slot per slot of the
identity, or one more for a vector-valued side, whose last slot is the
output vector.  The check (`core.first_table_failure`) reads the stored
keys of either side only, and of those only the ones horizontal in every
`hor` slot; it reports what a sweep of every frame tuple in the slot
ranges would: the first failing frame tuple in `itertools.product`
order, then the first clause failing there.  For a vector-valued side
the frame tuple is the key without its last index, and a clause fails
there when its rows differ.  Each side is linear in each slot, so sides
that agree on every frame tuple agree on every vector tuple, and no
vector beyond the frame is evaluated.  A display on horizontal vectors
is its general form's clauses on `hor` slots.  EQ-2.8 has no slots: its
sides are single rows, compared at the empty tuple, printed `-`.

Direct identities report the results of their own checks: the structural
checks and the normality routes, which compare tables the same way;
EQ-2.11 and EQ-5.7, whose sides are scalars; and RIEM-SYM, BIANCHI-1 and
BIANCHI-2, the sweeps of R in `curvature`.  Each reports its first failing
tuple in `itertools.product` order, rendered as every row is.  R is
antisymmetric in each pair by construction (see the `curvature` module
docstring), and RIEM-SYM checks that on its own.  So BIANCHI-1, BIANCHI-2
and EQ-4.1 build and compare only the quarter i < j, k < l of R's two
pairs, where their first failure lies.  So do EQ-2.20 and EQ-2.21 when
their four rank-2 factors (dsigma, <J., .>, <B., .>, dsigma(A., .)) are
skew on horizontal vectors; otherwise those two build and compare in full.

Registry ids are stable opaque labels (the EQ-*/AX-*/NORM-* vocabulary
used by the report formats); several identities are recorded here in a
published form that is internally inconsistent with the rest of the
structure, and those FAIL on the built-in model by design.  The shipped
errata reports pin their statuses.  The engine reports; it never
adjudicates which side of an inconsistency was intended.
"""
from __future__ import annotations

import re
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    ZERO,
    Failure,
    Record,
    Scalar,
    Status,
    Table,
    combine,
    first_table_failure,
    format_value,
    parse_frame_index,
    parse_scalar,
    parse_sparse_vector,
)
from .connection import levi_civita
from .curvature import (
    DegeneratePlane,
    first_bianchi_failures,
    holomorphic_sectional,
    horizontal_curvature,
    ricci,
    riemann,
    riemann_symmetry_failures,
    scalar_curvature,
    second_bianchi_failures,
    sectional,
)
from .model import (
    CheckResult,
    ManifoldModel,
    check_result,
    lie_checks,  # noqa: F401  models cache its result; bench/tracing.py wraps this name
    require_lie_algebra,
    structure_tensor_checks,
)
from .structures import (
    ConnectionWorkspace,
    NormalityReport,
    _middle,
    check_normality,
)

SELECTORS = ("all", "axioms", "contact", "normality", "curvature", "ricci")

# a clause whose two sides are tables over the identity's slots
TableClause = tuple[str, Table, Table]


class SuiteReport(Record):
    model_name: str
    selector: str
    results: tuple[CheckResult, ...]

    @property
    def pass_count(self) -> int:
        return sum(1 for r in self.results if r.status is Status.PASS)

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.results if r.status is Status.FAIL)

    @property
    def all_pass(self) -> bool:
        return self.fail_count == 0

    def result(self, identity_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == identity_id:
                return r
        raise KeyError(identity_id)


class Workspace(ConnectionWorkspace):
    """Shared derived quantities for one model, computed once per run: the
    connection-level ones, curvature, Ricci, the two shared report caches,
    the tables that several identities share, and each identity's clauses."""

    def __init__(self, m: ManifoldModel):
        super().__init__(m, levi_civita(m))
        self.curv = riemann(m, self.conn)
        self.rho = ricci(m, self.curv)
        self.tau = scalar_curvature(self.rho)
        self._clauses: dict = {}

    def clauses(self, tables: Callable[[Workspace], list[TableClause]]) -> list[TableClause]:
        """`tables(self)`, built once per workspace for all its identities."""
        if tables not in self._clauses:
            self._clauses[tables] = tables(self)
        return self._clauses[tables]

    @cached_property
    def normality(self) -> NormalityReport:
        return check_normality(self)

    @cached_property
    def model_checks(self) -> dict[str, CheckResult]:
        return {check.check_id: check
                for check in self.model.lie_results + tuple(structure_tensor_checks(self.model))}

    def curv_side(self, a: str, quarter: bool) -> Table:
        """A side of EQ-2.20, EQ-2.21 or EQ-4.1, built once and kept with the
        clauses: R on horizontal keys for a = "R", else R(A., A., A., A.)
        there for A = G or H; with `quarter`, only at i < j and k < l."""
        if (a, quarter) not in self._clauses:
            self._clauses[a, quarter] = horizontal_curvature(
                self.curv, None if a == "R" else getattr(self.model, a),
                self.model.horizontal_indices, quarter)
        return self._clauses[a, quarter]

    # R with a vertical argument, read by EQ-4.2-4.5, EQ-4.9 and EQ-4.10.
    @cached_property
    def curv_xU(self) -> Table:
        """R(X, U, Z, W) at (X, Z, W)."""
        return self.curv.fix(1, self.model.U_index)

    @cached_property
    def curv_xV(self) -> Table:
        """R(X, V, Z, W) at (X, Z, W)."""
        return self.curv.fix(1, self.model.V_index)

    # Right-hand-side terms shared by several identities; X0 and Y0 are the
    # horizontal parts of X and Y.
    @cached_property
    def sigma_UV(self) -> tuple[Scalar, Scalar]:
        """sigma(U) and sigma(V)."""
        m = self.model
        return self.sigma.entry(m.U_index), self.sigma.entry(m.V_index)

    @cached_property
    def hor_delta(self) -> Table:
        """X0 at (X, Z)."""
        return self.horizontal(self.delta, 1)

    @cached_property
    def hor_J(self) -> Table:
        """J X0 at (X, Z)."""
        return self.horizontal(self.model.J, 1)

    @cached_property
    def hor_J_dsigma(self) -> Table:
        """<X0, J Y0> + dsigma(X0, Y0)."""
        return self.horizontal(self.model.J.permute((1, 0)).add([(1, self.dsigma)]))

    @cached_property
    def hor_dsigma_J(self) -> Table:
        """dsigma(Y0, X0) - <J X0, Y0>."""
        return self.horizontal(self.dsigma.permute((1, 0)).add([(-1, self.model.J)]))

    @cached_property
    def R_xUV(self) -> Table:
        """sigma(U) G X0 + (nabla_U H) X0 - J X0 at (X, Z): R(X, U)V on horizontal X."""
        m, (s_u, _) = self.model, self.sigma_UV
        return self.horizontal(combine([(s_u, m.G), (1, self.nUH), (-1, m.J)]), 1)

    @cached_property
    def R_xVU(self) -> Table:
        """-sigma(V) H X0 + (nabla_V G) X0 + J X0 at (X, Z): R(X, V)U on horizontal X."""
        m, (_, s_v) = self.model, self.sigma_UV
        return self.horizontal(combine([(-s_v, m.H), (1, self.nVG), (1, m.J)]), 1)

    @cached_property
    def ricci_target(self) -> Scalar:
        """4n - 2 dsigma(U, V): EQ-5.7's rho(U, U) and rho(V, V)."""
        return 4 * self.model.n - 2 * self.dUV

    @cached_property
    def vertical_square(self) -> Table:
        """u(X) u(Y) + v(X) v(Y)."""
        _, u, v = self.forms
        return u.tensor(u).add([(1, v.tensor(v))])


class Identity(Record):
    identity_id: str
    group: str
    slots: tuple[str, ...]
    # each side a table with one slot per frame slot, or one more for a
    # vector-valued side; its keys outside the slot ranges are not compared
    tables: Callable[[Workspace], list[TableClause]] | None = None
    direct: Callable[[Workspace], CheckResult] | None = None


def render_witness(slots: str, clause: str, lhs, rhs) -> str:
    part = f" part={clause}" if clause else ""
    return f"slots={slots}{part} lhs={format_value(lhs)} rhs={format_value(rhs)}"


def _slots_witness(where: tuple[int, ...], clause: str, lhs, rhs) -> str:
    """A row's witness: the frame tuple, `-` when it is empty."""
    return render_witness(",".join(map(str, where)) or "-", clause, lhs, rhs)


def _run_tables(ws: Workspace, ident: Identity) -> CheckResult:
    """A table identity's row; its slots are all `any` or all `hor`."""
    keep = ws.model.horizontal_indices if "hor" in ident.slots else None
    return check_result(ident.identity_id, first_table_failure(
        ws.clauses(ident.tables), len(ident.slots), keep), _slots_witness)


def _first_scalar_failure(clauses: list[tuple[str, Scalar, Scalar]]) -> Failure | None:
    """A slotless identity of scalar clauses: the first clause that fails."""
    return next((((), clause, lhs, rhs) for clause, lhs, rhs in clauses if lhs != rhs), None)


def _registry() -> list[Identity]:
    ids: list[Identity] = []

    def add_tables(identity_id: str, group: str, slots: str, fn, hor_id: str = ""):
        """Add a table identity and, with `hor_id`, its clauses on `hor` slots; return fn."""
        ids.append(Identity(identity_id, group, tuple(slots.split()), tables=fn))
        if hor_id:
            ids.append(Identity(hor_id, group, ("hor",) * len(slots.split()), tables=fn))
        return fn

    def add_direct(identity_id: str, group: str, fn) -> None:
        ids.append(Identity(identity_id, group, (), direct=fn))

    def add_failure(identity_id: str, group: str, fn) -> None:
        """A direct identity whose check returns its first failure."""
        add_direct(identity_id, group,
                   lambda ws: check_result(identity_id, fn(ws), _slots_witness))

    # A table's value at (X, Y, ...) is named below: the frame vectors of the
    # identity's slots, then the output vector for a vector-valued side.  u,
    # v and s are the rank-1 tables of u, v and sigma; u.tensor(t) is
    # u(X) t(Y, ...) and _middle(u, t) is u(Y) t(X, Z).  X0 and Y0 are the
    # horizontal parts of X and Y: ws.horizontal(t, k) keeps the keys of t
    # whose first k indices are horizontal, and ws.horizontal(t) every slot.
    # A `hor` slot is compared on horizontal frame indices only, so a side
    # restricted all the same (`curv_side`, a pullback's `keep`, a factor of
    # a tensor product) is so only to cut the work of building it.

    # ----- axioms -----
    for check_id in ("LIE-ANTISYM", "LIE-JACOBI", "AX-G2", "AX-H2", "AX-J2",
                     "AX-ANTICOMM", "AX-KERNEL", "AX-SKEW", "AX-HGJ", "AX-JH",
                     "AX-JV", "AX-HERM"):
        add_direct(check_id, "axioms", lambda ws, c=check_id: ws.model_checks[c])

    # du(X, Y) = <X, GY> + (sigma ^ v)(X, Y); dv(X, Y) = <X, HY> - (sigma ^ u)(X, Y)
    add_tables("AX-du", "axioms", "any any", lambda ws: [
        ("", ws.du, ws.model.G.permute((1, 0)).add([(1, ws.wedge_sigma_v)]))])
    add_tables("AX-dv", "axioms", "any any", lambda ws: [
        ("", ws.dv, ws.model.H.permute((1, 0)).add([(-1, ws.wedge_sigma_u)]))])

    # ----- contact: structure-tensor derivative identities -----
    # (nabla_U G)X = sigma(U) HX; (nabla_V H)X = -sigma(V) GX
    add_tables("EQ-2.1", "contact", "any", lambda ws: [
        ("U", ws.nUG, combine([(ws.sigma_UV[0], ws.model.H)])),
        ("V", ws.nVH, combine([(-ws.sigma_UV[1], ws.model.G)]))])

    # g((nabla_X J)Y, Z) = u(X)(dsigma(Z, GY) - 2 <HY, Z>)
    #                      + v(X)(dsigma(Z, HY) + 2 <GY, Z>)
    def eq_2_6(ws: Workspace) -> list[TableClause]:
        m, (_, u, v) = ws.model, ws.forms
        at_u = ws.reversed_dsigma(m.G, (1,)).add([(-2, m.H)])
        at_v = ws.reversed_dsigma(m.H, (1,)).add([(2, m.G)])
        return [("", ws.nabla_J, u.tensor(at_u).add([(1, v.tensor(at_v))]))]
    add_tables("EQ-2.6", "contact", "any any any", eq_2_6)

    # nabla_X U = -GX + sigma(X) V; nabla_X V = -HX - sigma(X) U
    def eq_2_7(ws: Workspace) -> list[TableClause]:
        m, (s, u, v) = ws.model, ws.forms
        return [("U", ws.conn.fix(1, m.U_index), combine([(-1, m.G), (1, s.tensor(v))])),
                ("V", ws.conn.fix(1, m.V_index), combine([(-1, m.H), (-1, s.tensor(u))]))]
    add_tables("EQ-2.7", "contact", "any", eq_2_7)

    # nabla_U U = sigma(U) V, nabla_U V = -sigma(U) U, and the same along V
    def eq_2_8(ws: Workspace) -> list[TableClause]:
        m, (_, u, v), (s_u, s_v) = ws.model, ws.forms, ws.sigma_UV
        from_u, from_v = ws.conn.fix(0, m.U_index), ws.conn.fix(0, m.V_index)
        return [("UU", from_u.fix(0, m.U_index), combine([(s_u, v)])),
                ("UV", from_u.fix(0, m.V_index), combine([(-s_u, u)])),
                ("VU", from_v.fix(0, m.U_index), combine([(s_v, v)])),
                ("VV", from_v.fix(0, m.V_index), combine([(-s_v, u)]))]
    add_tables("EQ-2.8", "contact", "", eq_2_8)

    # dsigma(GX, GY) = dsigma(HX, HY) = dsigma(Y, X) - 2 (u(Y)v(X) - v(Y)u(X)) dsigma(U, V)
    def eq_2_9(ws: Workspace) -> list[TableClause]:
        m, every = ws.model, range(ws.model.dim)
        ds_g = ws.dsigma.pullback(m.G, (0, 1), every)
        return [("GH", ds_g, ws.dsigma.pullback(m.H, (0, 1), every)),
                ("flip", ds_g,
                 ws.dsigma.permute((1, 0)).add([(2 * ws.dUV, ws.vertical_mix_table)]))]
    add_tables("EQ-2.9", "contact", "any any", eq_2_9)

    # dsigma(U, X) = v(X) dsigma(U, V); dsigma(V, X) = -u(X) dsigma(U, V)
    add_tables("EQ-2.10", "contact", "any", lambda ws: [
        ("U", ws.dsigma.fix(0, ws.model.U_index), combine([(ws.dUV, ws.forms[2])])),
        ("V", ws.dsigma.fix(0, ws.model.V_index), combine([(-ws.dUV, ws.forms[1])]))])

    # (nabla_X u)Y = -u(nabla_X Y) = <X, GY> + sigma(X) v(Y), and
    # (nabla_X v)Y = <X, HY> - sigma(X) u(Y)
    def eq_3_1(ws: Workspace) -> list[TableClause]:
        m, (s, u, v) = ws.model, ws.forms
        return [("u", combine([(-1, ws.conn.fix(2, m.U_index))]),
                 m.G.permute((1, 0)).add([(1, s.tensor(v))])),
                ("v", combine([(-1, ws.conn.fix(2, m.V_index))]),
                 m.H.permute((1, 0)).add([(-1, s.tensor(u))]))]
    add_tables("EQ-3.1", "contact", "any any", eq_3_1)

    # <(nabla_W A)X, W'> = 0 for A = G, H, J, W and W' vertical, X horizontal
    def eq_3_2_block(ws: Workspace) -> list[TableClause]:
        m = ws.model
        zero = Table.from_values(m.dim, 1, {})
        parts = [("GU.V", ws.nUG, m.V_index), ("HU.V", ws.nUH, m.V_index),
                 ("GU.U", ws.nUG, m.U_index), ("HU.U", ws.nUH, m.U_index),
                 ("GV.U", ws.nVG, m.U_index), ("HV.U", ws.nVH, m.U_index),
                 ("GV.V", ws.nVG, m.V_index), ("HV.V", ws.nVH, m.V_index),
                 ("JU.V", ws.nUJ, m.V_index), ("JU.U", ws.nUJ, m.U_index),
                 ("JV.U", ws.nVJ, m.U_index), ("JV.V", ws.nVJ, m.V_index)]
        return [(name, a.fix(1, w), zero) for name, a, w in parts]
    add_tables("EQ-3.2-BLOCK", "contact", "hor", eq_3_2_block)

    # (nabla_U A)X = (nabla_U A)X0 and (nabla_V A)X = (nabla_V A)X0
    for eq_id, attr_u, attr_v in (("EQ-3.3", "nUG", "nVG"),
                                  ("EQ-3.4", "nUH", "nVH"),
                                  ("EQ-3.5", "nUJ", "nVJ")):
        def projector(ws: Workspace, a=attr_u, b=attr_v) -> list[TableClause]:
            at_u, at_v = getattr(ws, a), getattr(ws, b)
            return [("U", at_u, ws.horizontal(at_u, 1)), ("V", at_v, ws.horizontal(at_v, 1))]
        add_tables(eq_id, "contact", "any", projector)

    # <(nabla_W A)X, Y> for W = U, V, with the right-hand sides on X0 and Y0
    add_tables("EQ-3.6", "contact", "any any", lambda ws: [
        ("", ws.nUG, ws.horizontal(combine([(ws.sigma_UV[0], ws.model.H)])))])
    add_tables("EQ-3.7", "contact", "any any", lambda ws: [
        ("", ws.nVG, ws.horizontal(combine([(ws.sigma_UV[1], ws.model.H),
                                            (1, ws.dsigma.permute((1, 0))), (-2, ws.model.J)])))])
    add_tables("EQ-3.8", "contact", "any any", lambda ws: [
        ("", ws.nVH, ws.horizontal(combine([(-ws.sigma_UV[1], ws.model.G)])))])
    add_tables("EQ-3.9", "contact", "any any", lambda ws: [
        ("", ws.nUH, ws.horizontal(combine([(-ws.sigma_UV[0], ws.model.G),
                                            (-1, ws.dsigma.permute((1, 0))), (2, ws.model.J)])))])
    add_tables("EQ-3.10", "contact", "any any", lambda ws: [
        ("", ws.nUJ.compose(ws.model.G),
         ws.horizontal(combine([(-1, ws.dsigma.permute((1, 0))), (-2, ws.model.J)])))])
    # dsigma(Y0, G X0) - 2 <H X0, Y0>
    add_tables("EQ-3.11", "contact", "any any", lambda ws: [
        ("", ws.nVJ.compose(ws.model.G),
         ws.horizontal(ws.reversed_dsigma(ws.model.G, (1,)).add([(-2, ws.model.H)])))])

    # dsigma(X, Y) = 2 <J X0, Y0> + <(nabla_U J) G X0, Y0>
    #                + dsigma(U, V)(u(X)v(Y) - v(X)u(Y)), and EQ-2.22 on horizontal X, Y
    add_tables("EQ-4.11", "contact", "any any", lambda ws: [
        ("", ws.dsigma, ws.horizontal(ws.nUJ.compose(ws.model.G).add([(2, ws.model.J)])).add(
            [(ws.dUV, ws.vertical_mix_table)]))], "EQ-2.22")

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

    # (nabla_X J)Y = -2 u(X) HY + 2 v(X) GY + u(X)(2 H Y0 + (nabla_U J) Y0)
    #                + v(X)(-2 G Y0 + (nabla_U J) J Y0)
    def eq_4_14(ws: Workspace) -> list[TableClause]:
        m, (_, u, v) = ws.model, ws.forms
        at_u = ws.horizontal(ws.nUJ.add([(2, m.H)]), 1)
        at_v = ws.horizontal(ws.nUJ.compose(m.J).add([(-2, m.G)]), 1)
        return [("", ws.nabla_J, combine([(-2, u.tensor(m.H)), (2, v.tensor(m.G)),
                                          (1, u.tensor(at_u)), (1, v.tensor(at_v))]))]
    add_tables("EQ-4.14", "contact", "any any", eq_4_14)

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
        add_direct(f"NORM-{route.upper()}", "normality",
                   lambda ws, r=route: getattr(ws.normality, r))

    # ----- curvature -----
    # R(U, V, V, U) = R(V, U, U, V) = -2 dsigma(U, V)
    def eq_2_11(ws: Workspace) -> Failure | None:
        u, v, target = ws.model.U_index, ws.model.V_index, -2 * ws.dUV
        return _first_scalar_failure([("UVVU", ws.curv.entry(u, v, v, u), target),
                                      ("VUUV", ws.curv.entry(v, u, u, v), target)])
    add_failure("EQ-2.11", "curvature", eq_2_11)

    # EQ-2.20 (A = G, B = H) and EQ-2.21 (A = H, B = G): R(AX, AY, AZ, AW) =
    # R(X, Y, Z, W) - 2 <JZ, W> dsigma(X, Y) + 2 <BX, Y> dsigma(AZ, W)
    # + 2 <JX, Y> dsigma(Z, W) - 2 <BZ, W> dsigma(AX, Y), on horizontal
    # vectors, <J., .> and <B., .> the stored entries of J and B; compared at
    # i < j, k < l only when these four rank-2 factors are skew, as R is in
    # each pair.
    def pulled_back_curvature(a: str, b: str):
        def tables(ws: Workspace) -> list[TableClause]:
            m = ws.model
            factors = [ws.horizontal(ws.dsigma), ws.horizontal(m.J), ws.horizontal(getattr(m, b)),
                       ws.dsigma.pullback(getattr(m, a), (0,), m.horizontal_indices)]
            quarter = all(t.keyed((1, 0), -1)[0] == t.entries for t in factors)
            ds, form_j, form_b, ds_a = [t.pair_quarter() if quarter else t for t in factors]
            return [("", ws.curv_side(a, quarter), ws.curv_side("R", quarter).add([
                (-2, ds.tensor(form_j)), (2, form_b.tensor(ds_a)),
                (2, form_j.tensor(ds)), (-2, ds_a.tensor(form_b))]))]
        return tables
    add_tables("EQ-2.20", "curvature", "hor hor hor hor", pulled_back_curvature("G", "H"))
    add_tables("EQ-2.21", "curvature", "hor hor hor hor", pulled_back_curvature("H", "G"))

    add_tables("EQ-4.1", "curvature", "hor hor hor hor", lambda ws: [
        (a, ws.curv_side(a, True), ws.curv_side("R", True)) for a in "GH"])

    # EQ-4.2 - EQ-4.10: R with a vertical argument, for any X, Y.  Every
    # term they add to EQ-2.12 - EQ-2.19 carries u, v or dsigma(U, V) of a
    # horizontal argument and vanishes, so the latter are the same clauses
    # on `hor` slots; so are EQ-2.22 and EQ-5.6 of EQ-4.11 and EQ-5.10.
    eq_4_2 = add_tables("EQ-4.2", "curvature", "any", lambda ws: [
        ("", ws.curv_xU.fix(1, ws.model.U_index),
         ws.hor_delta.add([(-2 * ws.dUV, ws.forms[2].tensor(ws.forms[2]))]))])
    eq_4_3 = add_tables("EQ-4.3", "curvature", "any", lambda ws: [
        ("", ws.curv_xV.fix(1, ws.model.V_index),
         ws.hor_delta.add([(-2 * ws.dUV, ws.forms[1].tensor(ws.forms[1]))]))])
    # EQ-2.12: R(X, U)U = R(X, V)V = X
    add_tables("EQ-2.12", "curvature", "hor", lambda ws: [
        (part, *ws.clauses(fn)[0][1:]) for part, fn in (("U", eq_4_2), ("V", eq_4_3))])
    # EQ-2.15: R(X, U)V = R_xUV; EQ-2.16: R(X, V)U = R_xVU; EQ-2.19: R(U, V)X = JX
    add_tables("EQ-4.4", "curvature", "any", lambda ws: [
        ("", ws.curv_xU.fix(1, ws.model.V_index),
         ws.R_xUV.add([(2 * ws.dUV, ws.forms[2].tensor(ws.forms[1]))]))], "EQ-2.15")
    add_tables("EQ-4.5", "curvature", "any", lambda ws: [
        ("", ws.curv_xV.fix(1, ws.model.U_index),
         ws.R_xVU.add([(2 * ws.dUV, ws.forms[1].tensor(ws.forms[2]))]))], "EQ-2.16")
    add_tables("EQ-4.6", "curvature", "any", lambda ws: [
        ("", ws.curv.fix(0, ws.model.U_index).fix(0, ws.model.V_index),
         ws.hor_J.add([(2 * ws.dUV, ws.vertical_mix_table)]))], "EQ-2.19")

    # EQ-2.13: R(X, Y)U = 2 (<X, JY> + dsigma(X, Y)) V
    def eq_4_7(ws: Workspace) -> list[TableClause]:
        """R(X, Y)U = -u(X) Y0 + v(X)(sigma(V) H Y0 + (nabla_V G) Y0 + J Y0)
        + u(Y) X0 + v(Y) R_xVU + 2 (<X0, J Y0> + dsigma(X0, Y0)
        + dsigma(U, V)(u(X)v(Y) - v(X)u(Y))) V."""
        m, (_, u, v), (_, s_v) = ws.model, ws.forms, ws.sigma_UV
        at_v = ws.horizontal(combine([(s_v, m.H), (1, ws.nVG), (1, m.J)]), 1)
        vertical = combine([(2, ws.hor_J_dsigma), (2 * ws.dUV, ws.vertical_mix_table)])
        return [("", ws.curv.fix(2, m.U_index), combine([
            (-1, u.tensor(ws.hor_delta)), (1, v.tensor(at_v)), (1, _middle(u, ws.hor_delta)),
            (1, _middle(v, ws.R_xVU)), (1, vertical.tensor(v))]))]
    add_tables("EQ-4.7", "curvature", "any any", eq_4_7, "EQ-2.13")

    # EQ-2.14: R(X, Y)V = -2 (<X, JY> + dsigma(X, Y)) U
    def eq_4_8(ws: Workspace) -> list[TableClause]:
        """R(X, Y)V = -u(X) R_xUV(Y) - v(X) Y0 + u(Y)(-sigma(U) G X0
        + (nabla_U H) X0 - J X0) + v(Y) X0 - 2 (<X0, J Y0> + dsigma(X0, Y0)
        + dsigma(U, V)(u(X)v(Y) - v(X)u(Y))) U."""
        m, (_, u, v), (s_u, _) = ws.model, ws.forms, ws.sigma_UV
        at_u = ws.horizontal(combine([(-s_u, m.G), (1, ws.nUH), (-1, m.J)]), 1)
        vertical = combine([(-2, ws.hor_J_dsigma), (-2 * ws.dUV, ws.vertical_mix_table)])
        return [("", ws.curv.fix(2, m.V_index), combine([
            (-1, u.tensor(ws.R_xUV)), (-1, v.tensor(ws.hor_delta)), (1, _middle(u, at_u)),
            (1, _middle(v, ws.hor_delta)), (1, vertical.tensor(u))]))]
    add_tables("EQ-4.8", "curvature", "any any", eq_4_8, "EQ-2.14")

    # EQ-2.17: R(X, U)Y = -<X, Y> U + (dsigma(Y, X) - <JX, Y>) V
    def eq_4_9(ws: Workspace) -> list[TableClause]:
        """R(X, U)Y = u(Y) X0 - v(X) J Y0 + v(Y) R_xUV + (-<X0, Y0>
        - 2 dsigma(U, V) v(X)v(Y)) U + (dsigma(Y0, X0) - <J X0, Y0>
        - 2 dsigma(U, V) v(X)u(Y)) V."""
        _, u, v = ws.forms
        at_u = combine([(-1, ws.horizontal(ws.delta)), (-2 * ws.dUV, v.tensor(v))])
        at_v = ws.hor_dsigma_J.add([(-2 * ws.dUV, v.tensor(u))])
        return [("", ws.curv_xU, combine([(1, _middle(u, ws.hor_delta)), (-1, v.tensor(ws.hor_J)),
                                          (1, _middle(v, ws.R_xUV)),
                                          (1, at_u.tensor(u)), (1, at_v.tensor(v))]))]
    add_tables("EQ-4.9", "curvature", "any any", eq_4_9, "EQ-2.17")

    # EQ-2.18: R(X, V)Y = -<X, Y> V + (<JX, Y> - dsigma(Y, X)) U
    def eq_4_10(ws: Workspace) -> list[TableClause]:
        """R(X, V)Y = u(X) J Y0 + v(Y) X0 + u(Y)(-sigma(U) H X0 + (nabla_V G) X0
        + J X0) + (-<X0, Y0> + 2 dsigma(U, V) u(X)u(Y)) V + (<J X0, Y0>
        - dsigma(Y0, X0) - 2 dsigma(U, V) u(X)v(Y)) U."""
        m, (_, u, v), (s_u, _) = ws.model, ws.forms, ws.sigma_UV
        at_y = ws.horizontal(combine([(-s_u, m.H), (1, ws.nVG), (1, m.J)]), 1)
        at_v = combine([(-1, ws.horizontal(ws.delta)), (2 * ws.dUV, u.tensor(u))])
        at_u = combine([(-1, ws.hor_dsigma_J), (-2 * ws.dUV, u.tensor(v))])
        return [("", ws.curv_xV, combine([(1, u.tensor(ws.hor_J)), (1, _middle(v, ws.hor_delta)),
                                          (1, _middle(u, at_y)),
                                          (1, at_v.tensor(v)), (1, at_u.tensor(u))]))]
    add_tables("EQ-4.10", "curvature", "any any", eq_4_10, "EQ-2.18")

    add_failure("RIEM-SYM", "curvature", lambda ws: riemann_symmetry_failures(ws.curv))
    add_failure("BIANCHI-1", "curvature", lambda ws: first_bianchi_failures(ws.curv))
    add_failure("BIANCHI-2", "curvature", lambda ws: second_bianchi_failures(
        ws.model, ws.conn, ws.curv))

    # ----- ricci -----
    # rho(AX, AY) = rho(X, Y) and rho(AX, Y) = -rho(X, AY) for A = G, H, on
    # horizontal X, Y
    add_tables("EQ-5.1", "ricci", "hor hor", lambda ws: [
        (name, ws.rho.pullback(a, (0, 1), ws.model.horizontal_indices), ws.rho)
        for name, a in (("G", ws.model.G), ("H", ws.model.H))])
    add_tables("EQ-5.2", "ricci", "hor hor", lambda ws: [
        (name, ws.rho.pullback(a, (0,), ws.model.horizontal_indices),
         combine([(-1, ws.rho.pullback(a, (1,), ws.model.horizontal_indices))]))
        for name, a in (("G", ws.model.G), ("H", ws.model.H))])

    # rho(U, U) = rho(V, V) = 4n - 2 dsigma(U, V), rho(U, V) = 0; and so
    # rho(X, U) = (4n - 2 dsigma(U, V)) u(X), and for V; EQ-5.6: 0 on horizontal X
    def eq_5_7(ws: Workspace) -> Failure | None:
        u, v, target = ws.model.U_index, ws.model.V_index, ws.ricci_target
        return _first_scalar_failure([("UU", ws.rho.entry(u, u), target),
                                      ("VV", ws.rho.entry(v, v), target),
                                      ("UV", ws.rho.entry(u, v), ZERO)])
    add_failure("EQ-5.7", "ricci", eq_5_7)
    add_tables("EQ-5.10", "ricci", "any", lambda ws: [
        ("U", ws.rho.fix(1, ws.model.U_index), combine([(ws.ricci_target, ws.forms[1])])),
        ("V", ws.rho.fix(1, ws.model.V_index), combine([(ws.ricci_target, ws.forms[2])]))],
        "EQ-5.6")

    # rho(X, Y) = rho(X0, Y0) + (4n - 2 dsigma(U, V))(u(X)u(Y) + v(X)v(Y)),
    # and rho(X0, Y0) = rho(AX, AY) for A = G, H
    add_tables("EQ-5.11", "ricci", "any any", lambda ws: [
        ("", ws.rho, ws.horizontal(ws.rho).add([(ws.ricci_target, ws.vertical_square)]))])
    add_tables("EQ-5.12", "ricci", "any any", lambda ws: [
        (name, ws.rho, ws.rho.pullback(a, (0, 1), range(ws.model.dim)).add(
            [(ws.ricci_target, ws.vertical_square)]))
        for name, a in (("G", ws.model.G), ("H", ws.model.H))])

    # Q commutes with G and H; rho read as a map is Q
    add_tables("EQ-5.13", "ricci", "any", lambda ws: [
        (name, ws.rho.compose(a), a.compose(ws.rho)) for name, a in (("G", ws.model.G),
                                                                   ("H", ws.model.H))])

    return ids


def _natural_key(ident: Identity) -> tuple:
    return tuple((0, piece) if index % 2 == 0 else (1, int(piece))
                 for index, piece in enumerate(re.split(r"(\d+)", ident.identity_id)))


# in report order: the ids sorted with their digit runs read as numbers
REGISTRY: tuple[Identity, ...] = tuple(sorted(_registry(), key=_natural_key))


def _selected(selector: str) -> list[Identity]:
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; choose from {SELECTORS}")
    return [ident for ident in REGISTRY if selector == "all" or ident.group == selector]


def registry_ids(selector: str = "all") -> list[str]:
    """Registered identity ids for a selector, in report order."""
    return [ident.identity_id for ident in _selected(selector)]


def run_suite(m: ManifoldModel, selector: str = "all") -> SuiteReport:
    """Evaluate every selected identity on the model; exact, deterministic."""
    chosen = _selected(selector)
    require_lie_algebra(m)
    ws = Workspace(m)
    return SuiteReport(m.name, selector, tuple(
        ident.direct(ws) if ident.direct is not None else _run_tables(ws, ident)
        for ident in chosen))


# ----- expected-values files -----

class ExpectedFormatError(ValueError):
    """Malformed expected-values document; carries the source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ExpectedEntry(Record):
    kind: str
    indices: tuple[int, ...]
    expected: object  # a rank-1 Table for R/conn, Scalar otherwise
    line: int

    def __init__(self, kind: str, indices: tuple[int, ...], expected: object,
                 line: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "line", line)

    @property
    def key(self) -> str:
        return " ".join([self.kind, *map(str, self.indices)])


class ExpectedValues(Record):
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


class DiffEntry(Record):
    key: str
    matched: bool
    expected_text: str
    computed_text: str

    def __init__(self, key: str, matched: bool, expected_text: str,
                 computed_text: str) -> None:
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "matched", matched)
        object.__setattr__(self, "expected_text", expected_text)
        object.__setattr__(self, "computed_text", computed_text)


class DiffReport(Record):
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
        try:
            computed = compute(entry)
        except DegeneratePlane as exc:
            raise DegeneratePlane(f"line {entry.line}: {entry.key}: {exc}") from None
        diffs.append(DiffEntry(
            key=entry.key,
            matched=computed == entry.expected,
            expected_text=format_value(entry.expected),
            computed_text=format_value(computed),
        ))
    return DiffReport(m.name, tuple(diffs))


# ----- deterministic report rendering (shared by the CLI and tests) -----

def check_rows(fmt: str, results: Sequence[CheckResult]) -> list[str]:
    """One `check_id status witness` row per result, for `verify` and
    `validate`: space-joined in text, without the witness when there is
    none; tab-joined in tsv, with an empty witness field."""
    if fmt == "tsv":
        return [f"{r.check_id}\t{r.status}\t{r.witness or ''}" for r in results]
    return [f"{r.check_id} {r.status} {r.witness}" if r.witness else f"{r.check_id} {r.status}"
            for r in results]


def suite_text_rows(report: SuiteReport) -> list[str]:
    return check_rows("text", report.results)


def suite_tsv_rows(report: SuiteReport) -> list[str]:
    return check_rows("tsv", report.results)


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
