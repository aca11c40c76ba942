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
equivalent to the S/T definition.  Every quantity involved is a rank-3
table built once per workspace from stored nonzeros: g((nabla_{e_i} A)
e_j, e_k) for A = G, H, J straight from the connection, the Prop. 2.1
right-hand sides as sums of tensor products of sigma, u and v with the
structure tensors, and Thm. 4.5's closed forms, the torsions and S and T
as vector-valued tables whose row (i, j) is the vector at (e_i, e_j).  A
route compares them by `core.first_failure`, the comparison under every
check, which reports the first failing frame tuple in `itertools.product`
order.  Every quantity is linear in each slot, so a route that holds on
every frame tuple holds on all vectors, and no route evaluates any other
vector.

The published displays carry sign and term misprints; the identity
registry in the verify module states each as-printed display (EQ-2.4,
EQ-2.5, EQ-4.12, EQ-4.13) as the corrected form plus a named delta, the
literal difference of the printed terms, and those with a nonzero delta
FAIL on the built-in model.
"""
from __future__ import annotations

from .core import (
    Scalar,
    Table,
    cached_property,
    combine,
    first_failure,
    format_value,
)
from .connection import (
    cov_deriv_table,
    exterior_d_oneform,
    sigma_form,
    wedge,
)
from .model import CheckResult, ManifoldModel, SuiteReport, check_result


def _alternate(t: Table) -> Table:
    """t(X, Y) - t(Y, X), alternating the first two slots."""
    return t.add([(-1, t.permute((1, 0, 2)))])


class ConnectionWorkspace:
    """Connection-level quantities of one model; the derived ones are
    computed on first use.

    The obstruction tensors, the three normality routes and the identity
    registry (whose Workspace adds curvature on top) all read them here.
    """

    def __init__(self, m: ManifoldModel, conn: Table):
        self.model = m
        self.conn = conn
        # tables built once per workspace on first request, by key
        self._built: dict = {}

    @cached_property
    def sigma(self) -> Table:
        return sigma_form(self.model, self.conn)

    @cached_property
    def dsigma(self) -> Table:
        return exterior_d_oneform(self.model, self.sigma)

    @cached_property
    def dUV(self) -> Scalar:
        return self.dsigma.entry(self.model.U_index, self.model.V_index)

    @cached_property
    def du(self) -> Table:
        return exterior_d_oneform(self.model, self.model.U)

    @cached_property
    def dv(self) -> Table:
        return exterior_d_oneform(self.model, self.model.V)

    @cached_property
    def wedge_sigma_u(self) -> Table:
        return wedge(self.sigma, self.model.U)

    @cached_property
    def wedge_sigma_v(self) -> Table:
        return wedge(self.sigma, self.model.V)

    # nabla_U and nabla_V of the structure tensors, as maps: row j of nUG
    # is (nabla_U G) e_j
    @cached_property
    def nUG(self) -> Table:
        return self.nabla_G.fix(0, self.model.U_index)

    @cached_property
    def nVG(self) -> Table:
        return self.nabla_G.fix(0, self.model.V_index)

    @cached_property
    def nUH(self) -> Table:
        return self.nabla_H.fix(0, self.model.U_index)

    @cached_property
    def nVH(self) -> Table:
        return self.nabla_H.fix(0, self.model.V_index)

    @cached_property
    def nUJ(self) -> Table:
        return self.nabla_J.fix(0, self.model.U_index)

    @cached_property
    def nVJ(self) -> Table:
        return self.nabla_J.fix(0, self.model.V_index)

    # ----- rank-3 tables: slots (X, Y, Z), or (X, Y) and the output vector -----

    @cached_property
    def nabla_G(self) -> Table:
        """g((nabla_X G)Y, Z); row (i, j) is (nabla_{e_i} G) e_j."""
        return cov_deriv_table(self.conn, self.model.G)

    @cached_property
    def nabla_H(self) -> Table:
        """g((nabla_X H)Y, Z); row (i, j) is (nabla_{e_i} H) e_j."""
        return cov_deriv_table(self.conn, self.model.H)

    @cached_property
    def nabla_J(self) -> Table:
        """g((nabla_X J)Y, Z); row (i, j) is (nabla_{e_i} J) e_j."""
        return cov_deriv_table(self.conn, self.model.J)

    @cached_property
    def forms(self) -> tuple[Table, Table, Table]:
        """sigma, u and v: the rank-1 tables of sigma, U and V."""
        return self.sigma, self.model.U, self.model.V

    @cached_property
    def hor(self) -> range:
        """The horizontal frame indices."""
        return self.model.horizontal_indices

    def horizontal(self, t: Table, width: int | None = None) -> Table:
        """t with its first `width` arguments (every one by default)
        projected to the horizontal part: the keys with U or V in those
        slots dropped; built once per table and width."""
        key = id(t), width
        if key not in self._built:
            # t is kept so that its id is not reused
            self._built[key] = t.restrict(self.hor, width), t
        return self._built[key][0]

    @cached_property
    def nUJ_G(self) -> Table:
        """<(nabla_U J) G Y, Z> at (Y, Z)."""
        return self.nUJ.compose(self.model.G)

    @cached_property
    def nUJ_G0(self) -> Table:
        """<(nabla_U J) G Y0, Z> at (Y, Z), with Y0 the horizontal part of Y."""
        return self.horizontal(self.nUJ_G, 1)

    def reversed_dsigma(self, a: Table, slots: tuple[int, ...]) -> Table:
        """dsigma(Z, Y) at (Y, Z), with the arguments in `slots` fed through
        A: slots (1,) give dsigma(Z, AY), slots (0, 1) dsigma(AZ, AY)."""
        return self.dsigma.permute((1, 0)).pullback(a, [1 - s for s in slots],
                                                    range(self.model.dim))

    # Prop. 2.1 and Thm. 4.5 write (nabla_X G)Y alike except for its v(X)
    # terms, and (nabla_X H)Y except for its u(X) terms.
    @cached_property
    def _shared_G(self) -> Table:
        """sigma(X) HY - u(Y) X - v(Y) JX + <X, Y> U + <JX, Y> V."""
        m, (s, u, v) = self.model, self.forms
        return combine([(1, (s, m.H)), (-1, (u, m.identity, 1)),
                        (-1, (v, m.J, 1)), (1, (m.identity, u)), (1, (m.J, v))])

    @cached_property
    def _shared_H(self) -> Table:
        """-sigma(X) GY + u(Y) JX - v(Y) X - <JX, Y> U + <X, Y> V."""
        m, (s, u, v) = self.model, self.forms
        return combine([(-1, (s, m.G)), (1, (u, m.J, 1)),
                        (-1, (v, m.identity, 1)), (-1, (m.J, u)), (1, (m.identity, v))])

    @cached_property
    def prop21_G(self) -> Table:
        """Prop. 2.1: the value of g((nabla_X G)Y, Z) on a normal structure,
        the shared terms plus v(X) (dsigma(GZ, GY) - 2 <HGY, Z>)."""
        m, (_, _, v) = self.model, self.forms
        return self._shared_G.add([(1, (v, self.reversed_dsigma(m.G, (0, 1)))),
                                   (-2, (v, m.HG))])

    @cached_property
    def prop21_H(self) -> Table:
        """Prop. 2.1: the value of g((nabla_X H)Y, Z) on a normal structure,
        the shared terms minus u(X) (dsigma(HZ, HY) + 2 <GHY, Z>)."""
        m, (_, u, _) = self.model, self.forms
        return self._shared_H.add([(-1, (u, self.reversed_dsigma(m.H, (0, 1)))),
                                   (-2, (u, m.GH))])

    @cached_property
    def _thm45_vertical(self) -> Table:
        """2 J Y0 + (nabla_U J) G Y0 - 2 JY - (2 + dsigma(U, V)) (u(Y) V - v(Y) U)
        at (Y, Z), with Y0 the horizontal part of Y: the coefficient of v(X)
        in Thm. 4.5's (nabla_X G)Y, and of -u(X) in its (nabla_X H)Y."""
        m = self.model
        return self.nUJ_G0.add([(2, self.horizontal(m.J, 1)), (-2, m.J),
                                (-(2 + self.dUV), m.vertical_mix)])

    @cached_property
    def thm45_G(self) -> Table:
        """Thm. 4.5: the closed form of (nabla_X G)Y on a normal structure,
        the shared terms plus their v(X) part."""
        _, _, v = self.forms
        return self._shared_G.add([(1, (v, self._thm45_vertical))])

    @cached_property
    def thm45_H(self) -> Table:
        """Thm. 4.5: the closed form of (nabla_X H)Y on a normal structure,
        the shared terms plus their u(X) part."""
        _, u, _ = self.forms
        return self._shared_H.add([(-1, (u, self._thm45_vertical))])

    def _torsion(self, a: Table, nabla_a: Table) -> Table:
        """[A,A](X,Y) = (nabla_{AX}A)Y - (nabla_{AY}A)X - A(nabla_X A)Y
        + A(nabla_Y A)X: the first and third terms, alternated."""
        every = range(self.model.dim)
        return _alternate(nabla_a.pullback(a, (0,), every).add(
            [(-1, nabla_a.pullback(a.permute((1, 0)), (2,), every))]))

    @cached_property
    def torsion_G(self) -> Table:
        return self._torsion(self.model.G, self.nabla_G)

    @cached_property
    def torsion_H(self) -> Table:
        return self._torsion(self.model.H, self.nabla_H)

    @cached_property
    def obstruction_S(self) -> Table:
        """First obstruction tensor, built on the torsion of G: [G,G](X,Y)
        + 2 <X, GY> U - 2 <X, HY> V + 2 v(Y) HX - 2 v(X) HY
        + sigma(GY) HX - sigma(GX) HY + sigma(X) GHY - sigma(Y) GHX."""
        m, (s, u, v) = self.model, self.forms
        s_G = s.pullback(m.G, (0,), range(m.dim))             # sigma(G.)
        return self.torsion_G.add([
            (2, (m.G.permute((1, 0)), u)), (-2, (m.H.permute((1, 0)), v)),
            (2, (v, m.H, 1)), (-2, (v, m.H)), (1, (s_G, m.H, 1)), (-1, (s_G, m.H)),
            (1, (s, m.GH)), (-1, (s, m.GH, 1))])

    @cached_property
    def obstruction_T(self) -> Table:
        """Second obstruction tensor, built on the torsion of H: [H,H](X,Y)
        - 2 <X, GY> U + 2 <X, HY> V + 2 u(Y) GX - 2 u(X) GY
        + sigma(HX) GY - sigma(HY) GX + sigma(X) GHY - sigma(Y) GHX."""
        m, (s, u, v) = self.model, self.forms
        s_H = s.pullback(m.H, (0,), range(m.dim))             # sigma(H.)
        return self.torsion_H.add([
            (-2, (m.G.permute((1, 0)), u)), (2, (m.H.permute((1, 0)), v)),
            (2, (u, m.G, 1)), (-2, (u, m.G)), (1, (s_H, m.G)), (-1, (s_H, m.G, 1)),
            (1, (s, m.GH)), (-1, (s, m.GH, 1))])


def _route_witness(where: tuple[int, ...], label: str, lhs, rhs) -> str:
    """A route's witness: the clause, its frame tuple and both sides there."""
    slots = ",".join(map(str, where))
    return f"{label} slots={slots} lhs={format_value(lhs)} rhs={format_value(rhs)}"


def _route_korkmaz(ctx: ConnectionWorkspace) -> CheckResult:
    """S and T on horizontal pairs, the comparison's frame range, S before T
    at each pair; then S(e_i, U) and T(e_i, V) for every frame index i, S
    before T at each i: each compared with 0 times itself, nothing."""
    m, S, T = ctx.model, ctx.obstruction_S, ctx.obstruction_T
    failure = first_failure([("S", S, (0, S)), ("T", T, (0, T))], 2, ctx.hor)
    if failure is None:
        s_u, t_v = S.fix(1, m.U_index), T.fix(1, m.V_index)
        vertical = first_failure([("S(.,U)", s_u, (0, s_u)), ("T(.,V)", t_v, (0, t_v))], 1)
        if vertical is not None:
            (i,), label, lhs, rhs = vertical
            failure = (i, m.U_index if label == "S(.,U)" else m.V_index), label, lhs, rhs
    return check_result("NORM-KORKMAZ", failure, _route_witness)


def check_normality(ctx: ConnectionWorkspace) -> SuiteReport:
    """Decide normality by all three routes and report each with a witness,
    in order NORM-KORKMAZ, NORM-PROP21, NORM-THM45; the model is normal
    when all three PASS, and the routes must agree.

    The routes read the connection-level tables of `ctx`, so a caller that
    already holds a workspace builds them once.  The table comparisons are
    exhaustive and complete: every quantity involved is linear in each of
    its slots, so tables that agree on every frame tuple agree everywhere.
    """
    return SuiteReport(ctx.model.name, (
        _route_korkmaz(ctx),
        check_result("NORM-PROP21", first_failure(
            [("G", ctx.nabla_G, ctx.prop21_G), ("H", ctx.nabla_H, ctx.prop21_H)], 3),
            _route_witness),
        check_result("NORM-THM45", first_failure(
            [("G", ctx.nabla_G, ctx.thm45_G), ("H", ctx.nabla_H, ctx.thm45_H)], 2),
            _route_witness)))
