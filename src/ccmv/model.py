"""Homogeneous frame models and their structural validation.

A model is a Lie algebra given by structure constants over an orthonormal
frame of dimension 4n+2, together with three endomorphisms G, H, J that
are required (by the validation suite, not the loader) to satisfy the
complex contact metric axioms.  The last two frame indices play the role
of the distinguished vertical fields U and V.  The metric is the identity
in this frame, so the dual 1-forms u and v are the rank-1 tables of U and
V and need no separate storage.
"""
from __future__ import annotations

from typing import Callable

from .core import (
    Failure,
    Record,
    Scalar,
    Status,
    Table,
    cached_property,
    combine,
    first_failure,
    format_scalar,
    least_nonzero,
    parse_frame_index,
    parse_scalar,
)


# Largest accepted `n`.  Tables store nonzero int numerators over one den,
# and every slotted identity, RIEM-SYM, BIANCHI-1 and the three normality
# routes compare tables at those stored entries only.  What still scales with d = 4n + 2
# is BIANCHI-2's slabs, the about d**3 / 6 triples s < a < b.  Every kernel
# runs on ints, whose length grows with the model's denominators, not d.  The cap bounds
# the size of every table; a suite at n = 13 (d = 54) on the block-diagonal
# Heisenberg model takes seconds, but the cap does not bound the running
# time of a model with long denominators.  A larger `n` is rejected by the
# loader before any table is built.
MAX_N = 13


class ModelFormatError(ValueError):
    """Malformed model document; carries the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidModelError(ValueError):
    """Model rejected by a structural gate (e.g. brackets not a Lie algebra)."""


def structure_constants(dim: int, entries: dict[tuple[int, int, int], Scalar]) -> Table:
    """The bracket table c(i, j, k), the e_k component of [e_i, e_j], so that
    row(i, j) is [e_i, e_j]: built from sparse (i, j, k) -> value with
    i < j and filled antisymmetrically."""
    values = {}
    for (i, j, k), value in entries.items():
        if i >= j:
            raise ValueError(f"bracket entry ({i},{j},{k}): i must be < j")
        values[(i, j, k)] = value
        values[(j, i, k)] = -value
    return Table.from_values(dim, 3, values)


class ManifoldModel(Record):
    """Frame model: the bracket table plus the G, H, J structure tensors,
    rank-2 tables read as maps (row(i) of G is G e_i)."""

    name: str
    n: int
    constants: Table
    G: Table
    H: Table
    J: Table

    @property
    def dim(self) -> int:
        return 4 * self.n + 2

    @property
    def U_index(self) -> int:
        return 4 * self.n

    @property
    def V_index(self) -> int:
        return 4 * self.n + 1

    @cached_property
    def U(self) -> Table:
        """U, and the 1-form u = g(U, .), as a rank-1 table."""
        return self.basis(self.U_index)

    @cached_property
    def V(self) -> Table:
        """V, and the 1-form v = g(V, .), as a rank-1 table."""
        return self.basis(self.V_index)

    # GH and HG, read by AX-HGJ and the normality forms
    @cached_property
    def GH(self) -> Table:
        return self.G.compose(self.H)

    @cached_property
    def HG(self) -> Table:
        return self.H.compose(self.G)

    # the identity map, which is also the metric <X, Y>, and the two vertical
    # tables, read by the axioms, the normality forms and the registry
    @cached_property
    def identity(self) -> Table:
        return Table.identity(self.dim)

    @cached_property
    def vertical_square(self) -> Table:
        """u(X) u(Y) + v(X) v(Y)."""
        return combine([(1, (self.U, self.U)), (1, (self.V, self.V))])

    @cached_property
    def vertical_mix(self) -> Table:
        """<u(Y) V - v(Y) U, Z> at (Y, Z)."""
        return combine([(1, (self.U, self.V)), (-1, (self.V, self.U))])

    @cached_property
    def lie_results(self) -> tuple[CheckResult, ...]:
        """LIE-ANTISYM and LIE-JACOBI, run once per model: the gate before
        curvature work and the validation reports read them here."""
        return tuple(lie_checks(self))

    @property
    def horizontal_indices(self) -> range:
        return range(4 * self.n)

    def basis(self, index: int) -> Table:
        """The frame vector e_index as a rank-1 table."""
        if not 0 <= index < self.dim:
            raise IndexError(f"frame index {index} out of range for dim {self.dim}")
        return Table(self.dim, 1, {(index,): 1})


class CheckResult(Record):
    check_id: str
    status: Status
    witness: str | None = None

    def __init__(self, check_id: str, status: Status, witness: str | None = None) -> None:
        object.__setattr__(self, "__dict__",
                           {"check_id": check_id, "status": status, "witness": witness})


class SuiteReport(Record):
    """A model's check results in report order: the structural checks of
    `validate_structure`, the normality routes of
    `structures.check_normality`, or the identities of `verify.run_suite`."""

    model_name: str
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status is Status.FAIL)

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def result(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


def check_result(check_id: str, failure: Failure | None, witness: Callable) -> CheckResult:
    """A check's result from its first failure: PASS when there is none,
    else FAIL with the witness rendered from (where, clause, lhs, rhs)."""
    if failure is None:
        return CheckResult(check_id, Status.PASS)
    return CheckResult(check_id, Status.FAIL, witness(*failure))


def _entry_witness(where: tuple[int, ...], clause: str, lhs: Scalar, rhs: Scalar) -> str:
    head = f"{clause} " if clause else ""
    idx = ",".join(str(i) for i in where)
    return f"{head}entry=({idx}) lhs={format_scalar(lhs)} rhs={format_scalar(rhs)}"


def _check_matrices(check_id: str, pairs: list[tuple[str, Table | tuple, Table | tuple]]
                    ) -> CheckResult:
    """The first clause whose sides, Tables or terms (c, t), differ, at its
    first differing entry in `itertools.product` order.  A failing clause's
    rank-2 sides are compared again transposed, so that their keys run
    output index first and the entry reads (k, i)."""
    for clause, lhs, rhs in pairs:
        rank = (rhs[1] if type(rhs) is tuple else rhs).rank
        failure = None if lhs == rhs else first_failure([(clause, lhs, rhs)], rank)
        if failure is not None:
            if rank == 2:
                lhs, rhs = [(s[0], s[1].permute((1, 0))) if type(s) is tuple
                            else s.permute((1, 0)) for s in (lhs, rhs)]
                failure = first_failure([(clause, lhs, rhs)], 2)
            break
    return check_result(check_id, failure, _entry_witness)


def lie_checks(m: ManifoldModel) -> list[CheckResult]:
    """Bracket antisymmetry and the Jacobi identity, exhaustively.

    LIE-ANTISYM compares c(i, j, k) with -c(j, i, k).
    The Jacobi sum at (i, j, l, k) is
    sum_m c(i, j, m) c(m, l, k) + c(j, l, m) c(m, i, k) + c(l, i, m) c(m, j, k),
    accumulated from products of nonzero brackets only and compared with
    zero.  Each witness is the first failing entry.
    """
    c = m.constants
    results = [check_result("LIE-ANTISYM", first_failure(
        [("", c, (-1, c.permute((1, 0, 2))))], 3), _entry_witness)]

    # the sums of products of numerators, over the den squared
    sums: dict[tuple[int, int, int, int], int] = {}
    for (a, b, p), first in c.entries.items():
        for e, inner in c.sub(p).items():
            for k, second in inner:
                # c(a, b, p) c(p, e, k) is a term of the sums at
                # (a, b, e, k), (e, a, b, k) and (b, e, a, k)
                term = first * second
                for key in ((a, b, e, k), (e, a, b, k), (b, e, a, k)):
                    sums[key] = sums.get(key, 0) + term
    results.append(check_result("LIE-JACOBI", least_nonzero(sums, c.den ** 2), _entry_witness))
    return results


def structure_tensor_checks(m: ManifoldModel) -> list[CheckResult]:
    """The algebraic axioms on G, H, J, evaluated as exact matrix identities."""
    G, H, J, U, V, ident = m.G, m.H, m.J, m.U, m.V, m.identity
    vertical_square = m.vertical_square.add([(-1, ident)])
    # HG = -GH = J + u ⊗ V - v ⊗ U, as maps X -> J X + u(X) V - v(X) U
    hg_target = J.add([(1, m.vertical_mix)])
    nothing = Table(m.dim, 1, {})
    return [_check_matrices(check_id, pairs) for check_id, pairs in (
        ("AX-G2", [("", G.compose(G), vertical_square)]),
        ("AX-H2", [("", H.compose(H), vertical_square)]),
        ("AX-J2", [("", J.compose(J), (-1, ident))]),
        ("AX-ANTICOMM", [("", G.compose(J), (-1, J.compose(G)))]),
        # G and H kill U and V: each image compared with the empty rank-1 table
        ("AX-KERNEL", [("G@U", G.contract(U), nothing), ("G@V", G.contract(V), nothing),
                       ("H@U", H.contract(U), nothing), ("H@V", H.contract(V), nothing)]),
        ("AX-SKEW", [(name, a, (-1, a.permute((1, 0)))) for name, a in zip("GHJ", (G, H, J))]),
        ("AX-HGJ", [("HG", m.HG, hg_target), ("-GH", (-1, m.GH), hg_target)]),
        ("AX-JH", [("JH", J.compose(H), G), ("-HJ", (-1, H.compose(J)), G)]),
        ("AX-JV", [("JV", J.contract(V), U)]),
        ("AX-HERM", [("", J.permute((1, 0)).compose(J), ident)]))]


def validate_structure(m: ManifoldModel) -> SuiteReport:
    """Run every registered structural check; failures are entries, not errors."""
    return SuiteReport(m.name, m.lie_results + tuple(structure_tensor_checks(m)))


def require_lie_algebra(m: ManifoldModel) -> None:
    """Gate for curvature work: raise unless the brackets form a Lie algebra."""
    for check in m.lie_results:
        if check.status is Status.FAIL:
            raise InvalidModelError(
                f"model {m.name!r} rejected: {check.check_id} fails ({check.witness})")


def load_model(source: str) -> ManifoldModel:
    """Parse a model document.

    Line-oriented, '#' starts a comment, tokens are whitespace-separated.
    The `version` line must come first and `n` must precede every indexed
    line.  Unlisted coefficients are zero.  Structural axioms are NOT
    checked here; run validate_structure on the result.
    """
    name = "model"
    name_seen = False
    version_seen = False
    n_value: int | None = None
    dim = 0
    bracket_entries: dict[tuple[int, int, int], Scalar] = {}
    tensor_entries: dict[str, dict[tuple[int, int], Scalar]] = {"G": {}, "H": {}, "J": {}}

    def parse_index(token: str, line_no: int) -> int:
        try:
            value = parse_frame_index(token)
        except ValueError:
            raise ModelFormatError(line_no, f"expected a frame index, got {token!r}")
        if not 0 <= value < dim:
            raise ModelFormatError(line_no, f"frame index {value} out of range "
                                            f"for dimension {dim}")
        return value

    def parse_value(token: str, line_no: int) -> Scalar:
        try:
            return parse_scalar(token)
        except ValueError as exc:
            raise ModelFormatError(line_no, str(exc))

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if not version_seen:
            if keyword != "version":
                raise ModelFormatError(line_no, "first line must be `version 1`")
            if tokens[1:] != ["1"]:
                raise ModelFormatError(line_no, f"unsupported version {tokens[1:]}")
            version_seen = True
            continue

        if keyword == "version":
            raise ModelFormatError(line_no, "duplicate version line")
        if keyword == "name":
            if name_seen:
                raise ModelFormatError(line_no, "duplicate name line")
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "name takes exactly one token")
            name = tokens[1]
            name_seen = True
            continue
        if keyword == "n":
            if n_value is not None:
                raise ModelFormatError(line_no, "duplicate n line")
            digits = tokens[1].lstrip("0") if len(tokens) == 2 else ""
            if not (digits.isascii() and digits.isdigit()):
                raise ModelFormatError(line_no, "n takes one positive integer")
            if len(digits) > len(str(MAX_N)) or int(digits) > MAX_N:
                raise ModelFormatError(line_no, f"n exceeds the supported maximum {MAX_N}")
            n_value = int(digits)
            dim = 4 * n_value + 2
            continue

        if keyword in ("bracket", "G", "H", "J") and n_value is None:
            raise ModelFormatError(line_no, "n must be declared before indexed lines")

        if keyword == "bracket":
            if len(tokens) != 5:
                raise ModelFormatError(line_no, "bracket takes i j k value")
            i = parse_index(tokens[1], line_no)
            j = parse_index(tokens[2], line_no)
            k = parse_index(tokens[3], line_no)
            if i >= j:
                raise ModelFormatError(line_no, f"bracket {i} {j}: i must be < j")
            if (i, j, k) in bracket_entries:
                raise ModelFormatError(line_no, f"duplicate bracket entry {i} {j} {k}")
            bracket_entries[(i, j, k)] = parse_value(tokens[4], line_no)
            continue

        if keyword in ("G", "H", "J"):
            if len(tokens) != 4:
                raise ModelFormatError(line_no, f"{keyword} takes i k value")
            i = parse_index(tokens[1], line_no)
            k = parse_index(tokens[2], line_no)
            if (i, k) in tensor_entries[keyword]:
                raise ModelFormatError(line_no, f"duplicate {keyword} entry {i} {k}")
            tensor_entries[keyword][(i, k)] = parse_value(tokens[3], line_no)
            continue

        raise ModelFormatError(line_no, f"unknown directive {keyword!r}")

    if not version_seen:
        raise ModelFormatError(1, "empty document: missing `version 1` line")
    if n_value is None:
        raise ModelFormatError(1, "missing n line")

    return ManifoldModel(
        name=name,
        n=n_value,
        constants=structure_constants(dim, bracket_entries),
        G=Table.from_values(dim, 2, tensor_entries["G"]),
        H=Table.from_values(dim, 2, tensor_entries["H"]),
        J=Table.from_values(dim, 2, tensor_entries["J"]),
    )


HEISENBERG_CCM = """\
# Complex Heisenberg group with its left-invariant complex contact
# metric structure, over the orthonormal frame e_0..e_5 (U = e_4, V = e_5).
# Two structure-tensor signs (H 3 0, J 3 2) are the unique choice under
# which the squared-tensor axioms and H = GJ hold; the published table
# lists the opposite signs for these two images.
version 1
name heisenberg
n 1
bracket 0 2 4 -2
bracket 0 3 5 -2
bracket 1 2 5 -2
bracket 1 3 4 2
G 0 2 -1
G 1 3 1
G 2 0 1
G 3 1 -1
H 0 3 -1
H 1 2 -1
H 2 1 1
H 3 0 1
J 0 1 -1
J 1 0 1
J 2 3 -1
J 3 2 1
J 4 5 -1
J 5 4 1
"""


def build_heisenberg() -> ManifoldModel:
    """The built-in complex Heisenberg model (n=1, dimension 6)."""
    return load_model(HEISENBERG_CCM)


def build_abelian() -> ManifoldModel:
    """Same structure tensors over the abelian algebra (all brackets zero).

    Passes every algebraic tensor axiom but is not a contact metric
    structure: the exterior-derivative compatibility and all normality
    routes fail on it.  Useful as a negative control.
    """
    h = build_heisenberg()
    return ManifoldModel(
        name="abelian",
        n=h.n,
        constants=structure_constants(h.dim, {}),
        G=h.G,
        H=h.H,
        J=h.J,
    )
