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

from functools import cached_property
from typing import Callable

from .core import (
    Failure,
    Record,
    Scalar,
    Status,
    Table,
    combine,
    first_failure,
    format_scalar,
    parse_frame_index,
    parse_scalar,
)


# Largest accepted `n`.  Tables store nonzero int numerators over one den,
# and every slotted identity, RIEM-SYM, BIANCHI-1 and the three normality
# routes compare numerator maps keyed by those stored entries only, their
# slots permuted where a clause asks.  What still scales with d = 4n + 2
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
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)


class ValidationReport(Record):
    model_name: str
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.status is Status.PASS for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status is Status.FAIL)


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


def _check_matrices(check_id: str, pairs: list[tuple[str, Table, Table]]) -> CheckResult:
    """The first clause whose tables differ, at its first differing entry in
    `itertools.product` order.  Rank-2 sides are compared transposed, so
    that their keys run output index first and the entry reads (k, i)."""
    failure = None
    for clause, lhs, rhs in pairs:
        if lhs != rhs:
            order = (1, 0) if lhs.rank == 2 else None
            failure = first_failure([(clause, lhs.keyed(order), rhs.keyed(order))], lhs.rank)
            if failure is not None:
                break
    return check_result(check_id, failure, _entry_witness)


def lie_checks(m: ManifoldModel) -> list[CheckResult]:
    """Bracket antisymmetry and the Jacobi identity, exhaustively.

    LIE-ANTISYM compares the numerator maps of c(i, j, k) and -c(j, i, k).
    The Jacobi sum at (i, j, l, k) is
    sum_m c(i, j, m) c(m, l, k) + c(j, l, m) c(m, i, k) + c(l, i, m) c(m, j, k),
    accumulated from products of nonzero brackets only and compared with
    the empty map.  Each witness is the first failing entry.
    """
    c = m.constants
    results = [check_result("LIE-ANTISYM", first_failure(
        [("", c.keyed(), c.keyed((1, 0, 2), -1))], 3), _entry_witness)]

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
    results.append(check_result("LIE-JACOBI", first_failure(
        [("", (sums, c.den ** 2), ({}, 1))], 4), _entry_witness))
    return results


def structure_tensor_checks(m: ManifoldModel) -> list[CheckResult]:
    """The algebraic axioms on G, H, J, evaluated as exact matrix identities."""
    d = m.dim
    G, H, J = m.G, m.H, m.J
    ident = Table.identity(d)
    vertical_square = combine([(-1, ident), (1, m.U.tensor(m.U)), (1, m.V.tensor(m.V))])
    results = [
        _check_matrices("AX-G2", [("", G.compose(G), vertical_square)]),
        _check_matrices("AX-H2", [("", H.compose(H), vertical_square)]),
        _check_matrices("AX-J2", [("", J.compose(J), combine([(-1, ident)]))]),
        _check_matrices("AX-ANTICOMM", [("", G.compose(J), combine([(-1, J.compose(G))]))]),
    ]

    # G and H kill U and V: each image compared with the empty rank-1 table
    nothing = Table(d, 1, {})
    results.append(_check_matrices("AX-KERNEL", [
        ("G@U", G.contract(m.U), nothing), ("G@V", G.contract(m.V), nothing),
        ("H@U", H.contract(m.U), nothing), ("H@V", H.contract(m.V), nothing)]))

    results.append(_check_matrices("AX-SKEW", [
        ("G", G, combine([(-1, G.permute((1, 0)))])),
        ("H", H, combine([(-1, H.permute((1, 0)))])),
        ("J", J, combine([(-1, J.permute((1, 0)))])),
    ]))

    # HG = -GH = J + u ⊗ V - v ⊗ U, as maps X -> J X + u(X) V - v(X) U
    hg_target = combine([(1, J), (1, m.U.tensor(m.V)), (-1, m.V.tensor(m.U))])
    results.append(_check_matrices("AX-HGJ", [
        ("HG", H.compose(G), hg_target),
        ("-GH", combine([(-1, G.compose(H))]), hg_target),
    ]))
    results.append(_check_matrices("AX-JH", [
        ("JH", J.compose(H), G),
        ("-HJ", combine([(-1, H.compose(J))]), G),
    ]))

    results.append(_check_matrices("AX-JV", [("JV", J.contract(m.V), m.U)]))
    results.append(_check_matrices("AX-HERM",
                                   [("", J.permute((1, 0)).compose(J), ident)]))
    return results


def validate_structure(m: ManifoldModel) -> ValidationReport:
    """Run every registered structural check; failures are entries, not errors."""
    return ValidationReport(m.name, m.lie_results + tuple(structure_tensor_checks(m)))


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
