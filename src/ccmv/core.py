"""Exact linear algebra over a fixed orthonormal frame.

All quantities are coefficient containers over a single global frame of
some dimension d: vectors, endomorphisms (matrices acting on frame
vectors), 1-forms, antisymmetric 2-forms, and 4-index tensors.  Every
coefficient is an exact rational; no floating point appears anywhere.
The metric is the identity in this frame, so the inner product is the
plain coefficient dot product.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands built over frames of different dimensions."""


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"

    def __str__(self) -> str:
        return self.value


def _require_same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatch(f"dimension mismatch: {a} vs {b}")


def nonzero_rows(table):
    """Nonzero index of a nested coefficient table.

    The result has the nesting of `table`, with every innermost row
    replaced by the tuple of its `(index, value)` pairs whose value is
    nonzero.  Kernels loop over these pairs, so they never multiply by a
    stored zero.
    """
    if table and isinstance(table[0], tuple):
        return tuple(nonzero_rows(sub) for sub in table)
    return tuple((k, a) for k, a in enumerate(table) if a)


def nest(flat: list, d: int, depth: int) -> tuple:
    """Regroup a row-major list of d**depth entries as a nested tuple table."""
    rows = [tuple(flat[s:s + d]) for s in range(0, len(flat), d)]
    for _ in range(depth - 2):
        rows = [tuple(rows[s:s + d]) for s in range(0, len(rows), d)]
    return tuple(rows)


class NonzeroIndexed:
    """Mixin for frozen coefficient containers: `nonzero` is the
    `nonzero_rows` index of the table field named by `_TABLE`.

    It is built on first use and cached in the instance dict; it is not a
    dataclass field, so `==`, `hash` and `repr` are unchanged.
    """

    _TABLE = "entries"

    @cached_property
    def nonzero(self):
        return nonzero_rows(getattr(self, self._TABLE))


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z", re.ASCII)
_INDEX_RE = re.compile(r"-?\d+\Z", re.ASCII)


def parse_frame_index(text: str) -> int:
    """Parse a frame index written in ASCII decimal digits.  A leading minus
    is accepted so that callers report a negative index as out of range."""
    if not _INDEX_RE.match(text):
        raise ValueError(f"not a frame index: {text!r}")
    return int(text)


def parse_scalar(text: str) -> Scalar:
    """Parse an exact rational written as `p` or `p/q`; nothing else."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Render a rational as `p` when integral, else `p/q`."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class FrameVector(NonzeroIndexed):
    """Vector as a coefficient tuple over the frame."""

    _TABLE = "coefficients"

    coefficients: tuple[Scalar, ...]

    @staticmethod
    def zero(dim: int) -> FrameVector:
        return FrameVector((ZERO,) * dim)

    @staticmethod
    def basis(dim: int, index: int) -> FrameVector:
        if not 0 <= index < dim:
            raise IndexError(f"frame index {index} out of range for dim {dim}")
        return FrameVector(tuple(ONE if k == index else ZERO for k in range(dim)))

    @staticmethod
    def from_coeffs(coeffs: Iterable[Scalar | int]) -> FrameVector:
        return FrameVector(tuple(Fraction(c) for c in coeffs))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, index: int) -> Scalar:
        return self.coefficients[index]

    def __add__(self, other: FrameVector) -> FrameVector:
        _require_same_dim(self.dim, other.dim)
        return FrameVector(_add_rows(self.coefficients, other.coefficients))

    def __sub__(self, other: FrameVector) -> FrameVector:
        _require_same_dim(self.dim, other.dim)
        return FrameVector(_sub_rows(self.coefficients, other.coefficients))

    def __neg__(self) -> FrameVector:
        return FrameVector(_neg_row(self.coefficients))

    def scale(self, factor: Scalar | int) -> FrameVector:
        return FrameVector(_scale_row(Fraction(factor), self.coefficients))

    def is_zero(self) -> bool:
        return not any(self.coefficients)


def _add_rows(xs: tuple[Scalar, ...], ys: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    return tuple((a + b if b else a) if a else b for a, b in zip(xs, ys))


def _sub_rows(xs: tuple[Scalar, ...], ys: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    return tuple((a - b if b else a) if a else (-b if b else b) for a, b in zip(xs, ys))


def _neg_row(xs: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    return tuple(-a if a else a for a in xs)


def _scale_row(f: Scalar, xs: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    if not f:
        return (ZERO,) * len(xs)
    return tuple(f * a if a else a for a in xs)


def _dot(xs: tuple[Scalar, ...], ys: tuple[Scalar, ...]) -> Scalar:
    total = ZERO
    for a, b in zip(xs, ys):
        if a and b:
            total += a * b
    return total


def inner_product(x: FrameVector, y: FrameVector) -> Scalar:
    """Metric pairing; the frame is orthonormal so this is the dot product."""
    _require_same_dim(x.dim, y.dim)
    return _dot(x.coefficients, y.coefficients)


def vector_combine(coeff_pairs: Sequence[tuple[Scalar | int, FrameVector]]) -> FrameVector:
    """Exact linear combination sum(c_i * v_i); needs at least one pair."""
    if not coeff_pairs:
        raise ValueError("vector_combine needs at least one (coefficient, vector) pair")
    dim = coeff_pairs[0][1].dim
    acc = [ZERO] * dim
    for coeff, vec in coeff_pairs:
        _require_same_dim(dim, vec.dim)
        f = Fraction(coeff)
        if not f:
            continue
        for k, a in enumerate(vec.coefficients):
            if a:
                acc[k] += f * a
    return FrameVector(tuple(acc))


@dataclass(frozen=True)
class Endomorphism:
    """Linear map on frame vectors; entries[k][i] = coefficient of e_k in A(e_i)."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        side = len(self.entries)
        if any(len(row) != side for row in self.entries):
            raise DimensionMismatch("endomorphism matrix must be square")

    @staticmethod
    def zero(dim: int) -> Endomorphism:
        return Endomorphism(tuple((ZERO,) * dim for _ in range(dim)))

    @staticmethod
    def identity(dim: int) -> Endomorphism:
        return Endomorphism(tuple(tuple(ONE if k == i else ZERO for i in range(dim))
                                  for k in range(dim)))

    @staticmethod
    def from_columns(dim: int, columns: dict[int, dict[int, Scalar | int]]) -> Endomorphism:
        """Build from sparse columns: columns[i][k] = coefficient of e_k in A(e_i)."""
        rows = [[ZERO] * dim for _ in range(dim)]
        for i, col in columns.items():
            for k, value in col.items():
                rows[k][i] = Fraction(value)
        return Endomorphism(tuple(tuple(row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, k: int, i: int) -> Scalar:
        return self.entries[k][i]

    def column(self, i: int) -> FrameVector:
        """The image A(e_i)."""
        return FrameVector(tuple(row[i] for row in self.entries))

    @cached_property
    def nonzero(self):
        """Column index, cached like NonzeroIndexed.nonzero: nonzero[i]
        holds the nonzero (k, value) pairs of the image A(e_i)."""
        return nonzero_rows(self.transpose().entries)

    def _image(self, pairs) -> list[Scalar]:
        out = [ZERO] * self.dim
        columns = self.nonzero
        for i, xi in pairs:
            for k, a in columns[i]:
                out[k] += a * xi
        return out

    def apply(self, x: FrameVector) -> FrameVector:
        _require_same_dim(self.dim, x.dim)
        return FrameVector(tuple(self._image(x.nonzero)))

    def compose(self, other: Endomorphism) -> Endomorphism:
        """Matrix product self @ other, i.e. x -> self(other(x))."""
        _require_same_dim(self.dim, other.dim)
        columns = [self._image(column) for column in other.nonzero]
        return Endomorphism(tuple(zip(*columns)))

    def __add__(self, other: Endomorphism) -> Endomorphism:
        _require_same_dim(self.dim, other.dim)
        return Endomorphism(tuple(_add_rows(ra, rb)
                                  for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: Endomorphism) -> Endomorphism:
        _require_same_dim(self.dim, other.dim)
        return Endomorphism(tuple(_sub_rows(ra, rb)
                                  for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> Endomorphism:
        return Endomorphism(tuple(_neg_row(row) for row in self.entries))

    def scale(self, factor: Scalar | int) -> Endomorphism:
        f = Fraction(factor)
        return Endomorphism(tuple(_scale_row(f, row) for row in self.entries))

    def transpose(self) -> Endomorphism:
        d = self.dim
        return Endomorphism(tuple(tuple(self.entries[i][k] for i in range(d))
                                  for k in range(d)))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)


def outer(vec: FrameVector, form: OneForm) -> Endomorphism:
    """Rank-one map x -> form(x) * vec."""
    _require_same_dim(vec.dim, form.dim)
    return Endomorphism(tuple(_scale_row(a, form.coefficients) for a in vec.coefficients))


@dataclass(frozen=True)
class OneForm:
    """Covector; coefficients[i] is the value on e_i."""

    coefficients: tuple[Scalar, ...]

    @staticmethod
    def zero(dim: int) -> OneForm:
        return OneForm((ZERO,) * dim)

    @staticmethod
    def dual(dim: int, index: int) -> OneForm:
        """Metric dual of a frame vector: the form x -> x[index]."""
        if not 0 <= index < dim:
            raise IndexError(f"frame index {index} out of range for dim {dim}")
        return OneForm(tuple(ONE if k == index else ZERO for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def value(self, x: FrameVector) -> Scalar:
        _require_same_dim(self.dim, x.dim)
        return _dot(self.coefficients, x.coefficients)

    def is_zero(self) -> bool:
        return not any(self.coefficients)


def bilinear_value(rows, x: FrameVector, y: FrameVector) -> Scalar:
    """sum x_i y_j a_ij over the `(j, a_ij)` nonzero rows of a square table."""
    ys = y.coefficients
    total = ZERO
    for xi, row in zip(x.coefficients, rows):
        if not xi:
            continue
        for j, a in row:
            yj = ys[j]
            if yj:
                total += xi * yj * a
    return total


@dataclass(frozen=True)
class TwoForm(NonzeroIndexed):
    """Antisymmetric bilinear form; entries[i][j] is the value on (e_i, e_j)."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        side = len(self.entries)
        if any(len(row) != side for row in self.entries):
            raise DimensionMismatch("2-form matrix must be square")
        for i in range(side):
            for j in range(i, side):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise ValueError(f"2-form not antisymmetric at entry ({i}, {j})")

    @staticmethod
    def zero(dim: int) -> TwoForm:
        return TwoForm(tuple((ZERO,) * dim for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def value(self, x: FrameVector, y: FrameVector) -> Scalar:
        _require_same_dim(self.dim, x.dim)
        _require_same_dim(self.dim, y.dim)
        return bilinear_value(self.nonzero, x, y)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)


@dataclass(frozen=True)
class Tensor4(NonzeroIndexed):
    """Dense 4-index coefficient array; no symmetry is imposed here."""

    entries: tuple[tuple[tuple[tuple[Scalar, ...], ...], ...], ...]

    def __post_init__(self) -> None:
        d = len(self.entries)
        for block in self.entries:
            if len(block) != d or any(
                    len(plane) != d or any(len(row) != d for row in plane)
                    for plane in block):
                raise DimensionMismatch("4-index tensor must have equal sides")

    @staticmethod
    def from_function(dim: int, fn) -> Tensor4:
        return Tensor4(tuple(tuple(tuple(tuple(Fraction(fn(i, j, k, el))
                                               for el in range(dim))
                                         for k in range(dim))
                                   for j in range(dim))
                             for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int, k: int, el: int) -> Scalar:
        return self.entries[i][j][k][el]

    def contract(self, x: FrameVector, y: FrameVector, z: FrameVector,
                 w: FrameVector) -> Scalar:
        """Quadrilinear evaluation on four frame vectors."""
        for v in (x, y, z, w):
            _require_same_dim(self.dim, v.dim)
        ws = w.coefficients
        total = ZERO
        for (i, xi), (j, yj), (k, zk) in product(x.nonzero, y.nonzero, z.nonzero):
            row = self.nonzero[i][j][k]
            if not row:
                continue
            part = ZERO
            for el, a in row:
                wl = ws[el]
                if wl:
                    part += wl * a
            if part:
                total += xi * yj * zk * part
        return total

    def contract3(self, x: FrameVector, y: FrameVector, z: FrameVector) -> FrameVector:
        """Trilinear contraction of the first three slots: the vector whose
        e_el component is contract(x, y, z, e_el)."""
        for v in (x, y, z):
            _require_same_dim(self.dim, v.dim)
        out = [ZERO] * self.dim
        for (i, xi), (j, yj), (k, zk) in product(x.nonzero, y.nonzero, z.nonzero):
            row = self.nonzero[i][j][k]
            if row:
                factor = xi * yj * zk
                for el, a in row:
                    out[el] += factor * a
        return FrameVector(tuple(out))


def format_sparse_vector(x: FrameVector) -> str:
    """Render as comma-joined `coeff:index` pairs, or `0` when zero."""
    parts = [f"{format_scalar(a)}:{k}" for k, a in enumerate(x.coefficients) if a]
    return ",".join(parts) if parts else "0"


def parse_sparse_vector(text: str, dim: int) -> FrameVector:
    """Parse the `coeff:index[,coeff:index...]` / `0` sparse vector notation."""
    text = text.strip()
    if text == "0":
        return FrameVector.zero(dim)
    acc = [ZERO] * dim
    seen: set[int] = set()
    for part in text.split(","):
        coeff_text, _, idx_text = part.partition(":")
        if not idx_text:
            raise ValueError(f"bad sparse vector component: {part!r}")
        coeff = parse_scalar(coeff_text)
        try:
            idx = parse_frame_index(idx_text)
        except ValueError:
            raise ValueError(f"bad frame index: {idx_text!r}") from None
        if not 0 <= idx < dim:
            raise ValueError(f"frame index {idx} out of range for dim {dim}")
        if idx in seen:
            raise ValueError(f"duplicate frame index {idx} in sparse vector")
        seen.add(idx)
        acc[idx] = coeff
    return FrameVector(tuple(acc))
