"""Exact linear algebra over a fixed orthonormal frame.

Everything lives over one global frame of some dimension d.  Every
quantity, from a frame vector or a 1-form to the endomorphisms, 2-forms,
bilinear forms, the connection and bracket tables and the curvature, is a
`Table`: its dimension, its rank, one positive int denominator and the int
numerators of its nonzero entries only, in one unsorted dict keyed by the
full index tuple; a vector or a 1-form is a rank-1 Table, keyed by
1-tuples.  Zeros are never stored and the denominator is reduced, so `==`
is structural, and every kernel is one pass over the stored entries that
costs in proportion to the nonzeros, in int arithmetic; only rendering
sorts.  `Table.contract` is the one evaluation of a table on vectors
and `combine` the one linear combination of tables.  A rank-2 table read
as a map A stores its input slot first: row(i) is A(e_i), `contract(x)` is
A(x) and `compose` composes maps.  Every value handed out is an exact
rational; no floating point appears anywhere.  The metric is the identity
in this frame, so a 1-form and its dual vector are the same table, so are
a bilinear form and its endomorphism, and the inner product of two vectors
is their contraction.
"""
from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import attrgetter, contains, itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Scalar = Fraction

ZERO = Fraction(0)


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
    except ValueError:
        # the only other failure of a matched token: the interpreter's
        # text-to-int digit limit, whose message advises a setting
        raise ValueError(f"a value has more than {sys.get_int_max_str_digits()} "
                         f"decimal digits") from None


class UnprintableValue(ValueError):
    """A rational too long to render: its numerator or denominator has more
    decimal digits than the interpreter converts to text."""


def format_scalar(value: Scalar) -> str:
    """Render a rational as `p` when integral, else `p/q`; UnprintableValue
    when a part exceeds the interpreter's int-to-text digit limit."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise UnprintableValue(
            f"a computed value has more than {sys.get_int_max_str_digits()} "
            f"decimal digits and cannot be printed") from None


class Record:
    """Base of the immutable value classes: the tables, the model and the
    result records.

    A subclass declares its fields as annotated class attributes, in
    order; a field given a value in the class body has it as its default.
    `_fields` names them, a base class's first.  The generic `__init__`
    takes them by position or keyword; a class built once per table or per
    row defines its own, with the fields as its parameters in the same
    order.  Either stores each field with `object.__setattr__`, which
    keeps the values in the instance's inline storage: writing through
    `self.__dict__` would build a dict and slow every later attribute
    read.  Assignment and deletion raise AttributeError; `cached_property`
    still works, as it writes the instance dict.  Two records are equal
    only when they are of the same class with equal fields, so an empty
    DiffReport never equals an empty ValidationReport of the same model
    name; the hash is that of the fields, and the repr names every field.

    Defining a record generates and compiles no functions, so a fresh
    process pays only for the class bodies when it imports ccmv.  The
    modules use `from __future__ import annotations`, so the annotations
    read here are strings and nothing in them is evaluated.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        if own:
            cls._fields = cls._fields + tuple(own)
            cls._defaults = {**cls._defaults,
                             **{name: vars(cls)[name] for name in own if name in vars(cls)}}
            # the fields read at C speed: their tuple, or the one field
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                                f"argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in cls._defaults:
                object.__setattr__(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({parts})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


class Table(Record):
    """Rank-k coefficient table over a frame of dimension `dim`.

    `entries` maps each index tuple with a nonzero value, a 1-tuple at
    rank 1, to its int numerator over `den`, one positive int for the
    whole table; the map is unsorted.  The pair is canonical: den and the
    numerators have no common factor, and den is 1 for an empty table, so
    `==` is structural and exact.  Build tables with `from_values` or
    `from_numerators`, which keep that form; `entry` and `items` hand out
    the values as Fractions, and `row` a reduced rank-1 Table.  `sub`,
    `row` and `contract` read the table by leading indices through one
    prefix index, built on first use and kept out of `==` and the repr.
    """

    dim: int
    rank: int
    entries: dict
    den: int = 1

    def __init__(self, dim: int, rank: int, entries: dict, den: int = 1) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_values(cls, dim: int, rank: int,
                    values: Mapping[tuple[int, ...], Scalar | int]):
        """Build from index tuple -> value; zero values are dropped."""
        keys = values.keys()
        used = set().union(*keys)
        if keys and (set(map(len, keys)) != {rank} or min(used) < 0 or max(used) >= dim):
            bad = next(idx for idx in keys
                       if len(idx) != rank or min(idx) < 0 or max(idx) >= dim)
            raise DimensionMismatch(f"index {bad} does not fit a rank-{rank} "
                                    f"table of dimension {dim}")
        den = lcm(*(a.denominator for a in values.values()))
        return cls.from_numerators(dim, rank, {idx: a.numerator * (den // a.denominator)
                                               for idx, a in values.items()}, den)

    @classmethod
    def from_numerators(cls, dim: int, rank: int, values: Mapping[tuple[int, ...], int],
                        den: int = 1):
        """Build from index tuple -> int numerator over the positive int
        `den`; zeros are dropped and the common factor is divided out."""
        values = {idx: a for idx, a in values.items() if a}
        if den != 1:
            common = gcd(den, *values.values())
            if common != 1:
                den //= common
                values = {idx: a // common for idx, a in values.items()}
        return cls(dim, rank, values, den)

    def numerators(self) -> list[tuple[tuple[int, ...], int]]:
        """Every stored `(index tuple, numerator)` pair, in index order."""
        return sorted(self.entries.items())

    def items(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Every stored `(index tuple, value)` pair, in index order."""
        return [(idx, Fraction(a, self.den)) for idx, a in self.numerators()]

    @cached_property
    def _prefixes(self) -> dict | tuple:
        """The prefix index: dicts keyed by each leading index in turn,
        whose last level holds the row at a full leading index, the list
        of its `(last index, numerator)` pairs; at rank 1, that row as a
        tuple."""
        if self.rank == 1:
            return tuple((k, a) for (k,), a in self.entries.items())
        tree: dict = {}
        for idx, a in self.entries.items():
            node = tree
            for i in idx[:-2]:
                node = node.setdefault(i, {})
            node.setdefault(idx[-2], []).append((idx[-1], a))
        return tree

    def sub(self, *idx: int) -> dict | tuple:
        """The prefix index under a leading index prefix shorter than the
        rank: a dict above the last level, the row's `(index, numerator)`
        pairs at it, and empty where every entry below the prefix is zero."""
        node = self._prefixes
        for i in idx:
            node = node.get(i)
            if node is None:
                return {} if len(idx) < self.rank - 1 else ()
        return node

    def _reduced(self) -> Table:
        """This table with den and the numerators divided by their gcd."""
        if self.den == 1 or gcd(self.den, *self.entries.values()) == 1:
            return self
        return Table.from_numerators(self.dim, self.rank, self.entries, self.den)

    def fix(self, slot: int, index: int) -> Table:
        """The rank-(k-1) Table of the entries whose index in `slot` is
        `index`, that slot dropped: fix(2, u) of R is R(., ., e_u, .)."""
        if self.rank < 2:
            raise ValueError("fixing a slot needs a table of rank 2 or more")
        kept = {idx[:slot] + idx[slot + 1:]: a for idx, a in self.entries.items()
                if idx[slot] == index}
        return Table(self.dim, self.rank - 1, kept, self.den)._reduced()

    def entry(self, *idx: int) -> Scalar:
        a = self.entries.get(idx)
        return ZERO if a is None else Fraction(a, self.den)

    def row(self, *idx: int) -> Table:
        """The last slot at a full leading index, as a reduced rank-1 Table."""
        return Table(self.dim, 1, {(k,): a for k, a in self.sub(*idx)}, self.den)._reduced()

    def contract(self, *vectors: Table) -> Scalar | Table:
        """Contract the leading slots with vectors, rank-1 Tables.

        With every slot filled the result is the Scalar value; with all but
        the last filled it is the rank-1 Table of the last slot.  Only stored
        rows that the vectors' stored entries reach are read, and in the
        scalar case a row's slot coefficients are multiplied in only once
        the row is known to contribute.  The sums are of int numerators,
        divided once by den times the vectors' dens.
        """
        rank, filled = self.rank, len(vectors)
        if filled != rank and filled != rank - 1:
            raise ValueError(f"a rank-{rank} table contracts {rank - 1} or {rank} "
                             f"vectors, not {filled}")
        if not vectors:
            return self.row()
        den = self.den
        for v in vectors:
            _require_same_dim(self.dim, v.dim)
            den *= v.den
        # each vector's numerators by frame index
        coeffs = [{k: a for (k,), a in v.entries.items()} for v in vectors]
        last = coeffs[-1] if filled == rank else None
        if rank == 1:
            return Fraction(sum(a * last[k] for (k,), a in self.entries.items()
                                if k in last), den)
        # every combination of stored entries of the filled slots after the
        # first, up to but not including the table's last slot
        paths = list(product(*[c.items() for c in coeffs[1:rank - 1]]))
        total, out = 0, {}
        for i, a in coeffs[0].items():
            node = self._prefixes.get(i)
            if node is None:
                continue
            for path in paths:
                row = node
                for j, _ in path:
                    row = row.get(j)
                    if row is None:
                        break
                else:
                    if last is None:
                        factor = a
                        for _, c in path:
                            factor *= c
                        for k, b in row:
                            out[(k,)] = out.get((k,), 0) + factor * b
                    else:
                        part = sum(last[k] * b for k, b in row if k in last)
                        if part:
                            part *= a
                            for _, c in path:
                                part *= c
                            total += part
        if last is None:
            return Table.from_numerators(self.dim, 1, out, den)
        return Fraction(total, den)

    def is_zero(self) -> bool:
        return not self.entries

    def restrict(self, keep: range, width: int | None = None) -> Table:
        """The entries whose index in each of the first `width` slots (every
        slot by default) lies in `keep`."""
        width = self.rank if width is None else width
        kept = {idx: a for idx, a in self.entries.items()
                if all(map(keep.__contains__, idx[:width]))}
        return Table(self.dim, self.rank, kept, self.den)._reduced()

    def pullback(self, endo: Table, slots: Sequence[int], keep: range) -> Table:
        """The Table on index tuples in `keep` whose slots in `slots`
        take `endo` of their argument: for slots = (0,), entry (i, ...) is
        the sum over p of endo(e_i)[p] * entry(p, ...).

        One pass over the stored entries per slot, each entry reaching only
        the inputs i whose image has a nonzero coefficient on e_p.  So each
        pass costs the nonzeros times the most inputs any e_p is reached
        from, and never the power of that count the product over the slots
        would cost.  Each pass multiplies den by endo's.
        """
        # into[p] lists (i, c) for every nonzero numerator c of endo(e_i)[p],
        # i in `keep`
        _require_same_dim(self.dim, endo.dim)
        into: dict[int, list[tuple[int, int]]] = {}
        for (i, p), c in endo.entries.items():
            if i in keep:
                into.setdefault(p, []).append((i, c))
        # an entry contributes only if every pulled slot reaches `keep` and
        # every other slot lies in it
        within = [into if s in slots else keep for s in range(self.rank)]
        values = {idx: a for idx, a in self.entries.items() if all(map(contains, within, idx))}
        for slot in slots:
            pulled: dict[tuple[int, ...], int] = {}
            for idx, a in values.items():
                for i, c in into.get(idx[slot], ()):
                    key = idx[:slot] + (i,) + idx[slot + 1:]
                    pulled[key] = pulled.get(key, 0) + c * a
            values = pulled
        return Table.from_numerators(self.dim, self.rank, values,
                                     self.den * endo.den ** len(slots))

    def pair_quarter(self) -> Table:
        """The entries at i < j (and k < l at rank 4), which determine a table
        antisymmetric in those pairs."""
        kept = {idx: a for idx, a in self.entries.items()
                if idx[0] < idx[1] and idx[-2] < idx[-1]}
        return Table(self.dim, self.rank, kept, self.den)._reduced()

    def add(self, terms: Iterable[tuple[Scalar | int, Table]]) -> Table:
        """This table plus c * t for every term (c, t) of the same rank, over
        the lcm of the terms' denominators."""
        terms = list(terms)
        for c, t in terms:
            _require_same_dim(self.dim, t.dim)
            if t.rank != self.rank:
                raise ValueError(f"a rank-{t.rank} table does not add to rank {self.rank}")
        den = lcm(self.den, *(c.denominator * t.den for c, t in terms))
        scale = den // self.den
        values = {key: scale * a for key, a in self.entries.items()}
        for c, t in terms:
            # c * t's numerators brought over den
            scale = c.numerator * (den // (c.denominator * t.den))
            for key, a in t.entries.items():
                values[key] = values.get(key, 0) + scale * a
        return Table.from_numerators(self.dim, self.rank, values, den)

    def tensor(self, other: Table) -> Table:
        """The tensor product self ⊗ other: its entry at (i, j, ..., k, ...)
        is self(i, j, ...) * other(k, ...), over the product of the two
        dens."""
        _require_same_dim(self.dim, other.dim)
        values = {head + tail: x * y for head, x in self.entries.items()
                  for tail, y in other.entries.items()}
        return Table(self.dim, self.rank + other.rank, values,
                     self.den * other.den)._reduced()

    def keyed(self, order: Sequence[int] | None = None,
              sign: int = 1) -> tuple[Mapping[tuple[int, ...], int], int]:
        """The numerators times `sign`, as an unsorted map from index tuple,
        and den; with `order`, those of `permute(order)`, in one pass over
        the stored entries.  With neither, the map is a read-only view of
        the table's own, not a copy."""
        if order is not None and sorted(order) != list(range(self.rank)):
            raise ValueError(f"{tuple(order)} is not an order of {self.rank} slots")
        if order is None or self.rank == 1:
            if sign == 1:
                return MappingProxyType(self.entries), self.den
            return {key: sign * a for key, a in self.entries.items()}, self.den
        # slot s of a stored key moves to slot order[s]
        move = itemgetter(*sorted(range(self.rank), key=order.__getitem__))
        return {move(key): sign * a for key, a in self.entries.items()}, self.den

    def permute(self, order: Sequence[int]) -> Table:
        """The Table whose entry at (i_0, ..., i_r-1) is this table's entry
        at (i_order[0], ..., i_order[r-1]): order (1, 0, 2) swaps the first
        two slots of a rank-3 table, and order (1, 0) transposes a map."""
        return Table.from_numerators(self.dim, self.rank, *self.keyed(order))

    @staticmethod
    def identity(dim: int) -> Table:
        """The identity map, which is also the metric, as a rank-2 table."""
        return Table.from_numerators(dim, 2, {(i, i): 1 for i in range(dim)})

    def compose(self, other: Table) -> Table:
        """Of two rank-2 tables read as maps, self after other, x ->
        self(other(x)): the input slot pulled back through `other`."""
        return self.pullback(other, (0,), range(self.dim))


def combine(terms: Iterable[tuple[Scalar | int, Table]]) -> Table:
    """The sum of c * t over the terms (c, t), at least one, all of one rank."""
    terms = list(terms)
    first = terms[0][1]
    return Table(first.dim, first.rank, {}).add(terms)


# A first failure: the frame tuple, the clause, and both sides there.
Failure = tuple[tuple[int, ...], object, object, object]


def first_failure(clauses: list[tuple[object, tuple[Mapping, int], tuple[Mapping, int]]],
                  width: int, keep: range | None = None) -> Failure | None:
    """First frame tuple, the first `width` indices of a key, where some
    clause's sides differ, in `itertools.product` order: (frame tuple,
    first clause differing there, both sides at its first differing key
    there), or None.  A clause is a label and two sides, each an int
    numerator map, unsorted and not necessarily reduced, and its den.  Only
    the keys of either side are compared, by cross-multiplied numerators,
    and no Fraction is built before the witness.  With `keep`, a key is
    compared only when every index of its frame tuple lies in `keep`: a
    side may hold other keys, and they never fail."""
    failing = []
    for c, (_, (left, dl), (right, dr)) in enumerate(clauses):
        if dl != dr or left != right:
            failing += [(key[:width], c, key) for key in left.keys() | right.keys()
                        if left.get(key, 0) * dr != right.get(key, 0) * dl
                        and (keep is None or all(map(keep.__contains__, key[:width])))]
    if not failing:
        return None
    where, c, key = min(failing)
    label, (left, dl), (right, dr) = clauses[c]
    return where, label, Fraction(left.get(key, 0), dl), Fraction(right.get(key, 0), dr)


def first_table_failure(clauses: list[tuple[str, Table, Table]],
                        width: int, keep: range | None = None) -> Failure | None:
    """`first_failure` of clauses whose sides are Tables of one rank.  With
    `width` one less than the rank, a clause differs at a frame tuple when
    its rows, the vectors of the last slot, do: the first clause wins there
    even if a later one differs at a smaller last index, and the witness is
    both rows."""
    failure = first_failure([(c, lhs.keyed(), rhs.keyed())
                             for c, (_, lhs, rhs) in enumerate(clauses)], width, keep)
    if failure is None:
        return None
    where, c, left, right = failure
    name, lhs, rhs = clauses[c]
    if width == lhs.rank:
        return where, name, left, right
    return where, name, lhs.row(*where), rhs.row(*where)


def format_sparse_vector(x: Table) -> str:
    """Render a vector as comma-joined `coeff:index` pairs, or `0` when zero."""
    parts = [f"{format_scalar(a)}:{k}" for (k,), a in x.items()]
    return ",".join(parts) if parts else "0"


def format_value(value: Table | Scalar) -> str:
    """Render a rank-1 Table as a sparse vector and a scalar as `p` or `p/q`."""
    if isinstance(value, Table):
        return format_sparse_vector(value)
    return format_scalar(value)


def parse_sparse_vector(text: str, dim: int) -> Table:
    """Parse the `coeff:index[,coeff:index...]` / `0` sparse vector notation
    into a rank-1 Table."""
    text = text.strip()
    if text == "0":
        return Table(dim, 1, {})
    values: dict[int, Scalar] = {}
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
        if idx in values:
            raise ValueError(f"duplicate frame index {idx} in sparse vector")
        values[idx] = coeff
    # every index is checked above; the numerators over the lcm go straight in
    den = lcm(*(a.denominator for a in values.values()))
    return Table.from_numerators(dim, 1, {(k,): a.numerator * (den // a.denominator)
                                          for k, a in values.items()}, den)
