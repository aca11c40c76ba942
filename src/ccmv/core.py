"""Exact linear algebra over a fixed orthonormal frame.

Everything lives over one global frame of some dimension d.  Every
quantity, from a frame vector or a 1-form to the endomorphisms, 2-forms,
bilinear forms, the connection and bracket tables and the curvature, is a
`Table`: its dimension, its rank, one positive int denominator and the int
numerators of its nonzero entries only, in one unsorted dict keyed by the
full index tuple; a vector or a 1-form is a rank-1 Table, keyed by
1-tuples.  Zeros are never stored and the denominator is reduced, so `==`
is structural, and every kernel is one pass over the stored entries that
costs in proportion to the nonzeros, in int arithmetic, reading indexes
built once per table; only rendering sorts.  Text is read and written as
int pairs too: a parsed token splits into p and q, and a vector's entry
renders from its numerator and den by one gcd.  `Table.contract` is the one
evaluation of a table on vectors and `combine` the one linear combination
of tables, whose product term c * (a ⊗ b) never builds a ⊗ b.  A rank-2
table read as a map A stores its input slot first: row(i) is A(e_i),
`contract(x)` is A(x) and `compose` composes maps.  Every value handed
out is an exact rational; no floating point appears anywhere.
The metric is the identity in this frame, so a 1-form and its dual vector
are the same table, so are a bilinear form and its endomorphism, and the
inner product of two vectors is their contraction.
"""
from __future__ import annotations

import enum
import functools
import re
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import attrgetter, contains, itemgetter
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


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z", re.ASCII)
_INDEX_RE = re.compile(r"-?\d+\Z", re.ASCII)


def parse_frame_index(text: str) -> int:
    """Parse a frame index written in ASCII decimal digits.  A leading minus
    is accepted so that callers report a negative index as out of range."""
    if not _INDEX_RE.match(text):
        raise ValueError(f"not a frame index: {text!r}")
    return int(text)


def _parse_ratio(text: str) -> tuple[int, int]:
    """The ints (p, q), q > 0, of a rational written `p` or `p/q`, not reduced."""
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"not an exact rational: {text!r}")
    num, den = match.groups()
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError:
        # the only failure of a matched token: the interpreter's text-to-int
        # digit limit, whose message advises a setting
        raise ValueError(f"a value has more than {sys.get_int_max_str_digits()} "
                         f"decimal digits") from None
    if not q:
        raise ValueError(f"not an exact rational: {text!r}")
    return p, q


def parse_scalar(text: str) -> Scalar:
    """Parse an exact rational written as `p` or `p/q`; nothing else."""
    return Fraction(*_parse_ratio(text))


class UnprintableValue(ValueError):
    """A rational too long to render: its numerator or denominator has more
    decimal digits than the interpreter converts to text."""

    def __init__(self) -> None:
        super().__init__(f"a computed value has more than {sys.get_int_max_str_digits()} "
                         f"decimal digits and cannot be printed")


def format_scalar(value: Scalar) -> str:
    """Render a rational as `p` when integral, else `p/q`; UnprintableValue
    when a part exceeds the interpreter's int-to-text digit limit."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise UnprintableValue() from None


class cached_property(functools.cached_property):
    """`functools.cached_property` without the lock Python 3.11 takes on each
    first read: ccmv runs in one thread, and later reads find the dict entry."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.attrname, self.func(instance))


class Record:
    """Base of the immutable value classes: the tables, the model and the
    result records.

    A subclass declares its fields as annotated class attributes, in
    order; a field given a value in the class body has it as its default.
    `_fields` names them, a base class's first.  The generic `__init__`
    takes them by position or keyword; a class built once per table or per
    row defines its own, with the fields as its parameters in the same
    order.  Either sets the whole instance dict in one `object.__setattr__`:
    a Table is built so in 0.7 of the time one call per field takes (0.73
    against 0.98 µs), and four field reads take 42 against 36 ns (3.11).
    Assignment and deletion raise AttributeError; `cached_property` writes
    the instance dict.  Two records are equal only when they are of the
    same class with equal fields, so an empty DiffReport never equals an
    empty SuiteReport of the same model name; the hash is that of the
    fields, and the repr names every field.

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
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                values[name] = cls._defaults[name]
        object.__setattr__(self, "__dict__", values)

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
        object.__setattr__(self, "__dict__",
                           {"dim": dim, "rank": rank, "entries": entries, "den": den})

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
        `den`; zeros are dropped and the common factor, which zeros do not
        change, is divided out, in one copy; `values` is never kept."""
        common = gcd(den, *values.values()) if den != 1 else 1
        if common != 1:
            return cls(dim, rank, {idx: a // common for idx, a in values.items() if a},
                       den // common)
        if 0 in values.values():
            return cls(dim, rank, {idx: a for idx, a in values.items() if a}, den)
        return cls(dim, rank, dict(values), den)

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

    def inputs(self, keep: range) -> dict:
        """A rank-2 map A's input index, its transpose's prefix index: into[p]
        lists `(i, c)` for each numerator c of A(e_i) on e_p, i in `keep`."""
        into = self._transpose._prefixes
        if keep == range(self.dim):
            return into
        return {p: kept for p, row in into.items()
                if (kept := [(i, c) for i, c in row if i in keep])}

    def fix(self, slot: int, index: int) -> Table:
        """The rank-(k-1) Table of the entries whose index in `slot` is
        `index`, that slot dropped: fix(2, u) of R is R(., ., e_u, .)."""
        if self.rank < 2:
            raise ValueError("fixing a slot needs a table of rank 2 or more")
        kept = {idx[:slot] + idx[slot + 1:]: a for idx, a in self.entries.items()
                if idx[slot] == index}
        return Table.from_numerators(self.dim, self.rank - 1, kept, self.den)

    def entry(self, *idx: int) -> Scalar:
        a = self.entries.get(idx)
        return ZERO if a is None else Fraction(a, self.den)

    def row(self, *idx: int) -> Table:
        """The last slot at a full leading index, as a reduced rank-1 Table."""
        return Table.from_numerators(self.dim, 1, {(k,): a for k, a in self.sub(*idx)}, self.den)

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
        return Table.from_numerators(self.dim, self.rank,
                                     _within(self.entries.items(), keep, width), self.den)

    def pullback(self, endo: Table, slots: Sequence[int], keep: range) -> Table:
        """The Table on index tuples in `keep` whose slots in `slots`
        take `endo` of their argument: for slots = (0,), entry (i, ...) is
        the sum over p of endo(e_i)[p] * entry(p, ...).

        One pass over the stored entries per slot, each entry reaching only
        the inputs i whose image has a nonzero coefficient on e_p (`inputs`).
        So each pass costs the nonzeros times the most inputs any e_p is
        reached from, and never the power of that count the product over the
        slots would cost.  Each pass multiplies den by endo's.
        """
        _require_same_dim(self.dim, endo.dim)
        into = endo.inputs(keep)
        values = self.entries
        if keep != range(self.dim):
            # an entry contributes only if every pulled slot reaches `keep`
            # and every other slot lies in it (on the whole frame, the slot
            # loop skips an entry that reaches nothing)
            within = [into if s in slots else keep for s in range(self.rank)]
            values = {idx: a for idx, a in values.items() if all(map(contains, within, idx))}
        for slot in slots:
            pulled: dict[tuple[int, ...], int] = {}
            for idx, a in values.items():
                for i, c in into.get(idx[slot], ()):
                    key = idx[:slot] + (i,) + idx[slot + 1:]
                    pulled[key] = pulled.get(key, 0) + c * a
            values = pulled
        return Table.from_numerators(self.dim, self.rank, values,
                                     self.den * endo.den ** len(slots))

    @cached_property
    def quarter(self) -> Table:
        """The entries at i < j (and k < l at rank 4), which determine a table
        antisymmetric in those pairs; built once per table."""
        kept = {idx: a for idx, a in self.entries.items()
                if idx[0] < idx[1] and idx[-2] < idx[-1]}
        return Table.from_numerators(self.dim, self.rank, kept, self.den)

    def add(self, terms: Iterable[Term], keep: range | None = None,
            width: int | None = None) -> Table:
        """This table plus the terms, plain or product, as `combine` sums
        them, on the keys `combine` keeps with `keep` and `width`."""
        return _fold(self.dim, self.rank, terms, self.entries, self.den, keep, width)

    def tensor(self, other: Table) -> Table:
        """The tensor product self ⊗ other, entry (i, ..., k, ...) = self(i,
        ...) * other(k, ...): `combine` of the product term (1, (self, other))."""
        return combine([(1, (self, other))])

    def permute(self, order: Sequence[int]) -> Table:
        """The Table whose entry at (i_0, ..., i_r-1) is this table's entry
        at (i_order[0], ..., i_order[r-1]), canonical as it is: order (1, 0, 2)
        swaps the first two slots of a rank-3 table, (1, 0) transposes a map."""
        if self.rank == 2 and order == (1, 0):
            return self._transpose
        if sorted(order) != list(range(self.rank)):
            raise ValueError(f"{tuple(order)} is not an order of {self.rank} slots")
        if self.rank == 1:
            return self
        # slot s of a stored key moves to slot order[s]
        move = itemgetter(*sorted(range(self.rank), key=order.__getitem__))
        return Table(self.dim, self.rank, {move(key): a for key, a in self.entries.items()},
                     self.den)

    @cached_property
    def _transpose(self) -> Table:
        """A rank-2 table's transpose, built once per table."""
        return Table(self.dim, 2, {(j, i): a for (i, j), a in self.entries.items()}, self.den)

    @staticmethod
    def identity(dim: int) -> Table:
        """The identity map, which is also the metric, as a rank-2 table."""
        return Table.from_numerators(dim, 2, {(i, i): 1 for i in range(dim)})

    def compose(self, other: Table) -> Table:
        """Of two rank-2 tables read as maps, self after other, x ->
        self(other(x)): each entry other(i, p) times this map's row p."""
        _require_same_dim(self.dim, other.dim)
        rows, values = self._prefixes, {}
        for (i, p), c in other.entries.items():
            for k, a in rows.get(p, ()):
                values[i, k] = values.get((i, k), 0) + c * a
        return Table.from_numerators(self.dim, 2, values, self.den * other.den)


# A term of `add` and `combine`: (c, t), the product term (c, (a, b)), or
# (c, (a, b, s)), whose key puts a's indices at slot s of b's.
Term = tuple[Scalar | int, "Table | tuple[Table, Table] | tuple[Table, Table, int]"]


def combine(terms: Iterable[Term], keep: range | None = None,
            width: int | None = None) -> Table:
    """The sum of c * t over the terms (c, t) and of c * (a ⊗ b) over the
    product terms (c, (a, b)), or (c, (a, b, s)) with a's indices at slot s
    of b's, so that (c, (u, t, 1)) is c u(Y) t(X, Z): at least one term, all
    of one rank and dimension, checked and brought over the lcm of their
    dens in one loop, summed and reduced once.  A product term's numerators
    are multiplied straight into the sum, so a ⊗ b is never built.  With
    `keep`, the sum is `restrict(keep, width)` of the whole one, in the
    same table."""
    terms = list(terms)
    if not terms:
        raise ValueError("combine needs at least one term")
    first = terms[0][1]
    a, b = first[:2] if type(first) is tuple else (first, None)
    return _fold(a.dim, a.rank + (0 if b is None else b.rank), terms, {}, 1, keep, width)


def _within(items: Iterable, keep: range, width: int | None) -> dict:
    """The (key, value) pairs whose first `width` indices (every index for
    None) lie in `keep`."""
    if width == 1:
        return {key: a for key, a in items if key[0] in keep}
    return {key: a for key, a in items if all(map(keep.__contains__, key[:width]))}


def _fold(dim: int, rank: int, terms: Iterable[Term], entries: Mapping, base: int,
          keep: range | None = None, width: int | None = None) -> Table:
    """The numerators `entries` over `base` plus every term, as `combine`."""
    den, folds = base, []
    for c, t in terms:
        if type(t) is tuple:
            a, b = t[0], t[1]
            if a.dim != dim or b.dim != dim:
                raise DimensionMismatch(f"dimension mismatch: {dim} vs "
                                        f"{b.dim if a.dim == dim else a.dim}")
            q, r = c.denominator * a.den * b.den, a.rank + b.rank
        else:
            if t.dim != dim:
                raise DimensionMismatch(f"dimension mismatch: {dim} vs {t.dim}")
            q, r = c.denominator * t.den, t.rank
        if r != rank:
            raise ValueError(f"a rank-{r} table does not add to rank {rank}")
        folds.append((c.numerator, q, t))
        if den % q:
            den = lcm(den, q)
    scale = den // base
    values = dict(entries) if scale == 1 else {key: scale * a for key, a in entries.items()}
    for num, q, t in folds:
        # each term's numerators brought over den
        scale = num * (den // q)
        if type(t) is not tuple:
            for key, a in t.entries.items():
                values[key] = values.get(key, 0) + scale * a
            continue
        a, b = t[0], t[1]
        at = t[2] if len(t) == 3 else 0
        heads, tails = a.entries.items(), b.entries.items()
        if at:
            tails = [(tail[:at], tail[at:], y) for tail, y in tails]
            for head, x in heads:
                x *= scale
                for left, right, y in tails:
                    key = left + head + right
                    values[key] = values.get(key, 0) + x * y
            continue
        for head, x in heads:
            x *= scale
            for tail, y in tails:
                key = head + tail
                values[key] = values.get(key, 0) + x * y
    if keep is not None:
        values = _within(values.items(), keep, width)
    return Table.from_numerators(dim, rank, values, den)


# A first failure: the frame tuple, the clause, and both sides there.
Failure = tuple[tuple[int, ...], object, object, object]


def first_failure(clauses: list[tuple[str, Table | tuple, Table | tuple]],
                  width: int, keep: range | None = None) -> Failure | None:
    """First frame tuple, the first `width` indices of a key, where some
    clause's sides differ, in `itertools.product` order: (frame tuple,
    first clause differing there, both sides there), or None.  A clause is
    a label and two sides of one rank, each a Table t or a term (c, t)
    compared as c * t, so a negated or scaled side needs no scaled copy.
    Only the keys of either side are compared, by cross-multiplied
    numerators, and no Fraction is built before the reduced witness.  With
    `keep`, a key is compared only when every index of its frame tuple lies
    in `keep`: a side may hold other keys, and they never fail.  A clause's
    keys are read in sorted order, up to its least failing key.  The
    witness is both values at that key, or, when `width` is one less than
    the rank, both rows, the vectors of the last slot: a clause differs at
    a frame tuple when its rows do, and the first clause wins there even if
    a later one differs at a smaller last index."""
    firsts = []
    for c, (_, lhs, rhs) in enumerate(clauses):
        # a key fails where left * pl / ql != right * pr / qr
        left, pl, ql = (lhs.entries, 1, lhs.den) if type(lhs) is Table else _term(lhs)
        right, pr, qr = (rhs.entries, 1, rhs.den) if type(rhs) is Table else _term(rhs)
        wl, wr = pl * qr, pr * ql
        if wl == wr and left == right or wl != wr and left.keys() == right.keys() and all(
                a * wl == right[key] * wr for key, a in left.items()):
            continue
        for key in sorted(left.keys() | right.keys()):
            a, b = left.get(key, 0), right.get(key, 0)
            if a * wl != b * wr and (keep is None or all(map(keep.__contains__, key[:width]))):
                # min never reads past c, which is this clause's alone
                firsts.append((key[:width], c, pl * a, ql, pr * b, qr))
                break
    if not firsts:
        return None
    where, c, a, ql, b, qr = min(firsts)
    label, lhs, rhs = clauses[c]
    if width == (lhs[1] if type(lhs) is tuple else lhs).rank - 1:
        return where, label, _row(lhs, where), _row(rhs, where)
    return where, label, Fraction(a, ql), Fraction(b, qr)


def _term(side: tuple) -> tuple:
    """A term (c, t) as `first_failure` reads it: t's numerators, c's
    numerator, and t's den times c's denominator."""
    c, t = side
    return t.entries, c.numerator, t.den * c.denominator


def _row(side: Table | tuple, where: tuple[int, ...]) -> Table:
    """A side's row at `where`, read by d lookups and reduced as `row` is."""
    c, t = side if type(side) is tuple else (1, side)
    return Table.from_numerators(t.dim, 1, {(k,): c.numerator * a for k in range(t.dim)
                                            if (a := t.entries.get((*where, k)))},
                                 t.den * c.denominator)


def least_nonzero(sums: Mapping[tuple[int, ...], int], den: int,
                  prefix: tuple[int, ...] = ()) -> Failure | None:
    """The first failure of int sums over `den` compared with zero: (prefix
    and the least key whose sum is nonzero, "", that sum, 0), or None when
    every sum is zero, and then no key list is built."""
    if not any(sums.values()):
        return None
    key = min(key for key, a in sums.items() if a)
    return prefix + key, "", Fraction(sums[key], den), ZERO


def format_sparse_vector(x: Table) -> str:
    """Render a vector as comma-joined `coeff:index` pairs, or `0` when zero,
    each coeff as `format_scalar` renders its numerator over den."""
    den, parts = x.den, []
    try:
        for (k,), a in x.numerators():
            g = gcd(a, den)
            parts.append(f"{a // g}:{k}" if g == den else f"{a // g}/{den // g}:{k}")
    except ValueError:
        raise UnprintableValue() from None
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
    values: dict[int, tuple[int, int]] = {}
    for part in text.split(","):
        coeff_text, _, idx_text = part.partition(":")
        if not idx_text:
            raise ValueError(f"bad sparse vector component: {part!r}")
        coeff = _parse_ratio(coeff_text)
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
    den = lcm(*(q for _, q in values.values()))
    return Table.from_numerators(dim, 1, {(k,): p * (den // q)
                                          for k, (p, q) in values.items()}, den)
