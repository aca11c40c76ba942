"""Exact arithmetic primitives."""
from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccmv.core import (
    DimensionMismatch,
    Status,
    Table,
    combine,
    format_scalar,
    format_sparse_vector,
    format_value,
    parse_scalar,
    parse_sparse_vector,
)

from conftest import basis, tensor4_from_function, vector

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
vectors6 = st.lists(rationals, min_size=6, max_size=6).map(vector)


class TestScalarText:
    def test_parse_integer(self):
        assert parse_scalar("-7") == Fraction(-7)

    def test_parse_fraction(self):
        assert parse_scalar("3/4") == Fraction(3, 4)

    def test_parse_names_the_digit_limit(self):
        # the interpreter's own message advises sys.set_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as info:
            parse_scalar("7" * (limit + 701))
        assert str(info.value) == f"a value has more than {limit} decimal digits"
        with pytest.raises(ValueError, match="more than"):
            parse_scalar("1/" + "3" * (limit + 1))

    def test_format_integer(self):
        assert format_scalar(Fraction(-2)) == "-2"

    def test_format_fraction(self):
        assert format_scalar(Fraction(-1, 2)) == "-1/2"

    @pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5", "1 /2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    @given(rationals)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, q):
        assert parse_scalar(format_scalar(q)) == q


class TestVectors:
    """A vector or a 1-form is a rank-1 Table; the inner product of two is
    their contraction."""

    def test_basis(self):
        e2 = basis(4, 2)
        assert (e2.rank, e2.entries, e2.den) == (1, ((2, 1),), 1)
        assert e2.entry(2) == 1 and e2.entry(0) == 0

    def test_zero(self):
        assert vector([0, 0, 0]).is_zero()

    def test_arithmetic(self):
        x, y = vector([1, 2]), vector([3, -1])
        assert combine([(1, x), (1, y)]) == vector([4, 1])
        assert combine([(1, x), (-1, y)]) == vector([-2, 3])
        assert combine([(-1, x)]) == vector([-1, -2])
        assert combine([(Fraction(1, 2), x)]) == vector([Fraction(1, 2), 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vector([1]).add([(1, vector([1, 2]))])
        with pytest.raises(DimensionMismatch):
            vector([1]).contract(vector([1, 2]))

    @given(vectors6, vectors6, rationals)
    @settings(max_examples=30, deadline=None)
    def test_contract_bilinear_symmetric(self, x, y, a):
        assert x.contract(y) == y.contract(x)
        assert combine([(a, x)]).contract(y) == a * x.contract(y)

    @given(vectors6, vectors6, vectors6)
    @settings(max_examples=30, deadline=None)
    def test_contract_additive(self, x, y, z):
        assert combine([(1, x), (1, y)]).contract(z) == x.contract(z) + y.contract(z)


class TestMaps:
    """A rank-2 table read as a map stores its input slot first: row(i) is
    the image of e_i."""

    def test_identity_and_zero(self):
        ident = Table.identity(3)
        x = vector([1, 2, 3])
        assert ident.contract(x) == x
        assert Table.from_values(3, 2, {}).contract(x).is_zero()

    def test_entry_row_and_contract(self):
        # the map e_0 -> 5 e_1
        a = Table.from_values(2, 2, {(0, 1): Fraction(5)})
        assert a.entry(0, 1) == 5 and a.entry(1, 0) == 0
        assert a.row(0) == vector([0, 5])
        assert a.contract(basis(2, 0)) == vector([0, 5])

    def test_compose_order(self):
        # compose(other) is self after other
        swap = Table.from_values(2, 2, {(0, 1): 1, (1, 0): 1})
        scale0 = Table.from_values(2, 2, {(0, 0): 2, (1, 1): 1})
        x = basis(2, 0)
        assert scale0.compose(swap).contract(x) == scale0.contract(swap.contract(x))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_compose_is_the_matrix_product(self, data):
        a, b = data.draw(prime_tables(2)), data.draw(prime_tables(2))
        # a after b sends e_i to a(b(e_i)): entry (i, k) is sum_p b(i, p) a(p, k)
        assert a.compose(b) == Table.from_values(4, 2, {
            (i, k): sum(b.entry(i, p) * a.entry(p, k) for p in range(4))
            for i, k in product(range(4), repeat=2)})
        ident = Table.identity(4)
        assert a.compose(ident) == a == ident.compose(a)

    def test_transpose_is_a_permutation(self):
        a = Table.from_values(2, 2, {(0, 1): Fraction(3)})
        assert a.permute((1, 0)).entry(1, 0) == 3
        assert a.permute((1, 0)).contract(basis(2, 1)) == vector([3, 0])

    def test_form_tensor_vector_is_a_rank_one_map(self):
        # x -> form(x) vec
        vec, form = basis(3, 1), basis(3, 2)
        rank_one = form.tensor(vec)
        assert rank_one.contract(basis(3, 2)) == vec
        assert rank_one.contract(basis(3, 0)).is_zero()

    def test_combine(self):
        a = Table.from_values(2, 2, {(0, 1): Fraction(1, 2), (1, 1): 1})
        ident = Table.identity(2)
        assert combine([(-1, a)]) == Table.from_values(2, 2, {(0, 1): Fraction(-1, 2),
                                                              (1, 1): -1})
        assert combine([(2, a), (-1, ident)]) == Table.from_values(2, 2, {(0, 0): -1,
                                                                          (0, 1): 1,
                                                                          (1, 1): 1})
        assert combine(iter([(1, a), (-1, a)])).is_zero()
        with pytest.raises(ValueError, match="does not add"):
            combine([(1, a), (1, basis(2, 0))])


class TestForms:
    def test_oneform_is_its_dual_vector(self):
        u = basis(4, 3)
        assert u.contract(basis(4, 3)) == 1
        assert u.contract(basis(4, 0)) == 0

    def test_twoform_value(self):
        w = Table.from_values(2, 2, {(0, 1): Fraction(2), (1, 0): Fraction(-2)})
        x, y = basis(2, 0), basis(2, 1)
        assert w.contract(x, y) == 2
        assert w.contract(y, x) == -2


class TestTensor4:
    def test_from_function_and_contract(self):
        t = tensor4_from_function(
            2, lambda i, j, k, el: Fraction(1) if (i, j, k, el) == (0, 1, 1, 0)
            else Fraction(0))
        assert t.entry(0, 1, 1, 0) == 1
        x, y = basis(2, 0), basis(2, 1)
        assert t.contract(x, y, y, x) == 1
        assert t.contract(y, x, y, x) == 0

    @given(vectors6, vectors6, rationals)
    @settings(max_examples=15, deadline=None)
    def test_contract_linear_in_first_slot(self, x, y, a):
        t = tensor4_from_function(
            6, lambda i, j, k, el: Fraction((i - j) * (k - el)))
        z, w = basis(6, 2), basis(6, 5)
        assert t.contract(combine([(a, x), (1, y)]), z, w, z) == \
            a * t.contract(x, z, w, z) + t.contract(y, z, w, z)


def dense_contract(values: dict, dim: int, rank: int, vectors) -> Fraction | Table:
    """The contraction as the plain sum over every index tuple."""
    def term(idx):
        coeff = values.get(idx, Fraction(0))
        for v, i in zip(vectors, idx):
            coeff *= v.entry(i)
        return coeff
    if len(vectors) == rank:
        return sum((term(idx) for idx in product(range(dim), repeat=rank)), Fraction(0))
    return vector([sum((term(head + (k,)) for head in product(range(dim), repeat=rank - 1)),
                       Fraction(0))
                   for k in range(dim)])


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)
# values over prime denominators, so that sums and products of them carry
# dens that must be reduced
prime_ratios = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def prime_tables(draw, rank):
    """A random sparse rank-k table over dim 4 with prime-denominator values."""
    index = st.tuples(*[st.integers(0, 3)] * rank)
    return Table.from_values(4, rank, draw(st.dictionaries(index, prime_ratios, max_size=12)))


@st.composite
def tables_and_vectors(draw, rank):
    """A random sparse rank-k table over dim 4 (explicit zeros included),
    with rank or rank - 1 random vectors, some of them zero."""
    dim = 4
    index = st.tuples(*[st.integers(0, dim - 1)] * rank)
    values = draw(st.dictionaries(index, sparse_rationals, max_size=3 * dim))
    filled = draw(st.sampled_from([rank, rank - 1]))
    vectors = st.one_of(st.just(Table.from_values(dim, 1, {})),
                        st.lists(sparse_rationals, min_size=dim, max_size=dim).map(vector))
    return values, dim, [draw(vectors) for _ in range(filled)]


class TestTable:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_contract_matches_dense_sum(self, rank, data):
        values, dim, vectors = data.draw(tables_and_vectors(rank))
        table = Table.from_values(dim, rank, values)
        result = table.contract(*vectors)
        assert result == dense_contract(values, dim, rank, vectors)
        assert type(result) is (Fraction if len(vectors) == rank else Table)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_zero_table_contracts_to_zero(self, rank):
        table = Table.from_values(3, rank, {})
        ones = vector([1, 2, 3])
        assert table.is_zero() and table.entries == {}
        assert table.contract(*[ones] * rank) == 0
        assert table.contract(*[ones] * (rank - 1)) == Table.from_values(3, 1, {})

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_explicit_zeros_are_not_stored(self, data):
        values, dim, _ = data.draw(tables_and_vectors(3))
        nonzero = {idx: value for idx, value in values.items() if value}
        table = Table.from_values(dim, 3, values)
        assert table == Table.from_values(dim, 3, nonzero)
        assert dict(table.items()) == nonzero
        assert all(table.entry(*idx) == values.get(idx, 0)
                   for idx in product(range(dim), repeat=3))

    def test_contract_rejects_wrong_slot_count(self):
        table = Table.from_values(2, 3, {(0, 1, 1): Fraction(1)})
        with pytest.raises(ValueError):
            table.contract(basis(2, 0))

    def test_from_values_rejects_out_of_range_index(self):
        with pytest.raises(DimensionMismatch):
            Table.from_values(2, 2, {(0, 2): Fraction(1)})

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_add_tensor_permute_match_dense_entries(self, data):
        a, dim, _ = data.draw(tables_and_vectors(2))
        b, _, _ = data.draw(tables_and_vectors(2))
        form = {(i,): c for i, c in enumerate(data.draw(st.lists(
            sparse_rationals, min_size=dim, max_size=dim))) if c}
        c = data.draw(st.sampled_from([1, -1, 0, Fraction(2, 3)]))
        ta, tb, tf = (Table.from_values(dim, 2, a), Table.from_values(dim, 2, b),
                      Table.from_values(dim, 1, form))
        total, swapped = ta.add([(c, tb)]), ta.permute((1, 0))
        left, right = tf.tensor(ta), ta.tensor(tf)
        middle = left.permute((1, 0, 2))
        for i, j in product(range(dim), repeat=2):
            assert total.entry(i, j) == a.get((i, j), 0) + c * b.get((i, j), 0)
            assert swapped.entry(i, j) == a.get((j, i), 0)
            for k in range(dim):
                f, g = form.get((i,), 0), form.get((j,), 0)
                assert left.entry(i, j, k) == f * a.get((j, k), 0)
                assert right.entry(i, j, k) == a.get((i, j), 0) * form.get((k,), 0)
                assert middle.entry(i, j, k) == g * a.get((i, k), 0)
        assert all(type(t) is Table for t in (total, swapped, left, right, middle))

    def test_rank_one_tables(self):
        form = Table.from_values(3, 1, {(2,): Fraction(5), (0,): Fraction(-1), (1,): 0})
        assert (form.den, form.entries) == (1, ((0, -1), (2, 5)))
        assert form.items() == [((0,), -1), ((2,), 5)]
        assert form.entry(2) == 5 and form.entry(1) == 0
        assert form.row() == form == vector([-1, 0, 5])
        assert Table.from_values(3, 1, {}).is_zero()
        swap = Table.from_values(3, 2, {(0, 1): 1, (1, 0): 1, (2, 2): 1})
        assert form.pullback(swap, (0,), range(3)).items() == [((1,), -1), ((2,), 5)]

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_an_empty_table_has_den_one(self, rank):
        empty = Table.from_values(3, rank, {})
        assert empty.den == 1 and empty.items() == [] and empty.is_zero()
        # zeros over any den, and a fix or restrict that keeps nothing
        assert Table.from_numerators(3, rank, {(0,) * rank: 0}, 6) == empty
        full = Table.from_values(3, rank, {(1,) * rank: Fraction(1, 6)})
        assert full.restrict(range(1)) == empty
        if rank > 1:
            assert full.fix(0, 0) == Table.from_values(3, rank - 1, {})

    def test_den_is_the_reduced_common_denominator(self):
        # denominators 4, 6 and 10: the lcm is 60, their product 240
        values = {(0, 1, 2): Fraction(-3, 4), (1, 0, 0): Fraction(5, 6),
                  (1, 2, 2): Fraction(-7, 10), (2, 2, 1): Fraction(-4)}
        table = Table.from_values(3, 3, values)
        assert table.den == 60
        assert table.numerators() == [((0, 1, 2), -45), ((1, 0, 0), 50),
                                      ((1, 2, 2), -42), ((2, 2, 1), -240)]
        assert all(type(a) is int for _, a in table.numerators())
        form = Table.from_values(4, 1, {(0,): Fraction(-1, 2), (3,): Fraction(2, 3)})
        assert (form.den, form.entries) == (6, ((0, -3), (3, 4)))
        # a common factor of den and every numerator is divided out
        reduced = Table.from_numerators(3, 2, {(0, 1): 6, (1, 2): -9}, 12)
        assert (reduced.den, reduced.entries) == (4, {0: ((1, 2),), 1: ((2, -3),)})
        # keeping part of a table leaves a common factor to divide out
        assert table.restrict(range(1), 1).numerators() == [((0, 1, 2), -3)]
        assert table.restrict(range(1), 1).den == 4 and table.fix(0, 2).den == 1

    def test_equality_is_structural(self):
        t = Table.from_values(3, 2, {(0, 1): Fraction(1, 2), (2, 2): Fraction(-1, 3)})
        u = Table.from_values(3, 2, {(0, 1): Fraction(3, 5), (1, 0): 7})
        assert t.add([(1, u), (-1, u)]) == t
        assert t.add([(Fraction(2, 7), u)]).add([(Fraction(-2, 7), u)]) == t
        assert t.permute((1, 0)).permute((1, 0)) == t
        half = Table.from_values(3, 1, {(0,): Fraction(1, 2)})
        two = Table.from_values(3, 1, {(1,): 2})
        assert half.tensor(two) == Table.from_values(3, 2, {(0, 1): 1})
        assert half.tensor(two).den == 1
        assert t.restrict(range(2)) == Table.from_values(3, 2, {(0, 1): Fraction(1, 2)})
        assert t != t.add([(1, u)]) and t.add([(1, u)]) == u.add([(1, t)])

    def test_values_are_handed_out_as_fractions(self):
        for t in (Table.from_values(3, 2, {(0, 1): 2, (2, 0): -1}),
                  Table.from_values(3, 2, {(0, 1): Fraction(2, 3), (2, 0): -1})):
            assert all(type(a) is Fraction for _, a in t.items())
            assert all(type(t.entry(i, j)) is Fraction for i, j in product(range(3), repeat=2))
            assert all(type(a) is Fraction for i in range(3) for _, a in t.row(i).items())
            assert t.entry(0, 1) == dict(t.items())[(0, 1)] == t.row(0).entry(1)
        assert Table.from_values(3, 2, {(0, 1): Fraction(2, 3)}).entry(0, 1) == Fraction(2, 3)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_fraction_references_on_prime_dens(self, data):
        dim, t, other = 4, data.draw(prime_tables(3)), data.draw(prime_tables(3))
        form, endo = data.draw(prime_tables(1)), data.draw(prime_tables(2))
        c = data.draw(prime_ratios)
        keep, width = range(data.draw(st.integers(0, dim))), data.draw(st.integers(0, 3))
        slots = data.draw(st.sampled_from([(0,), (2,), (0, 1), (0, 1, 2)]))
        slot, index = data.draw(st.integers(0, 2)), data.draw(st.integers(0, dim - 1))
        order = data.draw(st.permutations(range(3)))
        a, b, f, e = dict(t.items()), dict(other.items()), dict(form.items()), dict(endo.items())
        total = dict(a)
        for key, v in b.items():
            total[key] = total.get(key, 0) + c * v
        pulled = {}
        for key, v in a.items():
            # each pulled slot s reaches every i in keep whose image has a
            # nonzero coefficient on e_key[s]
            choices = [[(i, e[i, key[s]]) for i in keep if (i, key[s]) in e] if s in slots
                       else [(key[s], 1)] if key[s] in keep else [] for s in range(3)]
            for combo in product(*choices):
                idx = tuple(i for i, _ in combo)
                term = v
                for _, x in combo:
                    term *= x
                pulled[idx] = pulled.get(idx, 0) + term
        cases = [
            (t.add([(c, other)]), total),
            (t.tensor(form), {x + y: v * w for x, v in a.items() for y, w in f.items()}),
            (form.tensor(t), {y + x: w * v for x, v in a.items() for y, w in f.items()}),
            (t.permute(order), {tuple(key[order.index(s)] for s in range(3)): v
                                for key, v in a.items()}),
            (t.fix(slot, index), {key[:slot] + key[slot + 1:]: v for key, v in a.items()
                                  if key[slot] == index}),
            (t.restrict(keep, width), {key: v for key, v in a.items()
                                       if all(i in keep for i in key[:width])}),
            (t.pullback(endo, slots, keep), pulled),
        ]
        for result, expected in cases:
            expected = {key: v for key, v in expected.items() if v}
            assert type(result) is Table
            assert dict(result.items()) == expected
            assert result == Table.from_values(dim, result.rank, expected)
            assert gcd(result.den, *(x for _, x in result.numerators())) == 1
        # the unsorted numerator map of the permuted table, times a sign
        permuted, den = t.keyed(order, -1)
        assert {key: Fraction(-x, den) for key, x in permuted.items()} == dict(
            t.permute(order).items())

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tree_walks_equal_tables_built_from_values(self, rank, data):
        # fix, restrict and tensor build their trees directly; each must be
        # the table from_values builds from the same entries, empty
        # subtrees pruned, or `==` would tell them apart
        values, dim, _ = data.draw(tables_and_vectors(rank))
        table = Table.from_values(dim, rank, values)
        stored = dict(table.items())
        slot, index = data.draw(st.integers(0, rank - 1)), data.draw(st.integers(0, dim - 1))
        assert table.fix(slot, index) == Table.from_values(dim, rank - 1, {
            key[:slot] + key[slot + 1:]: a for key, a in stored.items() if key[slot] == index})
        keep, width = range(data.draw(st.integers(0, dim))), data.draw(st.integers(0, rank))
        assert table.restrict(keep, width) == Table.from_values(dim, rank, {
            key: a for key, a in stored.items() if all(i in keep for i in key[:width])})
        assert table.restrict(keep) == table.restrict(keep, rank)
        form = Table.from_values(dim, 1, {(i,): c for i, c in enumerate(data.draw(st.lists(
            sparse_rationals, min_size=dim, max_size=dim))) if c})
        for left, right in ((table, form), (form, table)):
            assert left.tensor(right) == Table.from_values(dim, rank + 1, {
                head + tail: x * y for head, x in left.items() for tail, y in right.items()})

    def test_fix_reads_one_slot(self):
        table = Table.from_values(3, 3, {(0, 1, 2): Fraction(1), (2, 1, 0): Fraction(-2),
                                         (2, 0, 2): Fraction(3)})
        assert table.fix(1, 1).items() == [((0, 2), 1), ((2, 0), -2)]
        assert table.fix(2, 2).items() == [((0, 1), 1), ((2, 0), 3)]
        assert table.fix(0, 2).fix(0, 0).items() == [((2,), 3)]
        assert table.fix(0, 1) == Table.from_values(3, 2, {})
        assert type(Table.identity(3).fix(0, 1)) is Table
        with pytest.raises(ValueError, match="rank 2 or more"):
            table.fix(0, 0).fix(0, 2).fix(0, 0)

    def test_add_and_permute_reject_mismatched_slots(self):
        table = Table.from_values(2, 2, {(0, 1): Fraction(1)})
        with pytest.raises(ValueError, match="does not add"):
            table.add([(1, table.tensor(table))])
        with pytest.raises(ValueError, match="is not an order"):
            table.permute((0, 0))
        with pytest.raises(ValueError, match="is not an order"):
            table.keyed((1,))


class TestSparseVectorText:
    def test_format_zero(self):
        assert format_sparse_vector(Table.from_values(4, 1, {})) == "0"

    def test_format_entries(self):
        x = vector([0, Fraction(-1, 2), 0, 3])
        assert format_sparse_vector(x) == "-1/2:1,3:3"

    def test_parse(self):
        x = parse_sparse_vector("-1/2:1,3:3", 4)
        assert x == vector([0, Fraction(-1, 2), 0, 3])
        assert (x.rank, x.den, x.entries) == (1, 2, ((1, -1), (3, 6)))

    def test_parse_brings_the_values_over_one_reduced_den(self):
        x = parse_sparse_vector("0:0,1/6:1,-3/4:3", 4)
        assert x == vector([0, Fraction(1, 6), 0, Fraction(-3, 4)])
        assert (x.den, x.entries) == (12, ((1, 2), (3, -9)))

    @pytest.mark.parametrize("bad,message", [
        ("1:", "bad sparse vector component: '1:'"),
        ("1:x", "bad frame index: 'x'"),
        ("1:9", "frame index 9 out of range for dim 4"),
        ("1:1,2:1", "duplicate frame index 1 in sparse vector"),
    ])
    def test_parse_error_messages(self, bad, message):
        with pytest.raises(ValueError) as info:
            parse_sparse_vector(bad, 4)
        assert str(info.value) == message

    def test_format_value_renders_tables_and_scalars(self):
        assert format_value(vector([0, Fraction(-1, 2), 0, 3])) == "-1/2:1,3:3"
        assert format_value(Table.from_values(2, 1, {})) == "0"
        assert format_value(Fraction(-3, 4)) == "-3/4"
        assert format_value(Fraction(2)) == "2"

    def test_parse_zero(self):
        assert parse_sparse_vector("0", 3).is_zero()

    @pytest.mark.parametrize("bad", ["1:9", "1:", ":2", "1:1,1:1", "x:0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_sparse_vector(bad, 4)

    @given(vectors6)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, x):
        assert parse_sparse_vector(format_sparse_vector(x), 6) == x

    @given(prime_tables(3))
    @settings(max_examples=40, deadline=None)
    def test_rows_roundtrip(self, t):
        # `diff` compares a parsed row with a computed one by `==`, so each
        # row must be reduced for a printed row to read back equal
        assume(t.den != 1)
        for idx in product(range(t.dim), repeat=2):
            row = t.row(*idx)
            assert parse_sparse_vector(format_sparse_vector(row), t.dim) == row


def test_status_renders_as_value():
    assert str(Status.PASS) == "PASS"
    assert str(Status.FAIL) == "FAIL"
