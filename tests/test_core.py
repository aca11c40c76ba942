"""Exact arithmetic primitives."""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccmv.core import (
    DimensionMismatch,
    Status,
    Table,
    UnprintableValue,
    combine,
    first_failure,
    format_scalar,
    format_sparse_vector,
    format_value,
    parse_scalar,
    parse_sparse_vector,
    token_lines,
)

from conftest import NOT_LINE_ENDS, basis, cayley_rotation, tensor4_from_function, vector
from reference import (
    dense_contract,
    dense_fix,
    dense_permute,
    dense_product,
    dense_pullback,
    dense_restrict,
    dense_sum,
    sorted_first_failure,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)
vectors6 = st.lists(rationals, min_size=6, max_size=6).map(vector)


def _token(sign: str, zeros: int, p: int, q: int | None) -> str:
    head = f"{sign}{'0' * zeros}{p}"
    return head if q is None else f"{head}/{'0' * zeros}{q}"


# exact-rational tokens as a table may write them: signed, -0, with leading
# zeros, not reduced, 0 over any q
tokens = st.builds(_token, st.sampled_from(["", "-"]), st.integers(0, 2),
                   st.integers(0, 10**6), st.none() | st.integers(1, 10**6))


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

    def test_format_names_the_digit_limit(self):
        # a part of more digits than the interpreter converts to text
        limit = sys.get_int_max_str_digits()
        with pytest.raises(UnprintableValue) as info:
            format_scalar(Fraction(10 ** limit, 3))
        assert str(info.value) == (f"a computed value has more than {limit} decimal digits "
                                   f"and cannot be printed")

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

    @given(tokens)
    @example("-0")
    @example("0/5")
    @example("-03/006")
    @settings(max_examples=100, deadline=None)
    def test_parse_matches_fraction_text(self, token):
        value = parse_scalar(token)
        assert type(value) is Fraction and value == Fraction(token)


class TestVectors:
    """A vector or a 1-form is a rank-1 Table; the inner product of two is
    their contraction."""

    def test_basis(self):
        e2 = basis(4, 2)
        assert (e2.rank, e2.entries, e2.den) == (1, {(2,): 1}, 1)
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
        # a Cayley rotation reaches every e_p from several inputs
        q = cayley_rotation(4, random.Random(data.draw(st.integers(0, 99))))
        turn = Table.from_values(4, 2, {(i, k): q[i][k] for i, k in product(range(4), repeat=2)})
        for left, right in ((a, b), (a, turn), (turn, a), (turn, turn)):
            # left after right sends e_i to left(right(e_i)): entry (i, k)
            # is sum_p right(i, p) left(p, k)
            assert left.compose(right) == Table.from_values(4, 2, {
                (i, k): sum(right.entry(i, p) * left.entry(p, k) for p in range(4))
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
        rank_one = combine([(1, (form, vec))])
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
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match=r"^combine needs at least one term$"):
                combine(empty)


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


class FixedDraws:
    """Stands for `st.data()` in an `@example`: `draw` hands out the given
    values in turn, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


class TestTable:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @given(data=st.data())
    @example(data=None)
    @settings(max_examples=40, deadline=None)
    def test_contract_matches_dense_sum(self, rank, data):
        if data is None:
            # the example: every entry and every coordinate of every vector
            # nonzero, none of them 1, so each slot's coefficients count
            dim = 4
            values = {idx: Fraction(sum(idx) + 1, idx[0] + 2)
                      for idx in product(range(dim), repeat=rank)}
            vectors = [vector([Fraction(k + s + 2, s + 1) for k in range(dim)])
                       for s in range(rank)]
        else:
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
        left = combine([(1, (tf, ta))])
        for result, expected in ((ta.add([(c, tb)]), dense_sum((1, a), (c, b))),
                                 (ta.permute((1, 0)), dense_permute(a, (1, 0))),
                                 (left, dense_product(form, a)),
                                 (combine([(1, (ta, tf))]), dense_product(a, form)),
                                 (left.permute((1, 0, 2)), dense_product(form, a, 1))):
            assert type(result) is Table
            assert dict(result.items()) == expected

    def test_rank_one_tables(self):
        form = Table.from_values(3, 1, {(2,): Fraction(5), (0,): Fraction(-1), (1,): 0})
        assert (form.den, form.entries) == (1, {(0,): -1, (2,): 5})
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
        assert (form.den, form.entries) == (6, {(0,): -3, (3,): 4})
        # a common factor of den and every numerator is divided out
        reduced = Table.from_numerators(3, 2, {(0, 1): 6, (1, 2): -9}, 12)
        assert (reduced.den, reduced.entries) == (4, {(0, 1): 2, (1, 2): -3})
        # keeping part of a table leaves a common factor to divide out
        assert table.restrict(range(1), 1).numerators() == [((0, 1, 2), -3)]
        assert table.restrict(range(1), 1).den == 4 and table.fix(0, 2).den == 1

    @pytest.mark.parametrize("values,den,entries,reduced", [
        ({(0, 1): 2, (2, 0): -3}, 5, {(0, 1): 2, (2, 0): -3}, 5),
        ({(0, 1): 2, (1, 2): 0, (2, 0): -3}, 5, {(0, 1): 2, (2, 0): -3}, 5),
        ({(0, 1): 6, (1, 2): 0, (2, 0): -9}, 12, {(0, 1): 2, (2, 0): -3}, 4),
        ({(0, 1): 6, (1, 2): 0}, 1, {(0, 1): 6}, 1),
        ({(0, 1): 0, (1, 2): 0}, 6, {}, 1),
    ], ids=["nothing-to-drop", "zeros-only", "common-factor-and-zeros", "den-1-zeros",
            "all-zeros"])
    def test_from_numerators_drops_zeros_and_divides_out(self, values, den, entries,
                                                         reduced):
        table = Table.from_numerators(3, 2, values, den)
        assert (table.entries, table.den) == (entries, reduced)
        assert table.entries is not values
        # the table keeps its own dict: changing the input afterwards does not reach it
        values[(0, 1)] = 7
        values[(2, 2)] = 1
        assert (table.entries, table.den) == (entries, reduced)
        values.clear()
        assert (table.entries, table.den) == (entries, reduced)

    def test_add_rejects_a_bad_term_after_good_ones(self):
        t = Table.from_values(3, 2, {(0, 1): Fraction(1, 2)})
        u = Table.from_values(3, 2, {(1, 2): Fraction(3, 5)})
        wide = Table.from_values(4, 2, {(3, 3): 1})
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
            t.add([(1, u), (Fraction(2, 7), t), (1, wide)])
        # a term of the wrong dimension and rank is reported by its dimension
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
            t.add([(1, u), (1, combine([(1, (wide, wide))]))])
        with pytest.raises(ValueError, match=r"^a rank-3 table does not add to rank 2$"):
            t.add([(Fraction(1, 3), u), (1, t), (1, Table.from_values(3, 3, {(0, 0, 0): 1}))])
        with pytest.raises(ValueError, match=r"^a rank-1 table does not add to rank 2$"):
            t.add([(1, u), (-1, vector([1, 0, 0]))])
        # a product term (c, (a, b)) is checked as the table a ⊗ b would be:
        # each factor's dimension, then the sum of their ranks
        x, x4 = vector([1, 0, 2]), Table.from_values(4, 1, {(3,): 1})
        for bad in ((x, x4), (x4, x)):
            with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
                t.add([(1, u), (Fraction(2, 7), (x, x)), (1, bad)])
            with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
                combine([(1, (x, x)), (1, u), (-1, bad)])
        with pytest.raises(ValueError, match=r"^a rank-3 table does not add to rank 2$"):
            t.add([(Fraction(1, 3), (x, x)), (1, u), (1, (x, u))])
        with pytest.raises(ValueError, match=r"^a rank-3 table does not add to rank 2$"):
            combine([(1, (x, x)), (1, t), (1, (u, x))])
        with pytest.raises(ValueError, match=r"^a rank-2 table does not add to rank 3$"):
            combine([(1, (x, u)), (2, (x, x))])
        # the first term's factors are checked against each other
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 4 vs 3$"):
            combine([(1, (x4, x))])
        # a middle-slot product term is checked as the plain one
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
            t.add([(1, u), (1, (x4, x, 1))])
        with pytest.raises(ValueError, match=r"^a rank-3 table does not add to rank 2$"):
            t.add([(1, (x, u, 1))])

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_terms_match_a_dense_reference(self, data):
        """`add` and `combine` with product terms (c, (a, b)), mixed with
        plain terms, equal the sum of c a(i...) b(j...) and c t(i...) in
        Fraction arithmetic, on prime denominators."""
        rank = data.draw(st.sampled_from([2, 3]))

        def values(k):
            index = st.tuples(*[st.integers(0, 3)] * k)
            return data.draw(st.dictionaries(index, prime_ratios, max_size=8))

        def term(product):
            c = data.draw(prime_ratios)
            if not product:
                v = values(rank)
                return (c, Table.from_values(4, rank, v)), (c, v)
            head = data.draw(st.integers(1, rank - 1))
            a, b = values(head), values(rank - head)
            return ((c, (Table.from_values(4, head, a), Table.from_values(4, rank - head, b))),
                    (c, dense_product(a, b)))

        first = term(True)
        rest = [term(data.draw(st.booleans())) for _ in range(data.draw(st.integers(0, 4)))]
        start = values(rank)
        for result, parts, total in (
                (combine([t for t, _ in [first, *rest]]), [first, *rest], {}),
                (Table.from_values(4, rank, start).add([t for t, _ in rest]), rest, start)):
            expected = dense_sum((1, total), *[dense for _, dense in parts])
            assert dict(result.items()) == expected
            assert result == Table.from_values(4, rank, expected)
            assert gcd(result.den, *result.entries.values()) == 1

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_middle_slot_terms_and_keep_match_dense_references(self, data):
        """`add` and `combine` with plain, product and middle-slot terms (c,
        (a, b, s)), whose key puts a's indices at slot s of b's, equal the
        sum of their values at every index tuple in Fraction arithmetic, on
        prime denominators.  With `keep` and `width` they equal `restrict`
        of the whole sum, and the dense sum on the tuples whose first `width`
        indices lie in `keep`."""
        rank = data.draw(st.sampled_from([2, 3, 4]))

        def values(k):
            index = st.tuples(*[st.integers(0, 3)] * k)
            return data.draw(st.dictionaries(index, prime_ratios, max_size=6))

        def term():
            c = data.draw(prime_ratios)
            if data.draw(st.booleans()):
                v = values(rank)
                return (c, Table.from_values(4, rank, v)), (c, v)
            head = data.draw(st.integers(1, rank - 1))
            at = data.draw(st.integers(0, rank - head))
            a, b = values(head), values(rank - head)
            factors = (Table.from_values(4, head, a), Table.from_values(4, rank - head, b))
            if at or data.draw(st.booleans()):
                factors += (at,)
            return (c, factors), (c, dense_product(a, b, at))

        terms = [term() for _ in range(data.draw(st.integers(1, 4)))]
        start = values(rank)
        keep = range(data.draw(st.integers(0, 2)), data.draw(st.integers(2, 4)))
        width = data.draw(st.none() | st.integers(1, rank))
        within = rank if width is None else width
        for fold, base in ((combine, {}),
                           (Table.from_values(4, rank, start).add, start)):
            whole = fold([t for t, _ in terms])
            dense = dense_sum((1, base), *[part for _, part in terms])
            assert whole == Table.from_values(4, rank, dense)
            kept = fold([t for t, _ in terms], keep, width)
            assert kept == whole.restrict(keep, width)
            assert kept == Table.from_values(4, rank, dense_restrict(dense, keep, within))
            assert fold([t for t, _ in terms], range(4), width) == whole
            assert gcd(kept.den, *kept.entries.values()) == 1

    def test_keep_filters_a_product_factor_on_the_slots_width_covers(self):
        # u(Z) t(X, Y) at (X, Y, Z): with width 2 the head u sits in a slot
        # width does not cover, so its index 3, outside keep, stays
        u = vector([0, 0, 0, 2])
        t = Table.from_values(4, 2, {(0, 1): 1, (3, 0): 5})
        for term in ((1, (u, t, 2)), (1, (t, u))):
            kept = combine([term], range(2), 2)
            assert kept == Table.from_values(4, 3, {(0, 1, 3): 2})
            assert kept == combine([term]).restrict(range(2), 2)
        # at slot 1 it is covered, and no key is kept
        assert combine([(1, (u, t, 1))], range(2), 2).is_zero()
        # a rank-2 head at slot 1: width 2 covers its first index only
        a = Table.from_values(4, 2, {(0, 3): 3, (3, 0): 7})
        kept = combine([(1, (a, t, 1))], range(2), 2)
        assert kept == Table.from_values(4, 4, {(0, 0, 3, 1): 3})
        assert kept == combine([(1, (a, t, 1))]).restrict(range(2), 2)

    def test_equality_is_structural(self):
        t = Table.from_values(3, 2, {(0, 1): Fraction(1, 2), (2, 2): Fraction(-1, 3)})
        u = Table.from_values(3, 2, {(0, 1): Fraction(3, 5), (1, 0): 7})
        assert t.add([(1, u), (-1, u)]) == t
        assert t.add([(Fraction(2, 7), u)]).add([(Fraction(-2, 7), u)]) == t
        assert t.permute((1, 0)).permute((1, 0)) == t
        half = Table.from_values(3, 1, {(0,): Fraction(1, 2)})
        two = Table.from_values(3, 1, {(1,): 2})
        assert combine([(1, (half, two))]) == Table.from_values(3, 2, {(0, 1): 1})
        assert combine([(1, (half, two))]).den == 1
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
    # the example: a dense map pulled back in a slot set of size two
    @example(data=FixedDraws(
        Table.from_values(4, 3, {idx: Fraction(idx[0] - 2 * idx[1] + idx[2] + 1, idx[2] + 2)
                                 for idx in product(range(4), repeat=3)}),
        Table.from_values(4, 3, {(0, 1, 2): Fraction(2, 3), (3, 3, 0): Fraction(-1, 5)}),
        vector([Fraction(1, 2), 0, 3, Fraction(-2, 7)]),
        Table.from_values(4, 2, {(i, p): Fraction(i + 2 * p + 1, 3)
                                 for i, p in product(range(4), repeat=2)}),
        Fraction(-3, 7), 4, 3, (0, 1), 1, 2, [2, 0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_fraction_references_on_prime_dens(self, data):
        dim, t, other = 4, data.draw(prime_tables(3)), data.draw(prime_tables(3))
        form, endo = data.draw(prime_tables(1)), data.draw(prime_tables(2))
        c = data.draw(prime_ratios)
        keep, width = range(data.draw(st.integers(0, dim))), data.draw(st.integers(0, 3))
        slots = data.draw(st.sampled_from([(0,), (2,), (0, 1), (0, 1, 2)]))
        slot, index = data.draw(st.integers(0, 2)), data.draw(st.integers(0, dim - 1))
        order = data.draw(st.permutations(range(3)))
        a, b, f = dict(t.items()), dict(other.items()), dict(form.items())
        cases = [
            (t.add([(c, other)]), dense_sum((1, a), (c, b))),
            (combine([(1, (t, form))]), dense_product(a, f)),
            (combine([(1, (form, t))]), dense_product(f, a)),
            (t.permute(order), dense_permute(a, order)),
            (t.fix(slot, index), dense_fix(a, slot, index)),
            (t.restrict(keep, width), dense_restrict(a, keep, width)),
            (t.pullback(endo, slots, keep), dense_pullback(t, endo, slots, keep)),
        ]
        for result, expected in cases:
            assert type(result) is Table
            assert dict(result.items()) == expected
            assert result == Table.from_values(dim, result.rank, expected)
            assert gcd(result.den, *(x for _, x in result.numerators())) == 1
        # the permuted table, negated as a term, compares as its negated values
        negated = Table.from_values(dim, 3, dense_sum((-1, dense_permute(a, order))))
        assert first_failure([("", (-1, t.permute(order)), negated)], 3) is None

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tree_walks_equal_tables_built_from_values(self, rank, data):
        # fix, restrict and tensor build their maps directly; each must be
        # the table from_values builds from the same entries, zeros dropped
        # and den reduced, or `==` would tell them apart
        values, dim, _ = data.draw(tables_and_vectors(rank))
        table = Table.from_values(dim, rank, values)
        stored = dict(table.items())
        # numerators() is in index order, and sub() at every prefix is the
        # index-sorted entries below it grouped by the next indices, each
        # row's pairs in the order they are stored
        ordered = sorted(table.entries.items())
        assert table.numerators() == ordered

        def grouped(pairs, depth):
            if depth == 1:
                return tuple((key[0], a) for key, a in pairs)
            heads: dict = {}
            for key, a in pairs:
                heads.setdefault(key[0], []).append((key[1:], a))
            return {i: grouped(below, depth - 1) for i, below in heads.items()}

        def by_index(node):
            if isinstance(node, dict):
                return {i: by_index(below) for i, below in node.items()}
            return tuple(sorted(node))

        for width in range(rank):
            for prefix in product(range(dim), repeat=width):
                expected = grouped([(key[width:], a) for key, a in ordered
                                    if key[:width] == prefix], rank - width)
                assert by_index(table.sub(*prefix)) == expected
        slot, index = data.draw(st.integers(0, rank - 1)), data.draw(st.integers(0, dim - 1))
        assert table.fix(slot, index) == Table.from_values(dim, rank - 1,
                                                           dense_fix(stored, slot, index))
        keep, width = range(data.draw(st.integers(0, dim))), data.draw(st.integers(0, rank))
        assert table.restrict(keep, width) == Table.from_values(
            dim, rank, dense_restrict(stored, keep, width))
        assert table.restrict(keep) == table.restrict(keep, rank)
        form = Table.from_values(dim, 1, {(i,): c for i, c in enumerate(data.draw(st.lists(
            sparse_rationals, min_size=dim, max_size=dim))) if c})
        for left, right in ((table, form), (form, table)):
            assert combine([(1, (left, right))]) == Table.from_values(
                dim, rank + 1, dense_product(dict(left.items()), dict(right.items())))

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

    def test_pullback_rejects_a_map_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
            Table.identity(3).pullback(Table.identity(4), (0,), range(3))

    def test_compose_rejects_a_map_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: 3 vs 4$"):
            Table.identity(3).compose(Table.identity(4))

    def test_permute_of_a_vector_is_the_vector(self):
        # its keys stay 1-tuples
        x = vector([1, 0, 2])
        assert x.permute((0,)) is x
        assert x.permute([0]).items() == [((0,), 1), ((2,), 2)]

    def test_add_and_permute_reject_mismatched_slots(self):
        table = Table.from_values(2, 2, {(0, 1): Fraction(1)})
        with pytest.raises(ValueError, match="does not add"):
            table.add([(1, combine([(1, (table, table))]))])
        with pytest.raises(ValueError, match="is not an order"):
            table.permute((0, 0))
        with pytest.raises(ValueError, match="is not an order"):
            table.permute((1,))


class TestTokenLines:
    def test_lines_end_at_newline_crlf_and_cr(self):
        assert token_lines("a 1\r\nb\rc\n\nd # e\n# f\n") == [
            (1, ["a", "1"]), (2, ["b"]), (3, ["c"]), (5, ["d"])]

    def test_not_line_ends_are_the_other_line_breaks_of_splitlines(self):
        breaks = {c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) == 2}
        assert breaks == {"\n", "\r", *NOT_LINE_ENDS}

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_other_line_breaks_stay_in_their_line(self, char):
        assert token_lines(f"a{char}b # c{char}d\ne\n") == [(1, ["a", "b"]), (2, ["e"])]

    def test_one_leading_byte_order_mark_is_dropped(self):
        assert token_lines("\ufeffversion 1\n") == [(1, ["version", "1"])]
        assert token_lines("\ufeff\ufeffa\n") == [(1, ["\ufeffa"])]
        assert token_lines("a\n\ufeffb\n") == [(1, ["a"]), (2, ["\ufeffb"])]


class TestSparseVectorText:
    def test_format_zero(self):
        assert format_sparse_vector(Table.from_values(4, 1, {})) == "0"

    def test_format_entries(self):
        x = vector([0, Fraction(-1, 2), 0, 3])
        assert format_sparse_vector(x) == "-1/2:1,3:3"

    def test_parse(self):
        x = parse_sparse_vector("-1/2:1,3:3", 4)
        assert x == vector([0, Fraction(-1, 2), 0, 3])
        assert (x.rank, x.den, x.entries) == (1, 2, {(1,): -1, (3,): 6})

    def test_parse_brings_the_values_over_one_reduced_den(self):
        x = parse_sparse_vector("0:0,1/6:1,-3/4:3", 4)
        assert x == vector([0, Fraction(1, 6), 0, Fraction(-3, 4)])
        assert (x.den, x.entries) == (12, {(1,): 2, (3,): -9})

    @pytest.mark.parametrize("bad,message", [
        ("1:", "bad sparse vector component: '1:'"),
        ("1:x", "bad frame index: 'x'"),
        ("1:9", "frame index 9 out of range for dim 4"),
        ("1:1,2:1", "duplicate frame index 1 in sparse vector"),
        ("1:1,1/0:2", "not an exact rational: '1/0'"),
        ("1/" + "3" * 4301 + ":0", "a value has more than 4300 decimal digits"),
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

    def test_parse_ignores_surrounding_whitespace(self):
        assert parse_sparse_vector(" 0\n", 3).is_zero()
        assert parse_sparse_vector("\t-1/2:1,3:3 ", 4) == parse_sparse_vector("-1/2:1,3:3", 4)

    @pytest.mark.parametrize("bad", ["1:9", "1:", ":2", "1:1,1:1", "x:0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_sparse_vector(bad, 4)

    @given(vectors6)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, x):
        assert parse_sparse_vector(format_sparse_vector(x), 6) == x

    @given(st.dictionaries(st.integers(0, 5), tokens, min_size=1))
    @example({0: "-0", 2: "0/5", 5: "-006/004"})
    @settings(max_examples=100, deadline=None)
    def test_parse_matches_fraction_text(self, parts):
        text = ",".join(f"{token}:{k}" for k, token in parts.items())
        expected = Table.from_values(6, 1, {(k,): Fraction(token) for k, token in parts.items()})
        x = parse_sparse_vector(text, 6)
        assert (x.den, x.entries) == (expected.den, expected.entries)

    @given(st.dictionaries(st.integers(0, 5), st.integers(-10**6, 10**6)),
           st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_format_matches_format_scalar_per_entry(self, numerators, den):
        # canonical as from_numerators builds it, and as stored, not reduced
        for x in (Table.from_numerators(6, 1, {(k,): a for k, a in numerators.items()}, den),
                  Table(6, 1, {(k,): a for k, a in numerators.items() if a}, den)):
            expected = [f"{format_scalar(Fraction(a, x.den))}:{k}" for (k,), a in x.numerators()]
            assert format_sparse_vector(x) == (",".join(expected) or "0")

    def test_format_rejects_a_value_past_the_digit_limit(self):
        x = Table.from_numerators(3, 1, {(1,): 7 * 10**4999, (2,): 1}, 3)
        with pytest.raises(UnprintableValue, match="cannot be printed"):
            format_sparse_vector(x)

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


@st.composite
def failure_clauses(draw):
    """(clauses, width, keep, tie): one to three clauses of rank-k sides over
    dim 3, each a term (1/k or -1/k, t) with t built as given, unreduced and
    with explicit zeros kept, and t's den times k different on the two
    sides; a few entries of the right side bumped; `width` up to the rank
    and `keep` a range or None.  In a tie the sides agree except at two
    forced keys of one frame tuple, returned last (else None): the first
    clause differs there at a larger last index than the last clause."""
    rank = draw(st.integers(2, 4))
    width = draw(st.integers(1, rank))
    index = st.tuples(*[st.integers(0, 2)] * rank)
    tie = width < rank and draw(st.booleans())
    where = draw(st.tuples(*[st.integers(0, 2)] * width))
    clauses = []
    for c in range(draw(st.integers(2 if tie else 1, 3))):
        base = draw(st.dictionaries(index, st.integers(-3, 3), max_size=10))
        den = draw(st.integers(1, 4))
        bumped = dict(base)
        if not tie:
            bumped.update(draw(st.dictionaries(index, st.integers(-3, 3), max_size=3)))
        kl, kr = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
        pl, pr = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        # each term's value, p / k times p k a / den, is a / den
        clauses.append((f"c{c}", den, *(
            (Fraction(p, k), {key: p * k * a for key, a in values.items()})
            for p, k, values in ((pl, kl, base), (pr, kr, bumped)))))
    if tie:
        small = draw(st.integers(0, 1))
        for c, last in ((0, 2), (len(clauses) - 1, small)):
            key = where + (0,) * (rank - width - 1) + (last,)
            _, den, (scale, left), _ = clauses[c]
            # the left side's value there goes up by 1
            left[key] = left.get(key, 0) + scale.numerator * scale.denominator * den
    keep = draw(st.one_of(st.none(), st.builds(range, st.integers(0, 2), st.integers(1, 3))))
    clauses = [(label, *((scale, Table(3, rank, values, den)) for scale, values in sides))
               for label, den, *sides in clauses]
    return clauses, width, keep, where if tie else None


scales = st.sampled_from([0, -1]) | st.builds(Fraction, st.integers(-5, 5),
                                              st.sampled_from([1, 2, 3, 7]))


@st.composite
def scaled_table_clauses(draw):
    """(clauses, width, keep): one to three clauses of rank-k Tables over dim
    3 whose sides are a term (c, t), c 0, -1 or p/q, and either t itself,
    whose numerators the term shares, or c t built as a Table, on some
    draws with a few entries bumped; the two sides in either order."""
    rank = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, 2)] * rank)
    clauses = []
    for c in range(draw(st.integers(1, 3))):
        t = Table.from_values(3, rank, draw(st.dictionaries(index, prime_ratios, max_size=6)))
        scale = draw(scales)
        built = combine([(scale, t), (1, Table.from_values(3, rank, draw(
            st.dictionaries(index, prime_ratios, max_size=2 if draw(st.booleans()) else 0))))])
        sides = [(scale, t), t if draw(st.booleans()) else built]
        if draw(st.booleans()):
            sides.reverse()
        clauses.append((f"c{c}", *sides))
    keep = draw(st.none() | st.builds(range, st.integers(0, 1), st.integers(1, 3)))
    return clauses, draw(st.integers(rank - 1, rank)), keep


@given(scaled_table_clauses())
@settings(max_examples=200, deadline=None)
def test_scaled_sides_match_the_materialized_tables(case):
    """A side (c, t) compares, fails and renders as the Table c t, with rows
    as witnesses when `width` is one less than the rank."""
    clauses, width, keep = case
    built = [(name, *(side if isinstance(side, Table) else combine([side]) for side in sides))
             for name, *sides in clauses]
    expected = sorted_first_failure(built, width, keep)
    assert first_failure(built, width, keep) == expected
    assert first_failure(clauses, width, keep) == expected


@given(failure_clauses())
@settings(max_examples=200, deadline=None)
def test_first_failure_is_the_least_sorted_failing_key(case):
    clauses, width, keep, tie = case
    expected = sorted_first_failure(clauses, width, keep)
    assert first_failure(clauses, width, keep) == expected
    if tie is not None and expected is not None:
        # only the forced keys differ: the first clause wins their frame
        # tuple over a later one that differs there at a smaller last index
        assert expected[:2] == (tie, "c0")
