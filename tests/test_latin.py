import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.errors import PreconditionFailed
from circulant_coloring.latin import (
    LatinSquare,
    build_commutative_idempotent,
    closed_form_entry,
    is_anticirculant,
    is_commutative,
    is_idempotent,
    is_latin,
)

odd_orders = st.integers(0, 49).map(lambda t: 2 * t + 1)


class TestBuild:
    def test_singleton(self):
        assert build_commutative_idempotent(1).rows() == [[1]]

    def test_order_three(self):
        sq = build_commutative_idempotent(3)
        assert sq.rows() == [[1, 3, 2], [3, 2, 1], [2, 1, 3]]

    def test_order_seven_first_row(self):
        sq = build_commutative_idempotent(7)
        assert sq.rows()[0] == [1, 5, 2, 6, 3, 7, 4]

    def test_order_nine_first_row(self):
        sq = build_commutative_idempotent(9)
        assert sq.rows()[0] == [1, 6, 2, 7, 3, 8, 4, 9, 5]

    def test_even_rejected(self):
        with pytest.raises(PreconditionFailed, match="must be odd"):
            build_commutative_idempotent(4)
        with pytest.raises(PreconditionFailed, match="must be odd"):
            build_commutative_idempotent(0)

    def test_all_predicates_through_99(self):
        for q in range(1, 100, 2):
            sq = build_commutative_idempotent(q)
            assert is_latin(sq)
            assert is_commutative(sq)
            assert is_idempotent(sq)
            assert is_anticirculant(sq)


class TestClosedForm:
    @given(odd_orders, st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_built_square(self, q, data):
        i = data.draw(st.integers(1, q))
        j = data.draw(st.integers(1, q))
        sq = build_commutative_idempotent(q)
        assert closed_form_entry(q, i, j) == sq.cell(i, j)

    @given(odd_orders, st.data())
    @settings(max_examples=80, deadline=None)
    def test_depends_on_sum_mod_2q(self, q, data):
        i = data.draw(st.integers(1, q))
        j = data.draw(st.integers(1, q))
        shift = data.draw(st.integers(1, 5))
        assert closed_form_entry(q, i, j) == closed_form_entry(
            q, i + 2 * q * shift, j)

    def test_even_rejected(self):
        with pytest.raises(PreconditionFailed, match="must be odd"):
            closed_form_entry(4, 1, 1)


class TestPredicatesOnCounterexamples:
    def test_cyclic_square_not_idempotent(self):
        sq = LatinSquare(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        assert is_latin(sq)
        assert not is_idempotent(sq)

    def test_broken_row_not_latin(self):
        sq = LatinSquare(3, ((1, 1, 3), (3, 2, 1), (2, 3, 2)))
        assert not is_latin(sq)

    def test_transpose_symmetry(self):
        sq = build_commutative_idempotent(11)
        transposed = LatinSquare(11, tuple(zip(*sq.entries)))
        assert transposed.entries == sq.entries
