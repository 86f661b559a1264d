from hypothesis import given, settings
from hypothesis import strategies as st

from circulant_coloring.latin import half

odd_orders = st.integers(0, 49).map(lambda t: 2 * t + 1)


def square(q):
    """The order-q table, rows[i - 1][j - 1] = half(i + j - 2, q)."""
    return [[half(i + j - 2, q) for j in range(1, q + 1)]
            for i in range(1, q + 1)]


def is_latin(rows):
    want = list(range(1, len(rows) + 1))
    return all(sorted(r) == want for r in rows) and all(
        sorted(c) == want for c in zip(*rows))


def is_commutative(rows):
    return [list(c) for c in zip(*rows)] == rows


def is_idempotent(rows):
    return all(r[i] == i + 1 for i, r in enumerate(rows))


def is_anticirculant(rows):
    """Each row is the previous one shifted one position to the left."""
    return all(b == a[1:] + a[:1] for a, b in zip(rows, rows[1:]))


class TestBuild:
    def test_singleton(self):
        assert square(1) == [[1]]

    def test_order_three(self):
        assert square(3) == [[1, 3, 2], [3, 2, 1], [2, 1, 3]]

    def test_order_seven_first_row(self):
        assert square(7)[0] == [1, 5, 2, 6, 3, 7, 4]

    def test_order_nine_first_row(self):
        assert square(9)[0] == [1, 6, 2, 7, 3, 8, 4, 9, 5]

    def test_all_predicates_through_99(self):
        for q in range(1, 100, 2):
            rows = square(q)
            assert is_latin(rows), q
            assert is_commutative(rows), q
            assert is_idempotent(rows), q
            assert is_anticirculant(rows), q


class TestClosedForm:
    @given(odd_orders, st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_built_square(self, q, data):
        # the quasigroup x∘y = (x + y)/2 mod q: the one value x in 1..q
        # with 2x = i + j (mod q)
        i = data.draw(st.integers(1, q))
        j = data.draw(st.integers(1, q))
        built = [x for x in range(1, q + 1) if (2 * x - i - j) % q == 0]
        assert [half(i + j - 2, q)] == built

    @given(odd_orders, st.data())
    @settings(max_examples=80, deadline=None)
    def test_depends_on_sum_mod_2q(self, q, data):
        i = data.draw(st.integers(1, q))
        j = data.draw(st.integers(1, q))
        shift = data.draw(st.integers(1, 5))
        assert half(i + j - 2, q) == half(i + 2 * q * shift + j - 2, q)


class TestPredicatesOnCounterexamples:
    """The checks above can fail."""

    def test_cyclic_square_not_idempotent(self):
        rows = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
        assert is_latin(rows)
        assert not is_idempotent(rows)

    def test_broken_row_not_latin(self):
        assert not is_latin([[1, 1, 3], [3, 2, 1], [2, 3, 2]])
        # rows fine, columns not
        assert not is_latin([[1, 2, 3], [1, 2, 3], [1, 2, 3]])

    def test_transpose_symmetry(self):
        rows = square(11)
        assert [list(c) for c in zip(*rows)] == rows
        assert not is_commutative([[1, 3, 2], [2, 1, 3], [3, 2, 1]])
        assert not is_anticirculant([[1, 3, 2], [2, 1, 3], [3, 2, 1]])
