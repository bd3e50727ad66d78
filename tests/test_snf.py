"""Smith normal form against the determinantal-divisor oracle."""

import random

from hypothesis import given, strategies as st

from forge.snf import smith_normal_form
from helpers import derandomized, invariant_factors_oracle, sparse_rows

entry = st.integers(min_value=-5, max_value=5)


def test_known_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8.
    assert smith_normal_form(sparse_rows([[2, 4], [6, 8]])) == [2, 4]


def test_diagonal_is_sorted_into_chain():
    assert smith_normal_form(sparse_rows([[6, 0], [0, 4]])) == [2, 12]


def test_zero_matrix():
    assert smith_normal_form(sparse_rows([[0, 0], [0, 0]])) == []
    assert smith_normal_form(sparse_rows([])) == []


def test_identity():
    assert smith_normal_form(sparse_rows([[1, 0], [0, 1]])) == [1, 1]


def test_single_row():
    assert smith_normal_form(sparse_rows([[4, 6, 10]])) == [2]


@given(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4))
@derandomized
def test_matches_determinantal_divisors(matrix):
    assert smith_normal_form(sparse_rows(matrix)) == invariant_factors_oracle(matrix)


def test_divisibility_chain_random():
    rng = random.Random(7101)
    print("seed 7101")
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = smith_normal_form(sparse_rows(m))
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert all(d > 0 for d in factors)
        assert factors == invariant_factors_oracle(m)


@given(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=1, max_size=5))
@derandomized
def test_read_in_with_and_without_zeros(matrix):
    """A matrix read with its zero entries (one pass drops them) and
    without them (its rows copied as given) has the same factors, and
    neither reading changes the caller's rows."""
    with_zeros = sparse_rows(matrix)
    without = [{j: v for j, v in row.items() if v} for row in with_zeros]
    before = [dict(row) for row in with_zeros], [dict(row) for row in without]
    expected = invariant_factors_oracle(matrix)
    assert smith_normal_form(with_zeros) == smith_normal_form(without) == expected
    assert (with_zeros, without) == before
