"""Each kernel against an independent reference computation."""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum import kernels


def test_scatter_add_rows_matches_loop(rng):
    for _ in range(10):
        n, k, d = rng.integers(2, 20), rng.integers(1, 50), rng.integers(1, 8)
        idx = rng.integers(0, n, size=k)
        idx[-1] = idx[0]  # at least one duplicate
        rows = rng.normal(size=(k, d))
        got = rng.normal(size=(n, d))
        want = got.copy()
        kernels.scatter_add_rows(got, idx, rows)
        for r, row in zip(idx, rows):
            want[r] += row
        assert np.array_equal(got, want)


def test_scatter_add_rows_duplicates_accumulate():
    out = np.zeros((3, 2))
    kernels.scatter_add_rows(out, np.array([1, 1, 1]), np.ones((3, 2)))
    assert np.array_equal(out[1], [3.0, 3.0])
    assert np.array_equal(out[0], [0.0, 0.0])


def _dp_lcs(a, b) -> int:
    """Two-row dynamic program: the textbook LCS length."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b):
            curr.append(prev[j] + 1 if x == y else max(prev[j + 1], curr[j]))
        prev = curr
    return prev[-1]


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


def _brute_lcs(a, b):
    for r in range(len(a), 0, -1):
        for comb in itertools.combinations(range(len(a)), r):
            if _is_subsequence([a[i] for i in comb], b):
                return r
    return 0


@st.composite
def _lcs_pairs(draw):
    symbols = st.integers(0, draw(st.integers(1, 8)) - 1)
    return draw(st.lists(symbols, max_size=70)), draw(st.lists(symbols, max_size=70))


_LONG_PAIR = tuple(np.random.default_rng(0).integers(0, 50, size=(2, 600)).tolist())


@settings(max_examples=200, deadline=None)
@given(_lcs_pairs())
@example(([], [0, 1]))
@example(([2, 0], []))
@example(_LONG_PAIR)
def test_lcs_matches_dp_and_bruteforce(pair):
    # Lengths past 64 need a bit vector wider than one machine word.
    a, b = pair
    got = kernels.lcs_length(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert got == kernels.lcs_length(a, b) == kernels.lcs_length(b, a) == _dp_lcs(a, b)
    if len(a) <= 9 and len(b) <= 9:
        assert got == _brute_lcs(a, b)


def test_lcs_known_cases():
    assert kernels.lcs_length(np.array([1, 2, 3, 4]), np.array([1, 3, 4])) == 3
    assert kernels.lcs_length(np.array([1, 2]), np.array([3, 4])) == 0
    assert kernels.lcs_length(np.array([], dtype=np.int64), np.array([1])) == 0
    assert kernels.lcs_length(["the", "cat", "sat"], ["a", "cat", "sat", "down"]) == 2
