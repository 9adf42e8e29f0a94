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


def test_scatter_add_cols_matches_loop(rng):
    for _ in range(10):
        t, l, v = rng.integers(1, 10), rng.integers(1, 30), rng.integers(2, 25)
        cols = rng.integers(0, v, size=l)
        cols[-1] = cols[0]  # at least one duplicate
        w = rng.normal(size=(t, l))
        got = np.zeros((t, v))
        want = np.zeros((t, v))
        kernels.scatter_add_cols(got, cols, w)
        for i in range(t):
            for j, c in enumerate(cols):
                want[i, c] += w[i, j]
        assert np.array_equal(got, want)


def test_scatter_add_cols_row_sums_preserved(rng):
    w = rng.random((4, 9))
    out = np.zeros((4, 6))
    kernels.scatter_add_cols(out, rng.integers(0, 6, size=9), w)
    assert np.allclose(out.sum(axis=1), w.sum(axis=1))


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


def test_bench_kernels_main_times_each_kernel(monkeypatch, capsys):
    import importlib.util
    import pathlib
    import sys

    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(sys, "argv", ["bench_kernels.py", "--repeat", "1"])
    bench.main()
    lines = capsys.readouterr().out.splitlines()
    for name in ("scatter_add_rows", "scatter_add_cols", "lcs_length"):
        (line,) = [l for l in lines if l.startswith(name)]
        assert float(line.split()[-1].removesuffix("ms")) > 0.0
