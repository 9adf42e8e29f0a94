"""Both kernel paths (jitted and pure numpy) must agree bit-for-bit."""

import numpy as np

from convsum import kernels


def test_scatter_add_rows_paths_agree(rng):
    for _ in range(10):
        n, k, d = rng.integers(2, 20), rng.integers(1, 50), rng.integers(1, 8)
        idx = rng.integers(0, n, size=k)
        rows = rng.normal(size=(k, d))
        a = rng.normal(size=(n, d))
        b = a.copy()
        kernels.scatter_add_rows_py(a, idx, rows)
        kernels.scatter_add_rows_nb(b, idx, rows)
        assert np.array_equal(a, b)


def test_scatter_add_rows_duplicates_accumulate():
    out = np.zeros((3, 2))
    kernels.scatter_add_rows(out, np.array([1, 1, 1]), np.ones((3, 2)))
    assert np.array_equal(out[1], [3.0, 3.0])
    assert np.array_equal(out[0], [0.0, 0.0])


def test_scatter_add_cols_paths_agree(rng):
    for _ in range(10):
        t, l, v = rng.integers(1, 10), rng.integers(1, 30), rng.integers(2, 25)
        cols = rng.integers(0, v, size=l)
        w = rng.normal(size=(t, l))
        a = np.zeros((t, v))
        b = np.zeros((t, v))
        kernels.scatter_add_cols_py(a, cols, w)
        kernels.scatter_add_cols_nb(b, cols, w)
        assert np.array_equal(a, b)


def test_scatter_add_cols_row_sums_preserved(rng):
    w = rng.random((4, 9))
    out = np.zeros((4, 6))
    kernels.scatter_add_cols(out, rng.integers(0, 6, size=9), w)
    assert np.allclose(out.sum(axis=1), w.sum(axis=1))


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


def _brute_lcs(a, b):
    import itertools

    for r in range(len(a), 0, -1):
        for comb in itertools.combinations(range(len(a)), r):
            if _is_subsequence([a[i] for i in comb], b):
                return r
    return 0


def test_lcs_paths_agree_and_match_bruteforce(rng):
    for _ in range(30):
        a = rng.integers(0, 4, size=rng.integers(0, 9))
        b = rng.integers(0, 4, size=rng.integers(0, 9))
        got_nb = kernels.lcs_length_nb(a, b)
        got_py = kernels.lcs_length_py(a, b)
        assert got_nb == got_py
        if len(a) and len(b):
            assert got_py == _brute_lcs(list(a), list(b))


def test_lcs_known_cases():
    assert kernels.lcs_length(np.array([1, 2, 3, 4]), np.array([1, 3, 4])) == 3
    assert kernels.lcs_length(np.array([1, 2]), np.array([3, 4])) == 0
    assert kernels.lcs_length(np.array([], dtype=np.int64), np.array([1])) == 0


def test_bench_kernels_times_numpy_only_without_numba(monkeypatch, capsys):
    import importlib.util
    import pathlib
    import sys

    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def undecorated_loop(*args):
        raise AssertionError("timed the undecorated loop as numba")

    monkeypatch.setattr(kernels, "USE_NUMBA", False)
    for name in ("scatter_add_rows_nb", "scatter_add_cols_nb", "lcs_length_nb"):
        monkeypatch.setattr(kernels, name, undecorated_loop)
    monkeypatch.setattr(sys, "argv", ["bench_kernels.py", "--repeat", "1"])
    bench.main()
    out = capsys.readouterr().out
    assert "numba inactive" in out
    assert "speedup" not in out and "lcs_length" in out
