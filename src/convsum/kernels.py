"""Hot numeric kernels, one numpy implementation each.

Callers reach them through the module (`kernels.<name>`), so a profiler can
wrap them in one place.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

# Always False: there is no jitted path. Kept because benchmarks/perf/run.py
# records it in every run's environment.
USE_NUMBA = False


def scatter_add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """out[idx[k]] += rows[k] (embedding/gather backward).

    out (N, D), idx (K,) int, rows (K, D). In place; duplicate ids accumulate.
    """
    np.add.at(out, idx, rows)


def scatter_add_cols(out: np.ndarray, cols: np.ndarray, w: np.ndarray) -> None:
    """out[t, cols[j]] += w[t, j] (copy-distribution forward).

    out (T, V), cols (L,) int, w (T, L). In place; duplicate columns accumulate.
    One `np.bincount` over the flat indices t*V + cols[j] sums each cell's
    weights in j order, as `np.add.at` would, and adds the sums into out.
    """
    T, V = out.shape
    flat = (np.arange(T)[:, None] * V + cols).ravel()
    out += np.bincount(flat, w.ravel(), minlength=T * V).reshape(T, V)


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of a and b (ROUGE-L).

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): one Python-int bit per
    item of the longer sequence, one add/subtract per item of the shorter.
    A zero bit i of `row` marks a step of the DP row at a[i], so the LCS is
    the number of zero bits.
    """
    if len(a) < len(b):
        a, b = b, a
    match: dict[Hashable, int] = {}
    for i, x in enumerate(a):
        match[x] = match.get(x, 0) | 1 << i
    full = (1 << len(a)) - 1
    row = full
    for y in b:
        u = row & match.get(y, 0)
        row = ((row + u) | (row - u)) & full
    return len(a) - row.bit_count()
