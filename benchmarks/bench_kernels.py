"""The package's kernels on training-shaped inputs.

Each scenario builder returns `(label, fn, None)`: benchmarks/perf/replay.py
times `fn` on the same inputs and unpacks three values, and a traced
benchmark run reports the timings as its `kernels.*_ms.*` points.
"""

from __future__ import annotations

import numpy as np

from convsum import kernels


def scenario_scatter_rows(rng):
    # embedding-gradient accumulation: one epoch-ish worth of token rows
    table = np.zeros((2000, 64))
    idx = rng.integers(0, 2000, size=8192)
    rows = rng.normal(size=(8192, 64))
    return (
        "scatter_add_rows (V=2000, d=64, K=8192)",
        lambda: kernels.scatter_add_rows(table, idx, rows),
        None,
    )


def scenario_scatter_cols(rng):
    # copy-distribution scatter: decoder positions x source length
    out = np.zeros((64, 2000))
    cols = rng.integers(0, 2000, size=512)
    w = rng.random((64, 512))
    return (
        "scatter_add_cols (T=64, L=512, V=2000)",
        lambda: kernels.scatter_add_cols(out, cols, w),
        None,
    )


def scenario_lcs(rng):
    a = rng.integers(0, 50, size=600)
    b = rng.integers(0, 50, size=600)
    return (
        "lcs_length (600 x 600 tokens)",
        lambda: kernels.lcs_length(a, b),
        None,
    )
