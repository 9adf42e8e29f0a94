"""Timings of the package's kernels on training-shaped inputs.

Each scenario builder returns `(label, fn, None)`: benchmarks/perf/replay.py
times `fn` on the same inputs and unpacks three values.

  python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from convsum import kernels


def best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    header = f"{'kernel':44s} {'best':>10s}"
    print(header)
    print("-" * len(header))
    for build in (scenario_scatter_rows, scenario_scatter_cols, scenario_lcs):
        name, fn, _ = build(rng)
        print(f"{name:44s} {best_of(fn, args.repeat) * 1e3:8.2f}ms")


if __name__ == "__main__":
    main()
