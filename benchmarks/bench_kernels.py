"""Timing comparison of the jitted kernels against their pure-numpy fallbacks.

Runs each kernel on training-shaped inputs and prints a table. The package
itself selects the path at import time: numba when available, unless
CONVSUM_NUMBA=0 asks for the numpy fallbacks. When numba is inactive only the
numpy column is timed.

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
        lambda: kernels.scatter_add_rows_py(table, idx, rows),
        lambda: kernels.scatter_add_rows_nb(table, idx, rows),
    )


def scenario_scatter_cols(rng):
    # copy-distribution scatter: decoder positions x source length
    out = np.zeros((64, 2000))
    cols = rng.integers(0, 2000, size=512)
    w = rng.random((64, 512))
    return (
        "scatter_add_cols (T=64, L=512, V=2000)",
        lambda: kernels.scatter_add_cols_py(out, cols, w),
        lambda: kernels.scatter_add_cols_nb(out, cols, w),
    )


def scenario_lcs(rng):
    a = rng.integers(0, 50, size=600)
    b = rng.integers(0, 50, size=600)
    return (
        "lcs_length (600 x 600 tokens)",
        lambda: kernels.lcs_length_py(a, b),
        lambda: kernels.lcs_length_nb(a, b),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    kernels.warmup()  # compile before timing

    active = kernels.USE_NUMBA
    if active:
        print("active path: numba (set CONVSUM_NUMBA=0 to force the numpy fallbacks)\n")
    else:
        # The *_nb functions are then the undecorated Python loops; timing them
        # would report a "numba" speedup that no run of the package gets.
        print("numba inactive (not installed, or CONVSUM_NUMBA=0): numpy path only\n")
    header = f"{'kernel':44s} {'numpy':>10s}"
    if active:
        header += f" {'numba':>10s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for build in (scenario_scatter_rows, scenario_scatter_cols, scenario_lcs):
        name, py_fn, nb_fn = build(rng)
        t_py = best_of(py_fn, args.repeat)
        line = f"{name:44s} {t_py * 1e3:8.2f}ms"
        if active:
            nb_fn()  # make sure this shape is compiled
            t_nb = best_of(nb_fn, args.repeat)
            line += f" {t_nb * 1e3:8.2f}ms {t_py / t_nb:7.1f}x"
        print(line)


if __name__ == "__main__":
    main()
