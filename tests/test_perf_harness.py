"""The package names that benchmarks/perf wraps and calls still exist.

The benchmark patches package functions from outside, by name. A change
under src/ that drops or renames one of them fails here, instead of
crashing a traced benchmark run.
"""

import math
import pathlib

import pytest

from convsum import autodiff, kernels, model, providers, rouge, trainer

ROOT = pathlib.Path(__file__).resolve().parents[1]
PATCHED = (
    autodiff, kernels, model, providers, rouge, trainer,
    model.Summarizer, providers.StubProvider, trainer.Trainer,
)


@pytest.fixture
def perf(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks" / "perf"))
    import replay
    import spans

    return spans, replay


def test_install_wraps_and_restore_undoes(perf):
    spans, _ = perf
    before = [dict(vars(owner)) for owner in PATCHED]
    patches = spans.Patches()
    try:
        spans.install(spans.Tracer(), patches, None, True)
        assert kernels.lcs_length is not before[PATCHED.index(kernels)]["lcs_length"]
    finally:
        patches.restore()
    for owner, saved in zip(PATCHED, before):
        now = vars(owner)
        assert set(now) == set(saved), owner
        assert all(now[k] is v for k, v in saved.items()), owner


def test_kernel_points_time_every_kernel(perf):
    _, replay = perf
    points = replay.kernel_points(0)
    assert len(points) == 3
    assert all(math.isfinite(v) and v > 0.0 for v in points.values())


def test_no_jitted_path():
    # benchmarks/perf/run.py records this flag in every run's environment.
    assert kernels.USE_NUMBA is False
