"""Forward and backward time of single layers, replayed outside the workload.

`ad.backward` runs every layer's closures in one call, so the split of
backward time by layer comes from replaying each layer's public function:
forward at a given length, then `ad.backward` on a fixed random projection
of its output. Each point is the median of REPS replays, with fresh inputs and
parameter copies each time, at the workload's own length and at 128 and 512.
The kernel points reuse the inputs of `benchmarks/bench_kernels.py`.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from convsum import autodiff as ad
from convsum import kernels
from convsum.attention import conv_multi_head_attention, multi_head_attention

REPS = 3
LENGTHS = (128, 512)
LAYERS = ("autodiff.layer_norm", "autodiff.loss", "attention.conv", "attention.full", "model.ffn")
KERNEL_POINTS = (
    "kernels.scatter_add_rows_ms.V2000_K8192",
    "kernels.scatter_add_cols_ms.T64_L512",
    "kernels.lcs_length_ms.600x600",
)


def metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        for kind in ("fwd_ms", "bwd_ms"):
            names.append(f"{layer}.{kind}")
            names.extend(f"{layer}.{kind}.L{n}" for n in LENGTHS)
    return names + list(KERNEL_POINTS)


def _median_ms(samples: list[float]) -> float:
    return 1e3 * statistics.median(samples)


def _fwd_bwd(build, rng: np.random.Generator) -> tuple[float, float]:
    """build() returns a forward callable; a scalar output is its own loss."""
    fwd, bwd = [], []
    for _ in range(REPS):
        forward = build()
        t0 = time.perf_counter()
        out = forward()
        fwd.append(time.perf_counter() - t0)
        loss = out
        if out.data.size != 1:
            proj = ad.constant(rng.normal(size=out.shape))
            loss = ad.tensor_sum(ad.mul(out, proj))
        t0 = time.perf_counter()
        ad.backward(loss)
        bwd.append(time.perf_counter() - t0)
        del forward, out, loss
        gc.collect()
    return _median_ms(fwd), _median_ms(bwd)


def _copy(params: dict, prefix: str) -> dict:
    pl = prefix + "."
    return {
        k[len(pl):]: ad.Tensor(v.data.copy(), requires_grad=True)
        for k, v in params.items()
        if k.startswith(pl)
    }


def layer_points(model, shapes: dict[str, tuple[int, ...] | None], seed: int) -> dict[str, float]:
    """Replay every layer of `model` at the workload shapes and at LENGTHS.

    `shapes` maps a layer name to the workload's (median) length, or (Lq, Lk)
    for full attention; None means the workload never called the layer.
    """
    rng = np.random.default_rng(seed)
    cfg = model.cfg
    d, V = cfg.d_model, len(model.vocab)
    p = model.params
    conv_prefix = "enc.0.att"
    full_prefix = "dec.0.self"

    def x_of(n: int):
        return ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)

    def build(layer: str, shape: tuple[int, ...]):
        n = shape[0]
        if layer == "autodiff.layer_norm":
            def make():
                x, g = x_of(n), _copy(p, "enc.0.ln1")
                return lambda: ad.layer_norm(x, g["g"], g["b"])
        elif layer == "model.ffn":
            def make():
                x, f = x_of(n), _copy(p, "enc.0.ff")
                return lambda: ad.linear(ad.relu(ad.linear(x, f["w1"], f["b1"])), f["w2"], f["b2"])
        elif layer == "attention.conv":
            def make():
                x, att = x_of(n), _copy(p, conv_prefix)
                return lambda: conv_multi_head_attention(x, att, cfg.attention)[0]
        elif layer == "attention.full":
            nk = shape[1] if len(shape) > 1 else n

            def make():
                q, kv, att = x_of(n), x_of(nk), _copy(p, full_prefix)
                return lambda: multi_head_attention(q, kv, att, cfg.attention.heads)[0]
        else:  # autodiff.loss on the copy-mixture path
            def make():
                logits = rng.normal(size=(n, V))
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs = ad.Tensor(e / e.sum(axis=1, keepdims=True), requires_grad=True)
                tgt = rng.integers(6, V, size=n)
                return lambda: ad.label_smoothed_nll(
                    probs, tgt, cfg.label_smoothing, model.vocab.pad_id
                )
        return make

    out: dict[str, float] = {}
    for layer in LAYERS:
        points = [("", shapes.get(layer))] + [(f".L{n}", (n,)) for n in LENGTHS]
        for suffix, shape in points:
            if shape is None:
                fwd = bwd = 0.0
            else:
                fwd, bwd = _fwd_bwd(build(layer, shape), rng)
            out[f"{layer}.fwd_ms{suffix}"] = fwd
            out[f"{layer}.bwd_ms{suffix}"] = bwd
    return out


def kernel_points(seed: int) -> dict[str, float]:
    """The three kernels on the inputs `benchmarks/bench_kernels.py` builds,
    through the path the package selected (numba only when it is active)."""
    import bench_kernels

    rng = np.random.default_rng(seed)
    scenarios = (
        bench_kernels.scenario_scatter_rows,
        bench_kernels.scenario_scatter_cols,
        bench_kernels.scenario_lcs,
    )
    out = {}
    for name, build in zip(KERNEL_POINTS, scenarios):
        _, py_fn, nb_fn = build(rng)
        call = nb_fn if kernels.USE_NUMBA else py_fn
        call()  # compiles this shape when numba is active
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            call()
            samples.append(time.perf_counter() - t0)
        out[name] = _median_ms(samples)
    return out
