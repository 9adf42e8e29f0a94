"""Scaled dot-product multi-head attention and its convolutional (local)
variants: a 1D window over token positions and an optional 2D window over
attention heads, in standard (clipped) or circular form.

Kernel widths are full odd window sizes: a token kernel of k_tok means each
query attends to the k_tok-1 neighbors centered on it (clipped at sequence
boundaries and renormalized, never padded); a head kernel of k_head means each
head's keys/values are pooled with those of the k_head-1 adjacent heads.

Each attention sublayer is one tape op (`_sublayer`): query, keys and
values, a core, output projection, with a hand-written backward. Full
attention records `attention`; its core `_full_core` splits heads as views.
Keys and values stay (..., Lk, d), so decoding caches them as (B, t, d) and
passes them back as `past`. A beam step of the d=64 gate model runs 15 tape
ops, 27 with five-op sublayers, and 115 with finer ops elsewhere too.

Convolutional attention records `band_attention`, whose core `_band_core`
is banded. With w = min(k_tok, 2L-1), each query scores only its k_head*w
gathered keys, so a layer costs O(H*L*k_head*w*dk) time and O(H*L*k_head*w)
weights, not O(H*k_head*L^2). Its weights come back as (H, L, k_head*w):
slot u*w + o of row i is key i + o - (w-1)/2 in union head u, exactly 0
outside the sequence or the head range. When the window covers everything
(k_head == 1 and k_tok >= 2L-1) the layer is plain `multi_head_attention`,
bit for bit, and its weights are that function's dense (H, L, L).

Both cores, `autodiff.copy_head` and `autodiff.softmax` share one
masked-softmax forward and backward (`autodiff._softmax_fwd`/`_softmax_bwd`);
masks reach it as an additive 0/-inf score bias. Backward keeps only what is
O(L) per head: the full core recomputes its weights, the banded one gathers
the head-union windows again. Returned weights are read-only constants of
the graph; the banded backward reads the very array returned.

Every function takes leading batch axes. A padded batch passes a mask:
`attention_sublayer` and `multi_head_attention` a boolean mask broadcastable
to (..., H, Lq, Lk), `conv_multi_head_attention` a key-padding mask (..., L).
Unpadded inputs pass none.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, _acc, _affine_bwd, _halves, _linear_fits, _linear_node, _mode,
                       _parallel, _result, _softmax_bwd, _softmax_fwd, _unbroadcast)
from .errors import ContractError
from .optim import Init, linear_init


@dataclass(frozen=True)
class AttentionConfig:
    heads: int = 4
    token_kernel: int = 11
    head_kernel: int = 3
    circular: bool = False
    conv_layers: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.heads < 1:
            raise ContractError("heads must be >= 1")
        for name, k in (("token_kernel", self.token_kernel), ("head_kernel", self.head_kernel)):
            if k < 1 or k % 2 == 0:
                raise ContractError(f"{name} must be odd and >= 1, got {k}")
        if self.circular and self.head_kernel > self.heads:
            raise ContractError("circular head kernel larger than head count would duplicate heads")


def _union_table(heads: int, head_kernel: int, circular: bool) -> tuple[np.ndarray, np.ndarray]:
    """(H, k_head) gather indices plus validity; clipped slots point at an edge
    head and are masked. The one definition of the head window; the kernel
    is one an `AttentionConfig` accepts."""
    half = (head_kernel - 1) // 2
    idx = np.arange(heads)[:, None] + np.arange(-half, half + 1)
    if circular:
        idx, valid = idx % heads, np.ones((heads, head_kernel), dtype=bool)
    else:
        valid = (idx >= 0) & (idx < heads)
        idx = np.clip(idx, 0, heads - 1)
    return idx, valid


def attention_inits(d: int) -> dict[str, Init]:
    """Xavier-uniform projections for one attention block."""
    w, b = linear_init(d, d)
    return {"wq": w, "wk": w, "wv": w, "wo": w, "bq": b, "bk": b, "bv": b, "bo": b}


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """View (..., H, L, d/H) of x (..., L, d)."""
    *lead, L, d = x.shape
    if d % heads != 0:
        raise ContractError(f"model width {d} not divisible by {heads} heads")
    return x.reshape(*lead, L, heads, d // heads).swapaxes(-2, -3)


def _merged(x: np.ndarray) -> np.ndarray:
    """(..., H, L, dk) -> (..., L, H*dk)."""
    *lead, H, L, dk = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, L, H * dk)


def _head_groups(kernel: Callable, heads: int, work: float,
                 shapes: Callable[[], list[tuple[int, ...]]]) -> Sequence[np.ndarray]:
    """The arrays `kernel(h, *outs)` makes for the heads `a[h]` of head-split
    (..., H, L, .) arrays a. Where `_parallel` would use the worker for
    `work`, two head groups run on both cores, each writing its heads of
    buffers of `shapes()` allocated here, and those are returned; otherwise
    one call over all heads (h = ...) returns the arrays it made."""
    groups = _halves(heads, work)
    if len(groups) == 1:
        return kernel(...)
    bufs = [np.empty(shape) for shape in shapes()]
    _parallel([lambda h=(..., g, slice(None), slice(None)): kernel(h, *(b[h] for b in bufs))
               for g in groups], work)
    return bufs


def _full_core(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
               bias: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Scaled dot-product attention over projected q (..., Lq, d) and k, v
    (..., Lk, d), leading axes broadcast, with an additive 0/-inf score bias
    that broadcasts onto the scores (..., H, Lq, Lk). Returns (context (...,
    Lq, d), read-only weights (..., H, Lq, Lk), grads), grads(g) the
    gradients of q, k and v given the context's gradient g.

    Heads are views; the numpy calls are those of the composed ops, so values
    are bitwise theirs. grads recomputes the weights rather than keep them.
    Where it pays, forward and backward run as two head groups on both
    cores, with the same per-head BLAS calls (`_head_groups`).
    """
    qh, kh, vh = (_heads(t, heads) for t in (q, k, v))
    (Lq, dk), Lk = qh.shape[-2:], kh.shape[-2]
    c, flops = dk ** -0.5, qh.size * Lk  # multiply-adds of one product over all heads
    per_head = bias is not None and bias.ndim > 2 and bias.shape[-3] > 1

    def lead() -> tuple[int, ...]:  # of the scores, and of every buffer a head group writes
        return np.broadcast_shapes(qh.shape[:-2], kh.shape[:-2])

    def weights_into(h, out: np.ndarray | None = None) -> np.ndarray:
        s = np.matmul(qh[h], kh[h].swapaxes(-1, -2), out=out)
        s *= c
        return _softmax_fwd(s, bias[h] if per_head else bias)

    def forward(h, w=None, ctx=None):  # heads h: weights and context
        w = weights_into(h, w)
        return w, np.matmul(w, vh[h], out=ctx)

    weights, ctx = _head_groups(forward, heads, 2 * flops,
                                lambda: [(*lead(), Lq, Lk), (*lead(), Lq, dk)])
    weights.flags.writeable = False

    def grads(g: np.ndarray) -> list[np.ndarray]:
        gh = _heads(g, heads)

        def score_grads(h, s=None, gs=None, scratch=None):  # heads h: weights, their grad
            w = weights_into(h, s)
            gs = np.matmul(gh[h], vh[h].swapaxes(-1, -2), out=gs)
            _softmax_bwd(w, gs, scratch)
            gs *= c
            return w, gs, scratch

        w, gs, scratch = _head_groups(score_grads, heads, 5 * flops, lambda: [(*lead(), Lq, Lk)] * 3)
        del scratch  # freed before the input gradients are made: peak memory as inline
        # each input's gradient: the product of two head-split factors
        factors = ((qh, gs, kh), (kh, gs.swapaxes(-1, -2), qh), (vh, w.swapaxes(-1, -2), gh))

        def input_grads(h, *outs):
            return [np.matmul(a[h], b[h], out=o) for (_, a, b), o in zip(factors, outs or [None] * 3)]

        split = _head_groups(input_grads, heads, 5 * flops,
                             lambda: [(*lead(), a.shape[-2], dk) for _, a, _ in factors])
        return [_merged(_unbroadcast(gt, th.shape)) for (th, _, _), gt in zip(factors, split)]

    return _merged(ctx), weights, grads


def _kv(x: np.ndarray, params: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Keys x @ wk + bk and values x @ wv + bv: GEMMs that may run on both cores."""
    wk, bk, wv, bv = params["wk"], params["bk"], params["wv"], params["bv"]
    k, v = np.empty((*x.shape[:-1], wk.shape[1])), np.empty((*x.shape[:-1], wv.shape[1]))
    _parallel((lambda: np.add(np.matmul(x, wk.data, out=k), bk.data, out=k),
               lambda: np.add(np.matmul(x, wv.data, out=v), bv.data, out=v)),
              2 * x.size * bk.shape[0])
    return k, v


def project_kv(kv_in: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Keys and values (..., Lk, d) of kv_in (..., Lk, d) as two `linear`
    nodes: cross-attention's, projected once per source."""
    pairs = [(params["w" + n], params["b" + n]) for n in "kv"]
    for w, b in pairs:
        _linear_fits(kv_in, w, b)
    return tuple(_linear_node(kv_in, w, b, a) for (w, b), a in zip(pairs, _kv(kv_in.data, params)))


_PROJECTIONS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def _sublayer(x: Tensor, params: dict[str, Tensor], op: str, core: Callable,
              kv: Tensor | tuple[Tensor, Tensor] | None = None, past: tuple | None = None
              ) -> tuple[Tensor, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """An attention sublayer of x (..., Lq, d) as one tape op `op`: query,
    keys and values, `core(q, k, v)`, output projection. Keys and values are
    projected from x or from a Tensor kv (..., Lk, d), or kv is the projected
    pair; cached rows `past` (..., t, d) go first, under `no_grad` only.

    The numpy calls, and the order of the backward's sums into x (query,
    keys, values), are those of the `linear`s and core op it once was.
    Returns (output, the core's read-only weights, the keys and values).
    """
    d, given = x.data.shape[-1], isinstance(kv, tuple)
    src = x if kv is None else kv  # what keys and values are projected from, unless given
    inputs = kv if given else () if kv is None else (kv,)  # the tensors besides x
    wq, bq, wk, bk, wv, bv, wo, bo = ps = [params[n] for n in _PROJECTIONS]
    if ([p.data.shape for p in ps] != [(d, d), (d,)] * 4
            or any(t.data.shape[-1] != d for t in inputs)):
        raise ContractError(f"{op}: projections, keys or values do not fit model width {d}")
    if past is not None and _mode.grad:
        raise ContractError(f"{op}: cached keys and values take no gradient: use no_grad")
    q = np.matmul(x.data, wq.data)
    q += bq.data
    k, v = (kv[0].data, kv[1].data) if given else _kv(src.data, params)
    if past is not None:
        k, v = np.concatenate((past[0], k), axis=-2), np.concatenate((past[1], v), axis=-2)
    ctx, weights, grads = core(q, k, v)
    data = np.matmul(ctx, wo.data)
    data += bo.data

    def bwd(out):
        g = _affine_bwd(ctx, wo, bo, out.grad, True, op)
        out.grad = None  # read: freed before the core's backward, as by separate nodes
        gs = grads(g)  # the query's, keys' and values' gradients, each freed once summed
        del g
        _acc(x, _affine_bwd(x.data, wq, bq, gs.pop(0), x.requires_grad, op), op)
        for t, w, b in zip(kv if given else (src, src), (wk, wv), (bk, bv)):
            g = gs.pop(0)
            _acc(t, g if given else _affine_bwd(src.data, w, b, g, src.requires_grad, op), op)

    node = _result(data, (x, *inputs, *ps), bwd, op)
    return node, weights, (k, v)


def attention_sublayer(x: Tensor, params: dict[str, Tensor], heads: int,
                       mask: np.ndarray | None = None,
                       kv: Tensor | tuple[Tensor, Tensor] | None = None, past: tuple | None = None
                       ) -> tuple[Tensor, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Multi-head attention of x (..., Lq, d) as one `attention` op, keys and
    values as in `_sublayer`; an optional boolean mask broadcasts to (..., H,
    Lq, Lk). Returns (output (..., Lq, d), read-only weights (..., H, Lq,
    Lk), keys and values (..., Lk, d))."""
    bias = None if mask is None else np.where(mask, 0.0, -np.inf)
    return _sublayer(x, params, "attention",
                     functools.partial(_full_core, heads=heads, bias=bias), kv, past)


def multi_head_attention(query_in: Tensor, kv_in: Tensor, params: dict[str, Tensor], heads: int,
                         mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """`attention_sublayer` of query_in (..., Lq, d) over kv_in (..., Lk, d):
    (output (..., Lq, d), attention weights (..., H, Lq, Lk))."""
    out, weights, _ = attention_sublayer(query_in, params, heads, mask, kv_in)
    return out, Tensor(weights)


@functools.lru_cache(maxsize=64)
def _band_tables(length: int, heads: int, head_kernel: int, token_kernel: int, circular: bool):
    """Read-only tables of the banded op for one (L, config), cached.

    Returns (w, idx, bias, scatter): the window width w = min(k_tok, 2L-1);
    the (H, k_head) head-union gather indices; the (L, H, k_head*w) score
    bias, 0 where union slot u of head h is a real head and key i + o - half
    lies in the sequence, -inf elsewhere; and the (H, H*k_head) 0/1 matrix
    that sums each valid union slot's gradient back onto its source head.
    """
    w = min(token_kernel, 2 * length - 1)
    half = (w - 1) // 2
    idx, head_valid = _union_table(heads, head_kernel, circular)
    key = np.arange(length)[:, None] + np.arange(-half, half + 1)
    tok_valid = (key >= 0) & (key < length)
    valid = head_valid[None, :, :, None] & tok_valid[:, None, None, :]
    bias = np.where(valid, 0.0, -np.inf).reshape(length, heads, head_kernel * w)
    scatter = np.zeros((heads, heads, head_kernel))
    hs, us = np.nonzero(head_valid)
    scatter[idx[hs, us], hs, us] = 1.0
    scatter = scatter.reshape(heads, heads * head_kernel)
    for table in (idx, bias, scatter):
        table.flags.writeable = False
    return w, idx, bias, scatter


def _window(padded: np.ndarray, length: int, w: int) -> np.ndarray:
    """View (B, length, ..., w) of a C-contiguous (B, length + w - 1, ...) array:
    out[b, i, ..., o] = padded[b, i + o, ...]."""
    return np.ndarray((padded.shape[0], length, *padded.shape[2:], w), padded.dtype, padded, 0,
                      padded.strides + padded.strides[1:2])


def _unwindow(coef: np.ndarray, rows: np.ndarray, scatter: np.ndarray, half: int) -> np.ndarray:
    """Adjoint of the windowed head-union gather.

    coef (B, L, H, k_head, w) weighs rows (B, L, H, dk) of query i into
    union slot u at key i + o - half; returns their sum at each key and
    source head, (B, L, H, dk). Seen from key j, the queries are the window
    j - half + o', and slot o = w-1-o' of each, so both read as strided
    views of padded copies and the sum is one batched matmul: no scatter.
    """
    B, L, H, kk, w = coef.shape
    cp = np.zeros((B, L + 2 * half, H, kk, w))
    cp[:, half:half + L] = coef
    rp = np.zeros((B, L + 2 * half, H, rows.shape[-1]))
    rp[:, half:half + L] = rows
    s0, s1, s2, s3, s4 = cp.strides
    skew = np.ndarray((B, L, H, kk, w, 1), cp.dtype, cp, (w - 1) * s4,
                      (s0, s1, s2, s3, s1 - s4, s4))
    per_slot = np.matmul(_window(rp, L, w)[:, :, :, None], skew)  # (B, L, H, k_head, dk, 1)
    return np.matmul(scatter, per_slot.reshape(B, L, H * kk, -1))


def _key_bias(key_mask: np.ndarray, w: int) -> np.ndarray:
    """(B, L, w) score term of a key-padding mask (B, L): -inf where query i
    is a real position and key i + o - half is padding, else 0. A padding
    query keeps its whole window (its output is never read), so no row is
    left without a key."""
    B, L = key_mask.shape
    half = (w - 1) // 2
    padded = np.zeros((B, L + w - 1), dtype=bool)
    padded[:, half:half + L] = key_mask
    keep = _window(padded, L, w) | ~key_mask[:, :, None]
    return np.where(keep, 0.0, -np.inf)


def _band_core(q: np.ndarray, k: np.ndarray, v: np.ndarray, cfg: AttentionConfig,
               key_mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Banded attention over projected q, k, v (..., L, d): (context, read-only
    weights (B, L, H, k_head*w), grads) as `_full_core`'s, B the product of
    the leading axes. The head union's keys and values are gathered into
    zero-padded (B, L + w - 1, H, k_head, dk) arrays whose token window is a
    strided view, so the core costs O(B*H*L*k_head*w*dk). A key-padding mask
    (..., L) clips each example's windows at its own length. grads reads the
    weights returned and gathers the windows again rather than keep them.
    """
    *lead, L, d = q.shape
    B = math.prod(lead)
    H, kk = cfg.heads, cfg.head_kernel
    dk = d // H
    w, idx, bias, scatter = _band_tables(L, H, kk, cfg.token_kernel, cfg.circular)
    half = (w - 1) // 2
    c = dk ** -0.5
    if key_mask is not None:
        keys = _key_bias(key_mask.reshape(B, L), w)[:, :, None, None, :]
        bias = (bias.reshape(L, H, kk, w) + keys).reshape(B, L, H, kk * w)

    def union_windows(t: np.ndarray) -> np.ndarray:  # (..., L, d) -> (B, L, H, k_head, dk, w)
        u = np.zeros((B, L + 2 * half, H, kk, dk))
        np.take(t.reshape(B, L, H, dk), idx, axis=2, out=u[:, half:half + L], mode="clip")
        return _window(u, L, w)

    q4 = q.reshape(B, L, H, dk)
    kw, vw = union_windows(k), union_windows(v)
    s = np.matmul(q4[:, :, :, None, None, :], kw).reshape(B, L, H, kk * w)
    s *= c
    weights = _softmax_fwd(s, bias)
    weights.flags.writeable = False
    w6 = weights.reshape(B, L, H, kk, w, 1)
    ctx = np.matmul(vw, w6).sum(axis=3).reshape(q.shape)

    def grads(g: np.ndarray) -> list[np.ndarray]:
        g4 = g.reshape(B, L, H, dk)
        gw = np.matmul(g4[:, :, :, None, None, :], union_windows(v))
        gs = _softmax_bwd(weights, gw.reshape(B, L, H, kk * w))
        gs *= c
        gs = gs.reshape(B, L, H, kk, w)
        gq = np.matmul(union_windows(k), gs[..., None]).sum(axis=3).reshape(q.shape)
        return [gq, _unwindow(gs, q4, scatter, half).reshape(k.shape),
                _unwindow(w6[..., 0], g4, scatter, half).reshape(v.shape)]

    return ctx, weights, grads


def conv_multi_head_attention(
    x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig,
    key_mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Convolutional self-attention over x (..., L, d): one `band_attention` op.

    Per head h and position i, keys/values are gathered from the token window
    across the head union; softmax runs over exactly that gathered set.
    Returns (output (..., L, d), weights (..., H, L, k_head*w)) with w =
    min(k_tok, 2L-1): weights[..., h, i, u*w + o] is the weight of key
    i + o - (w-1)/2 in head union slot u, exactly 0 for slots outside the
    sequence or the head range. These weights are a read-only constant: no
    gradient flows through them.

    key_mask (..., L) marks the real positions of a padded batch (None: no
    padding). A real query's window then clips at its own example's length,
    as if the example were alone; padding queries produce unused rows.

    When the window covers everything (k_head == 1, k_tok >= 2L-1) this is
    `multi_head_attention`, bit for bit, and the weights are its dense
    (..., H, L, L) tensor.
    """
    *lead, L, d = x.shape
    H = cfg.heads
    if d % H != 0:
        raise ContractError(f"model width {d} not divisible by {H} heads")
    if key_mask is not None and key_mask.shape != (*lead, L):
        raise ContractError(f"key mask {key_mask.shape} does not match input {x.shape}")
    if cfg.head_kernel == 1 and cfg.token_kernel >= 2 * L - 1:
        mask = None if key_mask is None else key_mask[..., None, None, :]
        return multi_head_attention(x, x, params, H, mask)
    out, weights, _ = _sublayer(x, params, "band_attention",
                                functools.partial(_band_core, cfg=cfg, key_mask=key_mask))
    return out, Tensor(np.moveaxis(weights.reshape(*lead, L, H, -1), -2, -3))
