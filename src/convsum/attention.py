"""Scaled dot-product multi-head attention and its convolutional (local)
variants: a 1D window over token positions and an optional 2D window over
attention heads, in standard (clipped) or circular form.

Kernel widths are full odd window sizes: a token kernel of k_tok means each
query attends to the k_tok-1 neighbors centered on it (clipped at sequence
boundaries and renormalized, never padded); a head kernel of k_head means each
head's keys/values are pooled with those of the k_head-1 adjacent heads.

Convolutional attention is one fused, banded tape op. With w = min(k_tok,
2L-1), each query scores only its k_head*w gathered keys, so a layer costs
O(H*L*k_head*w*dk) time and O(H*L*k_head*w) weights, not O(H*k_head*L^2).
Its weights come back as (H, L, k_head*w): slot u*w + o of row i is key
i + o - (w-1)/2 in union head u, exactly 0 outside the sequence or the head
range. When the window covers everything (k_head == 1 and k_tok >= 2L-1) the
layer is plain `multi_head_attention`, bit for bit, and its weights are that
function's dense (H, L, L).

Full attention is three tape ops: the query projection, one fused
`attention` op (head split as a view, scores, scale, masked softmax, context,
head merge, with a hand-written backward) and the output projection. Keys and
values stay (..., Lk, d), so decoding caches them as (B, t, d). A beam step
of the d=64 gate model runs 27 tape ops, where an eight-op attention, a
two-op `linear` (matmul, bias add), a residual add beside each layer norm,
a three-op feed-forward, a three-op embedding and a 17-op copy head made
115. The fused op, the banded op, `autodiff.copy_head` and
`autodiff.softmax` share one masked-softmax forward and backward
(`autodiff._softmax_fwd`/`_softmax_bwd`); masks reach it as an additive
0/-inf score bias.

What backward reads is saved only where it is O(L) per head. The fused op
saves no weights and recomputes them in backward; the banded op saves its
(H, L, k_head*w) weights but gathers the head-union windows of k and v
again. The weights either op returns are read-only: they are a constant of
the graph (no gradient flows through them), and the banded op's backward
reads the very array returned.

Every function takes leading batch axes. A padded batch passes a mask:
`attend` and `multi_head_attention` a boolean mask broadcastable to
(..., H, Lq, Lk), `conv_multi_head_attention` a key-padding mask (..., L).
Unpadded inputs pass none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _acc, _result, _softmax_bwd, _softmax_fwd, _unbroadcast, linear
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


def _attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, bias: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray]:
    """Fused scaled dot-product attention over projected q (..., Lq, d) and
    k, v (..., Lk, d); leading axes broadcast.

    Heads are views of the inputs; scores, scale, masked softmax and context
    run inside the op, with the numpy calls of the composed ops, so the
    values are bitwise theirs. bias is an additive 0/-inf score term
    broadcastable to (..., H, Lq, Lk). Returns (context (..., Lq, d), weights
    (..., H, Lq, Lk)), the weights a read-only constant with no gradient of
    their own.

    The op saves no weights: its backward recomputes them from the head
    views and the bias with the same calls, so they are bitwise the
    forward's, and an (H, Lq, Lk) array lives only while a caller holds
    the returned weights or the backward runs.
    """
    qh, kh, vh = (_heads(t.data, heads) for t in (q, k, v))
    c = qh.shape[-1] ** -0.5

    def softmax_weights() -> np.ndarray:
        s = np.matmul(qh, kh.swapaxes(-1, -2))
        s *= c
        return _softmax_fwd(s, bias)

    weights = softmax_weights()
    weights.flags.writeable = False
    data = _merged(np.matmul(weights, vh))

    def bwd(out):
        gh = _heads(out.grad, heads)
        weights = softmax_weights()
        gs = _softmax_bwd(weights, np.matmul(gh, vh.swapaxes(-1, -2)))
        gs *= c
        if q.requires_grad:
            _acc(q, _merged(_unbroadcast(np.matmul(gs, kh), qh.shape)), "attention")
        if k.requires_grad:
            gk = np.matmul(gs.swapaxes(-1, -2), qh)
            _acc(k, _merged(_unbroadcast(gk, kh.shape)), "attention")
        if v.requires_grad:
            gv = np.matmul(weights.swapaxes(-1, -2), gh)
            _acc(v, _merged(_unbroadcast(gv, vh.shape)), "attention")

    return _result(data, (q, k, v), bwd, "attention"), weights


def project_kv(kv_in: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Keys and values (..., Lk, d) of kv_in (..., Lk, d) for one attention block.

    Incremental decoding calls this once per source for cross-attention and
    once per new token for self-attention, and keeps the results.
    """
    return (linear(kv_in, params["wk"], params["bk"]),
            linear(kv_in, params["wv"], params["bv"]))


def attend(
    query_in: Tensor,
    k: Tensor,
    v: Tensor,
    params: dict[str, Tensor],
    heads: int,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention of query_in (..., Lq, d) over projected
    keys/values (..., Lk, d); leading axes broadcast. Three tape ops: the
    query projection, the fused attention and the output projection.

    Optional boolean mask broadcastable to (..., H, Lq, Lk): a causal (Lq, Lk)
    mask, or a key-padding mask (B, 1, 1, Lk). Returns (output (..., Lq, d),
    attention weights (..., H, Lq, Lk), a read-only constant).
    """
    q = linear(query_in, params["wq"], params["bq"])
    bias = None if mask is None else np.where(mask, 0.0, -np.inf)
    ctx, weights = _attention(q, k, v, heads, bias)
    return linear(ctx, params["wo"], params["bo"]), Tensor(weights)


def multi_head_attention(
    query_in: Tensor,
    kv_in: Tensor,
    params: dict[str, Tensor],
    heads: int,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Vanilla multi-head attention.

    query_in (..., Lq, d), kv_in (..., Lk, d), optional boolean mask
    broadcastable to (..., H, Lq, Lk). Returns (output (..., Lq, d),
    attention weights (..., H, Lq, Lk)).
    """
    return attend(query_in, *project_kv(kv_in, params), params, heads, mask)


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


def _band_attention(
    q: Tensor, k: Tensor, v: Tensor, cfg: AttentionConfig, key_mask: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray]:
    """Fused banded attention over projected q, k, v (..., L, d).

    Returns (context (..., L, d), weights (B, L, H, k_head*w)) with B the
    product of the leading axes. Keys and values of the head union are
    gathered once into zero-padded (B, L + w - 1, H, k_head, dk) arrays; the
    token window is a strided view of them, so scores, masked softmax and
    context cost O(B*H*L*k_head*w*dk). An optional key-padding mask (..., L)
    adds each example's own key validity to the cached bias, so a short
    example's window clips at its own length. The weights carry no gradient
    of their own; the backward reads them, so they are read-only. The
    backward gathers the union windows again rather than keeping them: they
    are k_head * (L + w - 1) / L times the size of k and v.
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

    q4 = q.data.reshape(B, L, H, dk)
    kw, vw = union_windows(k.data), union_windows(v.data)
    s = np.matmul(q4[:, :, :, None, None, :], kw).reshape(B, L, H, kk * w)
    s *= c
    weights = _softmax_fwd(s, bias)
    weights.flags.writeable = False
    w6 = weights.reshape(B, L, H, kk, w, 1)
    data = np.matmul(vw, w6).sum(axis=3).reshape(q.shape)

    def bwd(out):
        g4 = out.grad.reshape(B, L, H, dk)
        gw = np.matmul(g4[:, :, :, None, None, :], union_windows(v.data))
        gs = _softmax_bwd(weights, gw.reshape(B, L, H, kk * w))
        gs *= c
        gs = gs.reshape(B, L, H, kk, w)
        if q.requires_grad:
            gq = np.matmul(union_windows(k.data), gs[..., None]).sum(axis=3)
            _acc(q, gq.reshape(q.shape), "band_attention")
        if k.requires_grad:
            _acc(k, _unwindow(gs, q4, scatter, half).reshape(k.shape), "band_attention")
        if v.requires_grad:
            _acc(v, _unwindow(w6[..., 0], g4, scatter, half).reshape(v.shape), "band_attention")

    return _result(data, (q, k, v), bwd, "band_attention"), weights


def conv_multi_head_attention(
    x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig,
    key_mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Convolutional self-attention over x (..., L, d).

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
    q = linear(x, params["wq"], params["bq"])
    k = linear(x, params["wk"], params["bk"])
    v = linear(x, params["wv"], params["bv"])
    ctx, weights = _band_attention(q, k, v, cfg, key_mask)
    weights = np.moveaxis(weights.reshape(*lead, L, H, -1), -2, -3)
    return linear(ctx, params["wo"], params["bo"]), Tensor(weights)
