"""Scaled dot-product multi-head attention and its convolutional (local)
variants: a 1D window over token positions and an optional 2D window over
attention heads, in standard (clipped) or circular form.

Kernel widths are full odd window sizes: a token kernel of k_tok means each
query attends to the k_tok-1 neighbors centered on it (clipped at sequence
boundaries and renormalized, never padded); a head kernel of k_head means each
head's keys/values are pooled with those of the k_head-1 adjacent heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, linear, matmul, reshape, scale, softmax, take, transpose
from .errors import ContractError


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


def token_window_mask(length: int, token_kernel: int) -> np.ndarray:
    """(L, L) boolean mask: (i, j) valid iff |i - j| <= (k-1)/2."""
    if length < 1:
        raise ContractError("token_window_mask: length must be >= 1")
    if token_kernel < 1 or token_kernel % 2 == 0:
        raise ContractError("token_window_mask: kernel must be odd and >= 1")
    half = (token_kernel - 1) // 2
    pos = np.arange(length)
    return np.abs(pos[:, None] - pos[None, :]) <= half


def head_union_indices(h: int, heads: int, head_kernel: int, circular: bool) -> list[int]:
    """Head indices pooled with head h, in offset order; clipped or wrapped."""
    if not 0 <= h < heads:
        raise ContractError(f"head index {h} out of range for {heads} heads")
    if head_kernel < 1 or head_kernel % 2 == 0:
        raise ContractError("head kernel must be odd and >= 1")
    if circular and head_kernel > heads:
        raise ContractError("circular head kernel larger than head count would duplicate heads")
    half = (head_kernel - 1) // 2
    if circular:
        return [(h + off) % heads for off in range(-half, half + 1)]
    return [h + off for off in range(-half, half + 1) if 0 <= h + off < heads]


def _union_table(heads: int, head_kernel: int, circular: bool) -> tuple[np.ndarray, np.ndarray]:
    """(H, k_head) gather indices plus validity; clipped slots point at 0 and are masked."""
    half = (head_kernel - 1) // 2
    offs = np.arange(-half, half + 1)
    idx = np.arange(heads)[:, None] + offs[None, :]
    if circular:
        if head_kernel > heads:
            raise ContractError("circular head kernel larger than head count would duplicate heads")
        return idx % heads, np.ones((heads, head_kernel), dtype=bool)
    valid = (idx >= 0) & (idx < heads)
    return np.clip(idx, 0, heads - 1), valid


def attention_params(rng: np.random.Generator, d: int) -> dict[str, Tensor]:
    """Xavier-uniform projections for one attention block."""
    lim = np.sqrt(6.0 / (d + d))

    def w():
        return Tensor(rng.uniform(-lim, lim, (d, d)), requires_grad=True)

    def b():
        return Tensor(np.zeros(d), requires_grad=True)

    return {"wq": w(), "wk": w(), "wv": w(), "wo": w(),
            "bq": b(), "bk": b(), "bv": b(), "bo": b()}


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., L, d) -> (..., H, L, d/H)."""
    *lead, L, d = x.shape
    if d % heads != 0:
        raise ContractError(f"model width {d} not divisible by {heads} heads")
    n = len(lead)
    return transpose(reshape(x, (*lead, L, heads, d // heads)), (*range(n), n + 1, n, n + 2))


def _merge_heads(x: Tensor) -> Tensor:
    """(..., H, L, dk) -> (..., L, H*dk)."""
    *lead, H, L, dk = x.shape
    n = len(lead)
    return reshape(transpose(x, (*range(n), n + 1, n, n + 2)), (*lead, L, H * dk))


def project_kv(kv_in: Tensor, params: dict[str, Tensor], heads: int) -> tuple[Tensor, Tensor]:
    """Keys and values (..., H, Lk, dk) of kv_in (..., Lk, d) for one attention block.

    Incremental decoding calls this once per source for cross-attention and
    once per new token for self-attention, and keeps the results.
    """
    k = _split_heads(linear(kv_in, params["wk"], params["bk"]), heads)
    v = _split_heads(linear(kv_in, params["wv"], params["bv"]), heads)
    return k, v


def attend(
    query_in: Tensor,
    k: Tensor,
    v: Tensor,
    params: dict[str, Tensor],
    heads: int,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention of query_in (..., Lq, d) over projected
    keys/values (..., H, Lk, dk); leading axes broadcast.

    Optional boolean mask (Lq, Lk). Returns (output (..., Lq, d), attention
    weights (..., H, Lq, Lk)).
    """
    q = _split_heads(linear(query_in, params["wq"], params["bq"]), heads)
    n = k.data.ndim
    scores = scale(matmul(q, transpose(k, (*range(n - 2), n - 1, n - 2))), q.shape[-1] ** -0.5)
    weights = softmax(scores, mask if mask is None else mask[None, :, :])
    out = linear(_merge_heads(matmul(weights, v)), params["wo"], params["bo"])
    return out, weights


def multi_head_attention(
    query_in: Tensor,
    kv_in: Tensor,
    params: dict[str, Tensor],
    heads: int,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Vanilla multi-head attention.

    query_in (Lq, d), kv_in (Lk, d), optional boolean mask (Lq, Lk).
    Returns (output (Lq, d), attention weights (H, Lq, Lk)).
    """
    return attend(query_in, *project_kv(kv_in, params, heads), params, heads, mask)


def conv_multi_head_attention(
    x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig
) -> tuple[Tensor, Tensor]:
    """Convolutional self-attention over x (L, d).

    Per head h and position i, keys/values are gathered from the token window
    across the head union; softmax runs over exactly that gathered set. The
    gathered axis is laid out union-offset-major, token-minor. Returns
    (output (L, d), weights (H, L, k_head*L)).
    """
    L, d = x.shape
    H = cfg.heads
    if d % H != 0:
        raise ContractError(f"model width {d} not divisible by {H} heads")
    dk = d // H
    q = _split_heads(linear(x, params["wq"], params["bq"]), H)
    k = _split_heads(linear(x, params["wk"], params["bk"]), H)
    v = _split_heads(linear(x, params["wv"], params["bv"]), H)

    idx, valid = _union_table(H, cfg.head_kernel, cfg.circular)
    kk = cfg.head_kernel
    kg = take(k, idx)  # (H, kk, L, dk)
    vg = take(v, idx)
    qe = reshape(q, (H, 1, L, dk))
    scores = scale(matmul(qe, transpose(kg, (0, 1, 3, 2))), dk ** -0.5)  # (H, kk, L, L)
    scores = reshape(transpose(scores, (0, 2, 1, 3)), (H, L, kk * L))

    band = token_window_mask(L, cfg.token_kernel)
    mask = np.broadcast_to(band[None, None] & valid[:, :, None, None], (H, kk, L, L))
    mask = np.transpose(mask, (0, 2, 1, 3)).reshape(H, L, kk * L)

    weights = softmax(scores, mask)
    ctx = matmul(weights, reshape(vg, (H, kk * L, dk)))  # (H, L, dk)
    out = linear(_merge_heads(ctx), params["wo"], params["bo"])
    return out, weights
