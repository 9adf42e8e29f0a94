"""Every tape op in one table, and the contracts each op keeps.

An entry names the op its node records (`Tensor.op`), calls the op on tensors
made from each of its samples, and gives a reference: the tape ops it fuses,
composed as before, or plain numpy. `test_every_op_a_run_makes_has_an_entry`
fails on an op that a train or beam step makes and the table lacks. The
generic ops that only references compose (`scale`, `matmul`, `transpose`,
`sigmoid`, `scatter_probs`) live in `tests/_helpers.py` and keep their entries.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from _helpers import (closure_arrays, grad_rel_err, matmul, numeric_grad, scale, scatter_probs,
                      sigmoid, transpose)
from convsum import autodiff as ad
from convsum.attention import AttentionConfig, _attention, _band_attention
from convsum.decoding import DecodingConfig, beam_search
from convsum.errors import ContractError, DegenerateInputError, NonFiniteError
from convsum.model import ModelConfig, Summarizer
from convsum.optim import BLOCK, Init, OptimizerState, Parameters, adam_noam_step, zero_grads
from convsum.providers import StubProvider
from convsum.tokenizer import RESERVED, Vocab
from convsum.windowing import WindowingConfig

C = ad.constant
RNG = np.random.default_rng(0)


def N(*shape, scale=1.0):
    return RNG.normal(size=shape) * scale


@dataclass(frozen=True)
class Sample:
    arrays: tuple  # one tensor each, in call order
    grad: tuple  # whether each tensor wants a gradient
    kw: dict  # the arguments that are not tensors


def S(*arrays, grad=None, **kw) -> Sample:
    return Sample(tuple(np.asarray(a, dtype=np.float64) for a in arrays),
                  tuple(grad or (True,) * len(arrays)), kw)


@dataclass(frozen=True)
class OpInfo:
    name: str  # the op its node records
    op: Callable  # (*tensors, **kw) -> node, or (node, weights)
    samples: list
    ref: Callable  # the same call -> tape ops or arrays, shaped like the op's result
    exact: bool = True  # the reference's values are bitwise the op's (else 1e-10 relative)
    grad_exact: bool = False  # a tape reference's gradients are bitwise the op's (else 1e-10)
    rejects: tuple = ()  # (zero-argument call, error type, message pattern)
    label: str = ""  # the test id, where two entries share an op


# --- references ---------------------------------------------------------------


def composed_attention(q, k, v, heads, mask=None):
    """The tape ops the fused attention op replaces: split heads, scores,
    scale, masked softmax, context, merge heads. Returns (output, weights)."""
    def split(x):  # (..., L, d) -> (..., H, L, d/H)
        *lead, L, d = x.shape
        n = len(lead)
        return transpose(ad.reshape(x, (*lead, L, heads, d // heads)),
                         (*range(n), n + 1, n, n + 2))

    qh, kh, vh = split(q), split(k), split(v)
    n = kh.data.ndim
    scores = scale(matmul(qh, transpose(kh, (*range(n - 2), n - 1, n - 2))), qh.shape[-1] ** -0.5)
    weights = ad.softmax(scores, mask)
    ctx = matmul(weights, vh)
    *lead, _, L, dk = ctx.shape
    m = len(lead)
    merged = ad.reshape(transpose(ctx, (*range(m), m + 1, m, m + 2)), (*lead, L, heads * dk))
    return merged, weights


def composed_embedding(table, ids, pe):
    """The embedding as the tape ops it replaces: a one-hot matmul gathers the
    rows, then scale by sqrt(d) and add the position rows."""
    rows = matmul(C(np.eye(table.shape[0])[ids]), table)
    return ad.add(scale(rows, math.sqrt(table.shape[1])), C(pe))


def composed_copy_head(x, m, wq, bq, wg, bg, wgen, bgen, src_ids, vocab_size, key_mask=None):
    """The copy head as the tape ops it replaces: pointer scores over memory,
    their masked softmax, the context, the gate, the scatter onto the source
    ids and the gated mixture with the generator softmax. Returns (mixture,
    gate, attention)."""
    n = m.data.ndim
    q = ad.linear(x, wq, bq)
    scores = scale(matmul(q, transpose(m, (*range(n - 2), n - 1, n - 2))), x.shape[-1] ** -0.5)
    attn = ad.softmax(scores, None if key_mask is None else key_mask[..., None, :])
    gate = sigmoid(ad.linear(ad.concat([x, matmul(attn, m)], axis=-1), wg, bg))
    p_copy = scatter_probs(attn, src_ids, vocab_size)
    p_soft = ad.softmax(ad.linear(x, wgen, bgen))
    one_minus = ad.add(scale(gate, -1.0), C(1.0))
    return ad.add(ad.mul(gate, p_copy), ad.mul(one_minus, p_soft)), gate, attn


def naive_band_attention(q, k, v, cfg, key_mask=None):
    """Query by query and slot by slot: (context (..., L, d), weights
    (B, L, H, k_head*w)); slot u*w + o is key i + o - (w-1)/2 in union head
    h + u - (k_head-1)/2, wrapped or clipped. A real query skips padding keys."""
    *lead, L, d = q.shape
    q, k, v = (t.data.reshape(-1, L, d) for t in (q, k, v))
    B, H, kk = len(q), cfg.heads, cfg.head_kernel
    dk, w = d // H, min(cfg.token_kernel, 2 * L - 1)
    real = np.ones((B, L), bool) if key_mask is None else key_mask.reshape(B, L)
    ctx, weights = np.zeros((B, L, d)), np.zeros((B, L, H, kk * w))
    for b, i, h in itertools.product(range(B), range(L), range(H)):
        slots = []
        for u, o in itertools.product(range(kk), range(w)):
            g, j = h + u - kk // 2, i + o - w // 2
            g = g % H if cfg.circular else g
            if 0 <= g < H and 0 <= j < L and (real[b, j] or not real[b, i]):
                slots.append((u * w + o, slice(g * dk, g * dk + dk), j))
        head = slice(h * dk, h * dk + dk)
        s = np.array([q[b, i, head] @ k[b, j, g] for _, g, j in slots]) / math.sqrt(dk)
        e = np.exp(s - s.max())
        e /= e.sum()
        for p, (slot, g, j) in zip(e, slots):
            weights[b, i, h, slot] = p
            ctx[b, i, head] += p * v[b, j, g]
    return ctx.reshape(*lead, L, d), weights


def np_softmax(x, mask=None):
    s = x.data if mask is None else np.where(mask, x.data, -np.inf)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def np_layer_norm(x, g, b, eps=1e-6):
    xc = x.data - x.data.mean(-1, keepdims=True)
    return xc / np.sqrt((xc ** 2).mean(-1, keepdims=True) + eps) * g.data + b.data


def np_smoothed(logp, target_ids, smoothing, pad_id):
    T, V = logp.shape
    real = target_ids != pad_id
    per = -((1 - smoothing) * logp[np.arange(T), target_ids] + smoothing / V * logp.sum(-1))
    return (per * real).sum() / max(real.sum(), 1)


def np_scatter(attn, src_ids, vocab_size):
    *lead, T, L = attn.shape
    out = np.zeros((math.prod(lead), T, vocab_size))
    for o, ids, a in zip(out, src_ids.reshape(-1, L), attn.data.reshape(-1, T, L)):
        for j, c in enumerate(ids):
            o[:, c] += a[:, j]
    return out.reshape(*lead, T, vocab_size)


def _bias(mask):
    return None if mask is None else np.where(mask, 0.0, -np.inf)


def _keys(*shape):
    mask = RNG.random(shape) > 0.4
    mask[..., 0] = True
    return mask


def _band_cfg(heads, token_kernel, head_kernel, circular=False):
    return AttentionConfig(heads=heads, token_kernel=token_kernel, head_kernel=head_kernel,
                           circular=circular, conv_layers=())


# --- the table ----------------------------------------------------------------

_BROADCAST = [S(N(3, 4), N(4)), S(N(2, 1, 3), N(4, 3)), S(N(3, 4), N(3, 4), grad=(True, False))]
_PROBS = np_softmax(C(N(4, 6)))
# the copy head's wq, bq, wg, bg, wgen and bgen at d=4 over a 6-token vocabulary
_COPY = (N(4, 4), N(4), N(8, 1), N(1), N(4, 6), N(6))

OPS = [
    OpInfo("add", ad.add, _BROADCAST, lambda a, b: a.data + b.data,
           rejects=((lambda: ad.add(C(N(2, 3)), C(N(4))), ContractError, "add"),)),
    OpInfo("mul", ad.mul, _BROADCAST, lambda a, b: a.data * b.data,
           rejects=((lambda: ad.mul(C(N(2, 3)), C(N(4))), ContractError, "mul"),)),
    OpInfo("scale", scale, [S(N(3, 4), c=-1.5), S(N(2, 3), c=0.5)],
           lambda a, c: ad.mul(a, C(c)), grad_exact=True),
    OpInfo("matmul", matmul,
           [S(N(3, 4), N(4, 5)), S(N(2, 3, 4), N(2, 4, 5)), S(N(2, 1, 3, 4), N(2, 3, 4, 5)),
            S(N(3, 4), N(4, 5), grad=(True, False))],
           lambda a, b: np.matmul(a.data, b.data),
           rejects=((lambda: matmul(C(N(2, 3)), C(N(2, 3))), ContractError, "matmul"),)),
    OpInfo("transpose", transpose, [S(N(2, 3, 4), axes=(2, 0, 1)), S(N(3, 4), axes=(1, 0))],
           lambda a, axes: np.transpose(a.data, axes)),
    OpInfo("reshape", ad.reshape, [S(N(2, 6), shape=(3, 4)), S(N(2, 3, 4), shape=(4, -1))],
           lambda a, shape: a.data.reshape(shape),
           rejects=((lambda: ad.reshape(C(N(2, 3)), (4,)), ContractError, "reshape"),)),
    OpInfo("concat", lambda *ts, axis: ad.concat(list(ts), axis),
           [S(N(2, 3), N(1, 3), axis=0),
            S(N(2, 3, 1), N(2, 3, 2), N(2, 3, 1), grad=(True, False, True), axis=-1)],
           lambda *ts, axis: np.concatenate([t.data for t in ts], axis),
           rejects=((lambda: ad.concat([]), ContractError, "empty"),)),
    OpInfo("sum", ad.tensor_sum,
           [S(N(3, 4)), S(N(2, 3, 4), axis=1), S(N(2, 3, 4), axis=(0, 2), keepdims=True)],
           lambda a, **kw: a.data.sum(**kw)),
    OpInfo("relu", ad.relu, [S(N(3, 4)), S(N(2, 5))], lambda a: np.where(a.data > 0, a.data, 0.0)),
    OpInfo("sigmoid", sigmoid, [S(N(3, 4, scale=4.0)), S(N(2, 5))],
           lambda a: 1.0 / (1.0 + np.exp(-a.data)), exact=False),
    OpInfo("embedding", ad.embedding,
           [S(N(7, 3), ids=np.array([1, 1, 4, 0]), pe=N(4, 3)),
            S(N(5, 4), ids=np.array([[0, 4], [3, 3]]), pe=N(1, 4))],  # a decoding step's pe
           composed_embedding,
           rejects=((lambda: ad.embedding(C(N(7, 3)), np.array([7]), N(1, 3)),
                     ContractError, "out of range"),
                    (lambda: ad.embedding(C(N(7, 3)), 2, N(1, 3)), ContractError, "one axis"),
                    (lambda: ad.embedding(C(N(7, 3)), np.array([1, 2]), N(3, 3)),
                     ContractError, "positions"))),
    OpInfo("scatter_probs", scatter_probs,
           [S(RNG.random((3, 5)) + 0.1, src_ids=np.array([2, 0, 2, 4, 1]), vocab_size=6),
            S(RNG.random((2, 3, 4)), src_ids=np.array([[1, 3, 1, 1], [0, 4, 2, 4]]), vocab_size=5)],
           np_scatter,
           rejects=((lambda: scatter_probs(C(N(2, 3)), np.array([0, 1, 6]), 6),
                     ContractError, "vocab range"),
                    (lambda: scatter_probs(C(N(2, 3)), np.array([0, 1]), 6),
                     ContractError, "required"))),
    OpInfo("copy_head",
           lambda x, m, wq, bq, wg, bg, wgen, bgen, src_ids, vocab_size, key_mask=None:
           ad.copy_head(x, m, src_ids, vocab_size, wq, bq, wg, bg, wgen, bgen, key_mask),
           [S(N(2, 3, 4), N(2, 5, 4), *_COPY, vocab_size=6,  # a padded batch
              src_ids=np.array([[1, 3, 1, 0, 5], [2, 4, 0, 0, 0]]),
              key_mask=np.arange(5) < np.array([[5], [2]])),
            S(N(2, 3, 4), N(2, 4, 4), *_COPY, vocab_size=6,  # duplicate source ids
              src_ids=np.array([[2, 2, 5, 2], [0, 3, 0, 3]])),
            S(N(3, 4), N(5, 4), *_COPY, vocab_size=6,  # a decoding step's beam rows
              src_ids=np.array([1, 4, 1, 3, 2]), grad=(True, False, *[True] * 4, False, True)),
            *(S(N(2, 4), N(3, 4), *_COPY[:2], np.zeros((8, 1)), [logit], *_COPY[4:],
                vocab_size=6, src_ids=np.array([5, 0, 5]))  # a saturated gate
              for logit in (800.0, -800.0))],
           composed_copy_head, grad_exact=True,
           rejects=((lambda: ad.copy_head(C(N(3, 4)), C(N(5, 4)), np.array([1, 2]), 6,
                                          *map(C, _COPY)), ContractError, "do not fit"),
                    (lambda: ad.copy_head(C(N(3, 4)), C(N(2, 4)), np.array([1, 6]), 6,
                                          *map(C, _COPY)), ContractError, "vocab range"))),
    OpInfo("softmax", ad.softmax,
           [S(N(4, 6)), S(N(4, 6), mask=np.ones((4, 6), bool)),  # all valid; row 1 one valid
            S(N(4, 6), mask=_keys(4, 6) & (np.arange(4)[:, None] != 1) | (np.arange(6) == 0)),
            S(N(2, 3, 5), mask=_keys(3, 5))],
           np_softmax,
           rejects=((lambda: ad.softmax(C(N(1, 2)), np.zeros((1, 2), bool)),
                     DegenerateInputError, "masked"),
                    (lambda: ad.softmax(C(np.zeros((2, 0)))), DegenerateInputError, "masked"))),
    OpInfo("layer_norm", ad.layer_norm,
           [S(N(3, 5), N(5) + 1.0, N(5)), S(N(2, 3, 5), N(5) + 1.0, N(5), grad=(False, True, True))],
           np_layer_norm, exact=False,
           rejects=((lambda: ad.layer_norm(C(N(3, 5)), C(N(4)), C(N(5))), ContractError, "gain"),
                    (lambda: ad.layer_norm(C(N(3, 5)), C(N(5)), C(N(5)), residual=C(N(5))),
                     ContractError, "residual"))),
    # x + dropout(sub), normed as one op: the oracle is the three ops it replaces
    OpInfo("layer_norm",
           lambda x, sub, g, b, rate, training=True: ad.layer_norm(
               x, g, b, residual=sub, rate=rate,
               keep=ad.dropout_mask(rate, np.random.default_rng(7), x.shape, training)),
           [S(N(5, 8), N(5, 8), N(8) + 1.0, N(8), rate=0.0),
            S(N(2, 3, 8), N(2, 3, 8), N(8) + 1.0, N(8), rate=0.3),
            S(N(5, 8), N(5, 8), N(8) + 1.0, N(8), grad=(False, True, True, True), rate=0.3),
            S(N(5, 8), N(5, 8), N(8) + 1.0, N(8), rate=0.3, training=False)],
           lambda x, sub, g, b, rate, training=True: ad.layer_norm(
               ad.add(x, ad.dropout(sub, rate, np.random.default_rng(7), training)), g, b),
           grad_exact=True, label="layer_norm-residual"),
    OpInfo("linear", ad.linear,
           [S(N(5, 3), N(3, 4), N(4)), S(N(2, 2, 5, 3), N(3, 4), N(4)),
            S(N(2, 5, 3), N(3, 4), N(4), grad=(False, True, True))],
           lambda x, w, b: ad.add(matmul(x, w), b),
           rejects=((lambda: ad.linear(C(N(2, 3)), C(N(4, 2)), C(N(2))), ContractError, "linear"),
                    (lambda: ad.linear(C(N(2, 3)), C(N(3, 2)), C(N(3))), ContractError, "linear"))),
    OpInfo("feed_forward", ad.feed_forward,
           [S(N(*shape), N(3, 6), N(6), N(6, 4), N(4), grad=tuple(k in wants for k in "xWbwc"))
            for shape, wants in [((5, 3), "xWbwc"), ((2, 5, 3), "Wbwc"), ((5, 3), "wc"),
                                 ((2, 5, 3), "x"), ((5, 3), "b")]],
           lambda x, w1, b1, w2, b2: ad.linear(ad.relu(ad.linear(x, w1, b1)), w2, b2),
           grad_exact=True,
           rejects=((lambda: ad.feed_forward(C(N(2, 3)), C(N(3, 6)), C(N(4)), C(N(6, 4)), C(N(4))),
                     ContractError, "feed_forward"),
                    (lambda: ad.feed_forward(C(N(2, 3)), C(N(3, 6)), C(N(6)), C(N(3, 6)), C(N(6))),
                     ContractError, "feed_forward"))),
    OpInfo("dropout", lambda x, rate, seed: ad.dropout(x, rate, np.random.default_rng(seed), True),
           [S(N(4, 9), rate=0.3, seed=7), S(N(2, 3, 4), rate=0.5, seed=1)],
           lambda x, rate, seed: ad.mul(
               x, C((np.random.default_rng(seed).random(x.shape) >= rate) / (1.0 - rate))),
           grad_exact=True,
           rejects=((lambda: ad.dropout(C(N(2)), 1.0, RNG, True), ContractError, "rate"),
                    (lambda: ad.dropout(C(N(2)), 0.5, None, True), ContractError, "generator"))),
    OpInfo("label_smoothed_cross_entropy", ad.label_smoothed_cross_entropy,
           [S(N(4, 5), target_ids=np.array([1, 0, 4, 0]), smoothing=0.1, pad_id=0),
            S(N(3, 7), target_ids=np.array([2, 6, 0]), smoothing=0.0, pad_id=9),
            S(N(2, 4), target_ids=np.array([0, 0]), smoothing=0.1, pad_id=0)],
           lambda x, **kw: np_smoothed(x.data - np.log(np.exp(x.data).sum(-1, keepdims=True)), **kw),
           exact=False,
           rejects=tuple((lambda kw=kw: ad.label_smoothed_cross_entropy(
               C(N(2, 3)), **{"target_ids": np.array([0, 1]), "smoothing": 0.1, "pad_id": 0, **kw}),
               ContractError, match) for kw, match in [
                   ({"target_ids": np.array([0, 3])}, "vocab range"),
                   ({"target_ids": np.array([[0, 1]])}, "1-D"),
                   ({"target_ids": np.array([0, 1, 1])}, "align with logits"),
                   ({"smoothing": 1.0}, "smoothing")])),
    OpInfo("label_smoothed_nll", ad.label_smoothed_nll,
           [S(_PROBS[:3], target_ids=np.array([2, 1, 0]), smoothing=0.1, pad_id=9),
            S(_PROBS, target_ids=np.array([5, 0, 3, 0]), smoothing=0.0, pad_id=0),
            S(_PROBS[:2], target_ids=np.array([0, 0]), smoothing=0.1, pad_id=0)],
           lambda p, **kw: np_smoothed(np.log(np.maximum(p.data, 1e-10)), **kw), exact=False,
           rejects=((lambda: ad.label_smoothed_nll(C(_PROBS), np.array([1]), 0.1, 0),
                     ContractError, "align with probability"),)),
    OpInfo("attention", lambda q, k, v, heads, mask=None: _attention(q, k, v, heads, _bias(mask)),
           [S(N(4, 6), N(5, 6), N(5, 6), heads=2),
            S(N(2, 5, 6), N(2, 5, 6), N(2, 5, 6), heads=3, mask=np.tri(5, dtype=bool)),
            S(N(3, 4, 6), N(3, 7, 6), N(3, 7, 6), heads=1, mask=_keys(3, 1, 1, 7)),
            S(N(3, 1, 6), N(7, 6), N(7, 6), heads=2),  # cross-attention keys shared by rows
            S(N(2, 3, 6), N(5, 6), N(5, 6), heads=3, mask=_keys(2, 1, 1, 5)),
            S(N(3, 1, 6), N(7, 6), N(7, 6), grad=(True, False, False), heads=3)],
           composed_attention,
           rejects=((lambda: _attention(C(N(3, 6)), C(N(3, 6)), C(N(3, 6)), 4),
                     ContractError, "divisible"),)),
    OpInfo("band_attention", _band_attention,
           [S(N(5, 8), N(5, 8), N(5, 8), cfg=_band_cfg(4, 3, 3)),
            S(N(2, 4, 6), N(2, 4, 6), N(2, 4, 6), cfg=_band_cfg(3, 5, 3, circular=True)),
            S(N(3, 6), N(3, 6), N(3, 6), cfg=_band_cfg(3, 9, 3)),  # window clipped to 2L-1
            S(N(3, 6), N(3, 6), N(3, 6), cfg=_band_cfg(3, 9, 3, circular=True)),
            S(N(2, 6, 4), N(2, 6, 4), N(2, 6, 4), grad=(True, False, True), cfg=_band_cfg(2, 5, 1),
              key_mask=np.arange(6) < np.array([[6], [4]]))],
           naive_band_attention, exact=False),
]

CASES = [pytest.param(e, s, id=f"{e.label or e.name}-{i}")
         for e in OPS for i, s in enumerate(e.samples)]
REJECTS = [pytest.param(e, *r, id=f"{e.label or e.name}-{i}")
           for e in OPS for i, r in enumerate(e.rejects)]


# --- the contracts ------------------------------------------------------------


def _leaves(sample, grad=None):
    return [ad.Tensor(a.copy(), requires_grad=w)
            for a, w in zip(sample.arrays, grad or sample.grad)]


def _call(fn, leaves, sample) -> tuple:
    out = fn(*leaves, **sample.kw)
    return out if isinstance(out, tuple) else (out,)


def _values(result) -> list[np.ndarray]:
    return [np.asarray(r.data if isinstance(r, ad.Tensor) else r) for r in result]


def _close(got, want, exact, what):
    assert got.shape == want.shape, what
    if exact:
        assert np.array_equal(got, want), what
    else:
        err = np.abs(got - want).max(initial=0.0)
        assert err <= 1e-10 * np.abs(want).max(initial=1e-300), f"{what}: {err:.3e}"


def _proj(shape):
    return np.random.default_rng(1).normal(size=shape)


def _grads(fn, sample, grad=None) -> list:
    """Gradients of sum(out * a fixed projection) w.r.t. each input."""
    leaves = _leaves(sample, grad)
    out = _call(fn, leaves, sample)[0]
    ad.backward(ad.tensor_sum(ad.mul(out, C(_proj(out.shape)))))
    return [t.grad for t in leaves]


@contextlib.contextmanager
def _worker(on: bool):
    """Every split an op makes goes to the worker thread (on: a threshold of
    0, where the process may use two CPUs), or none does."""
    saved = ad.PARALLEL_WORK
    ad.PARALLEL_WORK = 0 if on else math.inf
    try:
        yield
    finally:
        ad.PARALLEL_WORK = saved


@pytest.mark.parametrize("entry,sample", CASES)
def test_op_forward(entry, sample):
    """One node over the inputs, the same values with a tape, without one and
    deferred, and read-only weights beside the node; bitwise the same with
    the worker thread on and off."""
    fn = entry.op
    runs = []
    for on in (False, True):
        with _worker(on):
            leaves = _leaves(sample)
            taped = _call(fn, leaves, sample)
            node = taped[0]
            assert node.op == entry.name and node.requires_grad
            assert all(any(p is t for t in leaves) for p in node._parents)
            with ad.no_grad():
                bare = _call(fn, _leaves(sample), sample)
            assert bare[0]._parents == () and bare[0]._backward is None
            assert not bare[0].requires_grad
            assert not any(r.flags.writeable for r in (*taped[1:], *bare[1:]))
            deferred = ad.checked_step(lambda: _call(fn, _leaves(sample), sample),
                                       lambda r: (r[0].data,))
            runs.append([_values(r) for r in (taped, bare, deferred)])
    values = runs[0][0]
    for other in (*runs[0][1:], *runs[1]):
        for got, want in zip(other, values, strict=True):
            _close(got, want, True, "forward mode")
    ref = _call(entry.ref, _leaves(sample), sample)
    for got, want in zip(values, _values(ref), strict=True):
        _close(got, want, entry.exact, "value")


@pytest.mark.parametrize("entry,sample", CASES)
def test_op_gradients(entry, sample):
    """Gradients: a tape reference's, none where none is wanted, bitwise the
    same with the worker thread on, central differences."""
    fn = entry.op
    grads = _grads(fn, sample)
    with _worker(True):
        for got, want in zip(_grads(fn, sample), grads, strict=True):
            assert (got is None) if want is None else np.array_equal(got, want)
    ref = _call(entry.ref, _leaves(sample), sample)
    if isinstance(ref[0], ad.Tensor):
        for got, want in zip(grads, _grads(entry.ref, sample)):
            if want is not None:
                _close(got, want, entry.grad_exact, "reference gradient")
    every = _grads(fn, sample, (True,) * len(sample.arrays))
    for got, full, wants in zip(grads, every, sample.grad):
        assert (got is None) if not wants else np.array_equal(got, full)
    fd_leaves, r = _leaves(sample), _proj(ref[0].shape)

    def loss():
        with ad.no_grad():
            return float(np.sum(_call(fn, fd_leaves, sample)[0].data * r))

    for i in (i for i, wants in enumerate(sample.grad) if wants):
        err = grad_rel_err(grads[i], numeric_grad(loss, fd_leaves[i].data))
        assert err < 1e-4, f"input {i}: rel err {err:.3e}"


@pytest.mark.parametrize("entry,sample", CASES)
def test_op_backward_frees_what_it_saved(entry, sample):
    """Arrays that outlive one call (caches, the sample's own) are not the node's."""
    first = _call(entry.op, _leaves(sample), sample)
    shared = {id(a) for a in closure_arrays(first[0]._backward)}
    leaves = _leaves(sample)
    node = _call(entry.op, leaves, sample)[0]
    shared |= {id(a) for a in closure_arrays((node, *leaves))}
    saved = [weakref.ref(a) for a in closure_arrays(node._backward) if id(a) not in shared]
    loss_node = ad.tensor_sum(ad.mul(node, C(_proj(node.shape))))
    del first
    gc.disable()
    try:
        ad.backward(loss_node)
        alive = [a.shape for a in (ref() for ref in saved) if a is not None]
    finally:
        gc.enable()
    assert not alive
    assert node._backward is ad._consumed and node._parents == ()


@pytest.mark.parametrize("entry,sample", CASES)
def test_op_names_a_planted_nan(entry, sample):
    """In the forward with a tape, without one and deferred, and in a backward,
    with the worker thread off and on."""
    fn, name = entry.op, entry.name
    for on in (False, True):
        with _worker(on):
            poisoned = _leaves(sample)
            poisoned[0].data[...] = np.nan
            for mode in (contextlib.nullcontext(), ad.no_grad()):
                with mode, pytest.raises(NonFiniteError, match=f"op '{name}'"):
                    _call(fn, poisoned, sample)
            with pytest.raises(NonFiniteError, match=f"op '{name}'"):
                ad.checked_step(lambda: _call(fn, poisoned, sample), lambda r: (r[0].data,))
            node = _call(fn, _leaves(sample), sample)[0]
            node.grad = np.full(node.shape, np.nan)
            with pytest.raises(NonFiniteError, match=f"backward of '{name}'"):
                node._backward()


@pytest.mark.parametrize("entry,call,error,match", REJECTS)
def test_op_rejects(entry, call, error, match):
    with pytest.raises(error, match=match):
        call()


# --- completeness -------------------------------------------------------------

VOCAB = Vocab(list(RESERVED) + [f"w{i}" for i in range(10)])
_PAIRS = [(np.array([2, 6, 7, 8, 9, 7]), np.array([4, 6, 7, 5])),
          (np.array([2, 9, 10, 11]), np.array([4, 9, 10, 12, 5]))]


def _model(**kw):
    att = AttentionConfig(heads=2, token_kernel=3, head_kernel=3, conv_layers=(0,))
    cfg = ModelConfig(d_model=8, enc_layers=2, dec_layers=1, ff_size=16, attention=att,
                      dropout=0.1, **kw)
    provider = StubProvider(len(VOCAB), width=6, max_window=4, seed=2)
    return Summarizer(cfg, VOCAB, provider=provider, windowing=WindowingConfig(4, 2), seed=5)


def _train_step(**kw):
    return lambda: _model(**kw).train_step(_PAIRS, OptimizerState(d_model=8, warmup=10))


RUNS = {
    "gate-train": _train_step(),
    "beam": lambda: beam_search(_model(), _PAIRS[0][0], DecodingConfig(2, 1, 3)),
    "stacking": _train_step(integration="stacking", decoder_conditioned=True),
    "concatenation": _train_step(integration="concatenation"),
    "no-copy": _train_step(copy=False),
}


@pytest.mark.parametrize("run", RUNS)
def test_every_op_a_run_makes_has_an_entry(run, monkeypatch):
    seen, result = set(), ad._result

    def spy(data, parents, bwd, op):
        seen.add(op)
        return result(data, parents, bwd, op)

    for module in list(sys.modules.values()):  # modules that import _result by name too
        if module and module.__name__.startswith("convsum") and module.__dict__.get(
                "_result") is result:
            monkeypatch.setattr(module, "_result", spy)
    RUNS[run]()
    missing = seen - {e.name for e in OPS}
    assert seen and not missing, f"ops without a table entry: {sorted(missing)}"


# --- Adam's two halves --------------------------------------------------------


def _adam_arena():
    """An arena of 3 * BLOCK + 123 floats, its gradients written, and Adam's state."""
    params = Parameters({"a": Init((BLOCK + 5,)), "b": Init((2 * BLOCK + 118,))})
    rng = np.random.default_rng(3)
    params.theta[...] = rng.normal(size=params.theta.size)
    zero_grads(params)
    params.grad[...] = rng.normal(size=params.grad.size)
    for p in params.values():
        p.grad = p._grad_buf
    return params, OptimizerState(d_model=8, warmup=10)


def test_adam_split_on_the_worker_is_bitwise_the_whole_update():
    results = []
    for on in (False, True):
        with _worker(on):
            params, state = _adam_arena()
            for _ in range(2):
                adam_noam_step(state, params)
                for p in params.values():
                    p.grad = p._grad_buf
            results.append((params.theta, state.m, state.v))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_a_nonfinite_gradient_in_the_second_half_moves_nothing():
    with _worker(True):
        params, state = _adam_arena()
        adam_noam_step(state, params)
        for p in params.values():
            p.grad = p._grad_buf
        params.grad[-7] = np.inf  # in the half the worker updates
        before = [a.copy() for a in (params.theta, state.m, state.v)]
        with pytest.raises(NonFiniteError, match="'b'"):
            adam_noam_step(state, params)
    assert state.step == 1
    for got, want in zip((params.theta, state.m, state.v), before):
        assert np.array_equal(got, want)
