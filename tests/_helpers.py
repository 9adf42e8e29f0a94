"""Shared test utilities: finite-difference gradient checking, synthetic
corpora with a lead bias (summary = first sentence), and the oracles that
only tests run, among them the generic tape ops that the fused ops replaced
(`scale`, `matmul`, `transpose`, `sigmoid`, `scatter_probs`), from which
`tests/test_ops.py` composes its references."""

from __future__ import annotations

import json
import math

import numpy as np

from convsum import kernels
from convsum.autodiff import Tensor, _acc, _result, _unbroadcast
from convsum.config import RunConfig, build_model
from convsum.data import encode_pairs, iter_texts
from convsum.errors import ContractError
from convsum.tokenizer import build_vocab

WORD_POOL = [
    "alpine", "basket", "candle", "direct", "ember", "fabric", "garden", "hollow",
    "indigo", "jigsaw", "kettle", "lantern", "meadow", "nectar", "orbit", "pepper",
    "quartz", "ribbon", "saddle", "timber", "umber", "velvet", "walnut", "yonder",
    "zephyr", "anchor", "bridge", "canyon", "drift", "echo", "falcon", "glacier",
    "harbor", "island", "jungle", "kernel", "ledger", "mirror", "needle", "onion",
    "pillar", "quiver", "river", "signal", "tunnel", "urban", "valley", "window",
]


def make_lead_corpus(
    n_docs: int,
    seed: int,
    n_sentences=(3, 5),
    sentence_len=(4, 7),
    pool=None,
) -> list[dict]:
    """Documents whose summary is exactly the first source sentence."""
    rng = np.random.default_rng(seed)
    pool = pool or WORD_POOL
    docs = []
    for _ in range(n_docs):
        k = int(rng.integers(n_sentences[0], n_sentences[1] + 1))
        sentences = []
        for _ in range(k):
            n = int(rng.integers(sentence_len[0], sentence_len[1] + 1))
            words = [pool[i] for i in rng.integers(0, len(pool), size=n)]
            sentences.append(" ".join(words) + " .")
        docs.append({"source": " ".join(sentences), "summary": sentences[0]})
    return docs


def gate_model(**overrides):
    """The c09 gate model (conv in encoder layer 0) and 8 lead-corpus pairs;
    `overrides` are RunConfig fields."""
    docs = make_lead_corpus(40, seed=101)
    vocab = build_vocab(iter_texts(docs), 500)
    cfg = RunConfig(**{**dict(
        d_model=64, enc_layers=2, dec_layers=2, ff_size=128, heads=4, token_kernel=13,
        head_kernel=3, conv_layers=(0,), dropout=0.1, label_smoothing=0.1, copy=True,
        batch_size=8, max_source_len=64, seed=7,
    ), **overrides}).validate()
    model, _ = build_model(cfg, vocab)
    return model, encode_pairs(docs, vocab, cfg)[:8]


# --- generic tape ops ---------------------------------------------------------


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def bwd(out):
        _acc(a, out.grad * c, "scale")

    return _result(data, (a,), bwd, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ContractError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(out):
        g = out.grad
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _acc(a, _unbroadcast(ga, a.data.shape), "matmul")
        _acc(b, _unbroadcast(gb, b.data.shape), "matmul")

    return _result(data, (a, b), bwd, "matmul")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)

    def bwd(out):
        _acc(a, np.transpose(out.grad, np.argsort(axes)), "transpose")

    return _result(data, (a,), bwd, "transpose")


def sigmoid(a: Tensor) -> Tensor:
    # split by sign for overflow-free exp
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(out):
        _acc(a, out.grad * data * (1.0 - data), "sigmoid")

    return _result(data, (a,), bwd, "sigmoid")


def scatter_probs(attn: Tensor, src_ids: np.ndarray, vocab_size: int) -> Tensor:
    """attn (..., T, L) -> (..., T, V) with out[..., t, src_ids[..., j]] += attn[..., t, j].

    src_ids (..., L) has attn's leading axes: each batch row scatters onto
    its own source tokens. Duplicate source tokens accumulate; row sums are
    preserved.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    shape = attn.data.shape
    if len(shape) < 2 or src_ids.shape != shape[:-2] + shape[-1:]:
        raise ContractError("scatter_probs: attn (..., T, L) and src_ids (..., L) required")
    *lead, T, L = shape
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= vocab_size):
        raise ContractError("scatter_probs: source id out of vocab range")
    n = math.prod(lead)
    data = np.zeros((*lead, T, vocab_size))
    for rows, cols, w in zip(data.reshape(n, T, vocab_size), src_ids.reshape(n, L),
                             attn.data.reshape(n, T, L)):
        kernels.scatter_add_cols(rows, cols, w)

    def bwd(out):
        gather = np.broadcast_to(src_ids[..., None, :], attn.data.shape)
        _acc(attn, np.take_along_axis(out.grad, gather, axis=-1), "scatter_probs")

    return _result(data, (attn,), bwd, "scatter_probs")


# --- gradient checks ----------------------------------------------------------


def numeric_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x (mutated in place)."""
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def grad_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def check_grads(build_loss, tensors: dict[str, "object"], eps: float = 1e-5, tol: float = 1e-4):
    """Assert analytic grads of build_loss() match central differences for every tensor.

    build_loss re-runs the forward pass from the tensors' current .data and
    returns a scalar Tensor; the numeric side perturbs .data in place.
    """
    from convsum import autodiff as ad

    loss = build_loss()
    ad.backward(loss)
    analytic = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for k, t in tensors.items()}
    for name, t in tensors.items():
        num = numeric_grad(lambda: build_loss().item(), t.data, eps)
        err = grad_rel_err(analytic[name], num)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e}"


def closure_arrays(fn) -> list[np.ndarray]:
    """The arrays a tape node's backward closure keeps alive: reached through
    closure cells, nested functions, tuples, lists and dicts, with the base of
    every view. A tensor held there stands for its data, not for its own closure."""
    from convsum import autodiff as ad

    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            todo.append(obj.base)
        elif isinstance(obj, ad.Tensor):
            todo.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def save_jsonl(path: str, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(json.dumps(doc) + "\n")


def attention_params(rng: np.random.Generator, d: int) -> dict:
    """One attention block's parameters, drawn from rng."""
    from convsum.attention import attention_inits
    from convsum.optim import Parameters

    return dict(Parameters(attention_inits(d), rng))


def head_union_indices(h: int, heads: int, head_kernel: int, circular: bool) -> list[int]:
    """Head indices pooled with head h, in offset order, read from the band
    op's one definition of the head window (`attention._union_table`), for a
    head kernel that `AttentionConfig` accepts."""
    from convsum.attention import AttentionConfig, _union_table

    AttentionConfig(heads=heads, head_kernel=head_kernel, circular=circular)
    idx, valid = _union_table(heads, head_kernel, circular)
    return [int(j) for j in idx[h][valid[h]]]


def fix_gate(model, logit: float) -> None:
    """Zero the copy gate's weights and set its bias to `logit`, so every
    position's gate is sigmoid(logit): a logit of +800 or -800 saturates it
    to exactly 1.0 (copy only) or 0.0 (generator only)."""
    model.params["copy.gate.w"].data[...] = 0.0
    model.params["copy.gate.b"].data[...] = logit


class FullPrefixDecoder:
    """A `start_decode` state for a model with only `decode_step(memory,
    src_ids, prefix)`: each step reruns every row's full prefix."""

    def __init__(self, model, memory, src_ids):
        self.model, self.memory, self.src_ids = model, memory, src_ids
        self.prefixes: list[list[int]] = [[]]

    def step(self, last_tokens):
        self.prefixes = [p + [int(t)] for p, t in zip(self.prefixes, last_tokens)]
        rows = [self.model.decode_step(self.memory, self.src_ids, p) for p in self.prefixes]
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])

    def reorder(self, rows):
        self.prefixes = [self.prefixes[r] for r in rows]
