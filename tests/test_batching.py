"""Padded batch training: one graph per batch equals its batch-of-one runs,
the band op clips at each example's own length, the graph does not grow
with the batch, and a train step's graph is freed without the cyclic
collector."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import attention_params
from convsum import autodiff as ad
from convsum.attention import AttentionConfig, conv_multi_head_attention
from convsum.errors import ContractError
from convsum.model import ModelConfig, Summarizer
from convsum.optim import OptimizerState, zero_grads
from convsum.providers import StubProvider
from convsum.tokenizer import RESERVED, Vocab
from convsum.windowing import WindowingConfig

from test_attention import _np_params, naive_conv_attention

VOCAB = Vocab(list(RESERVED) + [f"w{i}" for i in range(12)])


def _model(integration="none", copy=True, conv_layers=(0,), circular=False, token_kernel=3,
           decoder_conditioned=False, dropout=0.0, d=8):
    att = AttentionConfig(heads=4, token_kernel=token_kernel, head_kernel=3, circular=circular,
                          conv_layers=conv_layers)
    cfg = ModelConfig(d_model=d, enc_layers=2, dec_layers=2, ff_size=16, attention=att,
                      dropout=dropout, label_smoothing=0.1, integration=integration, copy=copy,
                      decoder_conditioned=decoder_conditioned)
    # a 4-token provider window, so longer sources take the strided path
    prov = StubProvider(len(VOCAB), width=6, max_window=4, seed=2)
    return Summarizer(cfg, VOCAB, provider=prov, windowing=WindowingConfig(4, 2), seed=5)


def _pair(rng, src_len, tgt_len):
    src = np.concatenate([[VOCAB.cls_id], rng.integers(6, len(VOCAB), size=src_len - 1)])
    body = rng.integers(6, len(VOCAB), size=tgt_len - 2)
    return src, np.concatenate([[VOCAB.bos_id], body, [VOCAB.eos_id]])


def _padded(m, batch):
    src, lengths, tgt = m.pad_batch(batch)
    return src, tgt, True, lengths


def _grads(m):
    return {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for k, p in m.params.items()}


def _rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def _full_attention_key_biases(m):
    """Key biases of full attention, whose gradient is 0 in exact arithmetic:
    softmax ignores a shift of a whole score row."""
    cfg = m.cfg
    conv = (range(cfg.conv_branch_layers) if cfg.integration == "concatenation"
            else cfg.attention.conv_layers)
    return {k for k in m.params
            if k.endswith(".bk") and not any(k.startswith(f"enc.{i}.") for i in conv)}


@st.composite
def _batch_cases(draw):
    B = draw(st.integers(1, 5))
    return dict(
        lengths=[(draw(st.integers(1, 9)), draw(st.integers(2, 6))) for _ in range(B)],
        integration=draw(st.sampled_from(["none", "stacking", "concatenation"])),
        copy=draw(st.booleans()),
        conv_layers=draw(st.sampled_from([(), (0,), (1,), (0, 1)])),
        circular=draw(st.booleans()),
        token_kernel=draw(st.sampled_from([1, 3, 5, 13])),
        decoder_conditioned=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(_batch_cases())
def test_padded_batch_equals_token_weighted_batch_of_one_runs(case):
    """Loss and every parameter gradient of one padded graph equal the
    token-weighted combination of batch-of-one runs (dropout 0)."""
    rng = np.random.default_rng(case["seed"])
    m = _model(case["integration"], case["copy"], case["conv_layers"], case["circular"],
               case["token_kernel"], case["decoder_conditioned"])
    batch = [_pair(rng, s, t) for s, t in case["lengths"]]

    zero_grads(m.params)
    loss, n = m.sequence_loss(*_padded(m, batch))
    ad.backward(loss)
    got = _grads(m)

    total = sum(len(t) - 1 for _, t in batch)
    assert n == total
    want_loss, want = 0.0, {k: np.zeros_like(p.data) for k, p in m.params.items()}
    for src, tgt in batch:
        zero_grads(m.params)
        one, n_one = m.sequence_loss(src, tgt)
        ad.backward(one)
        want_loss += one.item() * n_one / total
        for k, g in _grads(m).items():
            want[k] += g * (n_one / total)

    assert abs(loss.item() - want_loss) <= 1e-12 * abs(want_loss)
    # Each gradient is held to its own scale, except those that are 0 in exact
    # arithmetic: both sides hold only rounding noise there, held to the scale
    # of the largest gradient entry.
    zero = _full_attention_key_biases(m)
    largest = max(np.abs(g).max() for g in want.values())
    for k in want:
        if k in zero:
            assert np.abs(got[k]).max() <= 1e-12 * largest, k
        else:
            assert _rel(got[k], want[k]) <= 1e-12, k


@pytest.mark.parametrize("k_tok", [1, 3, 5, 13])
@pytest.mark.parametrize("k_head", [1, 3])
@pytest.mark.parametrize("circular", [False, True])
def test_band_op_with_padding_matches_oracle_on_each_prefix(rng, k_tok, k_head, circular):
    H, d, lengths = 4, 8, [6, 1, 3, 6, 4]
    L = max(lengths)
    x = rng.normal(size=(len(lengths), L, d))
    key_mask = np.arange(L) < np.array(lengths)[:, None]
    x[~key_mask] = rng.normal(size=(int((~key_mask).sum()), d)) * 1e3  # padding must not leak
    p = attention_params(rng, d)
    for name in ("bq", "bk", "bv", "bo"):
        p[name].data[:] = rng.normal(size=d)
    cfg = AttentionConfig(heads=H, token_kernel=k_tok, head_kernel=k_head, circular=circular,
                          conv_layers=())
    got, w = conv_multi_head_attention(ad.constant(x), p, cfg, key_mask)
    assert got.shape == (len(lengths), L, d)
    assert np.allclose(w.data.sum(-1), 1.0)
    for b, n in enumerate(lengths):
        want = naive_conv_attention(x[b, :n], _np_params(p), cfg)
        assert np.abs(got.data[b, :n] - want).max() <= 1e-10 * np.abs(want).max()


def test_key_mask_must_match_input(rng):
    x = ad.constant(rng.normal(size=(2, 5, 8)))
    p = attention_params(rng, 8)
    cfg = AttentionConfig(heads=4, token_kernel=3, head_kernel=3, conv_layers=())
    with pytest.raises(ContractError, match="key mask"):
        conv_multi_head_attention(x, p, cfg, np.ones((2, 4), dtype=bool))


def _tape_nodes(loss):
    seen, todo, nodes = set(), [loss], 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += node._backward is not None
        todo.extend(p for p in node._parents if p.requires_grad)
    return nodes


def test_graph_size_does_not_grow_with_batch(rng, monkeypatch):
    counts = []

    def counting(loss):
        counts.append(_tape_nodes(loss))
        return backward(loss)

    backward = ad.backward
    monkeypatch.setattr(ad, "backward", counting)
    m = _model(dropout=0.1, token_kernel=5, d=16)
    batch = [_pair(rng, int(rng.integers(4, 12)), int(rng.integers(3, 8))) for _ in range(8)]
    m.train_step(batch[:1], OptimizerState(d_model=16, warmup=10))
    m.train_step(batch, OptimizerState(d_model=16, warmup=10))
    assert counts[0] == counts[1] > 0


def test_unpadded_batch_builds_no_mask(rng, monkeypatch):
    masks = []

    def spy(x, mask=None):
        masks.append(mask)
        return softmax(x, mask)

    def attention_spy(q, k, v, heads, bias=None):
        masks.append(bias)
        return fused(q, k, v, heads, bias)

    softmax = ad.softmax
    monkeypatch.setattr(ad, "softmax", spy)
    from convsum import attention

    fused = attention._attention
    monkeypatch.setattr(attention, "_attention", attention_spy)
    m = _model(conv_layers=())
    batch = [_pair(rng, 5, int(rng.integers(3, 6))) for _ in range(3)]
    m.train_step(batch, OptimizerState(d_model=8, warmup=10))
    # only the decoder's causal (T, T) masks; no key-padding mask anywhere
    assert masks and all(k is None or k.ndim == 2 for k in masks)


def test_train_step_graph_is_freed_without_the_cyclic_collector(rng, monkeypatch):
    refs = []

    def tracked(*args, **kwargs):
        out = layer_norm(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    layer_norm = ad.layer_norm
    monkeypatch.setattr(ad, "layer_norm", tracked)
    m = _model(integration="concatenation", dropout=0.1)
    batch = [_pair(rng, int(rng.integers(2, 9)), int(rng.integers(2, 6))) for _ in range(4)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        m.train_step(batch, OptimizerState(d_model=8, warmup=10))
        assert refs and all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()
