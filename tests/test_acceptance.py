"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
after the run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from _helpers import (attention_params, check_grads, fix_gate, head_union_indices,
                      make_lead_corpus)
from convsum import autodiff as ad
from convsum.attention import AttentionConfig, conv_multi_head_attention, multi_head_attention
from convsum.config import RunConfig, build_model
from convsum.data import encode_pairs, iter_texts
from convsum.decoding import DecodingConfig, beam_search
from convsum.model import ModelConfig, Summarizer
from convsum.optim import OptimizerState, noam_rate
from convsum.providers import StubProvider
from convsum.rouge import lead_tail_analysis, rouge_l, rouge_n, split_sentences
from convsum.tokenizer import RESERVED, Vocab, build_vocab
from convsum.trainer import Trainer, evaluate_model
from convsum.windowing import WindowingConfig, coverage_counts, encode_long, split_windows

from test_attention import naive_conv_attention
from test_decoding import ToyModel, exhaustive_best, greedy_decode
from test_rouge import _brute_lcs


def test_c01_reduction_equivalence():
    """Wide-kernel single-head-window conv attention == vanilla, bit for bit."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for _ in range(20):
        L = int(rng.integers(1, 9))
        H = int(rng.choice([1, 2, 4]))
        d = H * int(rng.integers(1, 5))
        x = ad.constant(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        k_tok = 2 * L - 1 if (2 * L - 1) % 2 == 1 else 2 * L + 1
        cfg = AttentionConfig(heads=H, token_kernel=k_tok, head_kernel=1, conv_layers=())
        conv, _ = conv_multi_head_attention(x, p, cfg)
        van, _ = multi_head_attention(x, x, p, H)
        assert np.array_equal(conv.data, van.data)
    assert time.perf_counter() - t0 < 1.0


def test_c02_conv_attention_oracle():
    """All kernel/mode combinations match the naive gather/softmax reference."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    H, L, d = 4, 6, 8
    for k_tok, k_head, circular in itertools.product((1, 3, 5), (1, 3), (False, True)):
        x = ad.constant(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        cfg = AttentionConfig(heads=H, token_kernel=k_tok, head_kernel=k_head,
                              circular=circular, conv_layers=())
        got, _ = conv_multi_head_attention(x, p, cfg)
        want = naive_conv_attention(x.data, {k: t.data for k, t in p.items()}, cfg)
        rel = np.abs(got.data - want) / np.maximum(np.abs(want), 1e-30)
        assert rel.max() < 1e-10, (k_tok, k_head, circular)
    assert time.perf_counter() - t0 < 10.0


def test_c03_head_union_properties():
    """Circular unions are rotations with k_head members; standard obeys clipping."""
    for H in range(1, 9):
        for k in range(1, 8, 2):
            half = (k - 1) // 2
            if k <= H:
                base = head_union_indices(0, H, k, circular=True)
                assert len(base) == k
                for h in range(H):
                    got = head_union_indices(h, H, k, circular=True)
                    assert got == [(b + h) % H for b in base]
                    assert len(got) == k and len(set(got)) == k
            for h in range(H):
                got = head_union_indices(h, H, k, circular=False)
                want = k - max(0, half - h) - max(0, h + half - (H - 1))
                assert len(got) == want


def test_c04_gradient_checks():
    """Every layer passes central-difference checks (rel err < 1e-4, 64-bit)."""
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()

    def proj(shape):
        return ad.constant(rng.normal(size=shape))

    # vanilla attention
    L, d, H = 3, 4, 2
    x = ad.parameter(rng.normal(size=(L, d)))
    p = attention_params(rng, d)
    r = proj((L, d))
    check_grads(
        lambda: ad.tensor_sum(ad.mul(multi_head_attention(x, x, p, H)[0], r)),
        {"x": x, "wq": p["wq"], "wk": p["wk"], "wv": p["wv"], "wo": p["wo"], "bq": p["bq"]},
    )

    # conv attention, standard and circular 2D windows
    for circular in (False, True):
        xc = ad.parameter(rng.normal(size=(4, 4)))
        pc = attention_params(rng, 4)
        rc = proj((4, 4))
        cfg = AttentionConfig(heads=4, token_kernel=3, head_kernel=3, circular=circular,
                              conv_layers=())
        check_grads(
            lambda: ad.tensor_sum(ad.mul(conv_multi_head_attention(xc, pc, cfg)[0], rc)),
            {"x": xc, "wq": pc["wq"], "wk": pc["wk"], "wv": pc["wv"], "wo": pc["wo"]},
        )

    # pointer-generator
    vocab = Vocab(list(RESERVED) + [f"w{i}" for i in range(6)])
    att = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=())
    m = Summarizer(
        ModelConfig(d_model=8, enc_layers=1, dec_layers=1, ff_size=16, attention=att,
                    dropout=0.0, label_smoothing=0.0, copy=True),
        vocab, seed=1,
    )
    states = ad.parameter(rng.normal(size=(2, 8)))
    memory = ad.parameter(rng.normal(size=(4, 8)))
    src = np.array([vocab.cls_id, 7, 9, 7])
    rp = proj((2, len(vocab)))
    check_grads(
        lambda: ad.tensor_sum(ad.mul(m.pointer_generator(states, memory, src)[1], rp)),
        {"states": states, "memory": memory, "copy.wq": m.params["copy.wq"],
         "copy.bq": m.params["copy.bq"], "gate.w": m.params["copy.gate.w"],
         "gate.b": m.params["copy.gate.b"], "gen.w": m.params["gen.w"]},
    )

    # layer norm
    xn = ad.parameter(rng.normal(size=(3, 5)))
    g = ad.parameter(rng.normal(size=(5,)) + 1.0)
    b = ad.parameter(rng.normal(size=(5,)))
    rn = proj((3, 5))
    check_grads(lambda: ad.tensor_sum(ad.mul(ad.layer_norm(xn, g, b), rn)),
                {"x": xn, "g": g, "b": b})

    # feed-forward
    xf = ad.parameter(rng.normal(size=(3, 4)))
    w1 = ad.parameter(rng.normal(size=(4, 8)))
    b1 = ad.parameter(rng.normal(size=(8,)))
    w2 = ad.parameter(rng.normal(size=(8, 4)))
    b2 = ad.parameter(rng.normal(size=(4,)))
    rf = proj((3, 4))
    check_grads(
        lambda: ad.tensor_sum(
            ad.mul(ad.linear(ad.relu(ad.linear(xf, w1, b1)), w2, b2), rf)
        ),
        {"x": xf, "w1": w1, "b1": b1, "w2": w2, "b2": b2},
    )

    # smoothed cross-entropy (logits path and probability path)
    logits = ad.parameter(rng.normal(size=(4, 6)))
    target = np.array([2, 0, 5, 3])
    check_grads(lambda: ad.label_smoothed_cross_entropy(logits, target, 0.1, pad_id=0),
                {"logits": logits})
    raw = ad.parameter(rng.normal(size=(3, 6)))
    check_grads(
        lambda: ad.label_smoothed_nll(ad.softmax(raw), np.array([1, 4, 2]), 0.1, pad_id=0),
        {"raw": raw},
    )

    assert time.perf_counter() - t0 < 60.0


def test_c05_pointer_generator_mixture():
    """Eq-style mixture: sums, exact limits, duplicate aggregation."""
    rng = np.random.default_rng(11)
    vocab = Vocab(list(RESERVED) + [f"w{i}" for i in range(10)])
    att = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=())
    m = Summarizer(
        ModelConfig(d_model=8, enc_layers=1, dec_layers=1, ff_size=16, attention=att,
                    dropout=0.0, label_smoothing=0.0, copy=True),
        vocab, seed=2,
    )
    V = len(vocab)
    for _ in range(1000):
        T = int(rng.integers(1, 4))
        L = int(rng.integers(1, 6))
        states = ad.constant(rng.normal(size=(T, 8)))
        memory = ad.constant(rng.normal(size=(L, 8)))
        src = rng.integers(0, V, size=L)
        _, mixed, _ = m.pointer_generator(states, memory, src)
        assert np.abs(mixed.data.sum(-1) - 1.0).max() <= 1e-9
        assert mixed.data.min() >= 0.0

    # limits and duplicate-source accumulation (scatter-sum oracle)
    states = ad.constant(rng.normal(size=(3, 8)))
    memory = ad.constant(rng.normal(size=(5, 8)))
    src = np.array([7, 9, 7, 11, 9])
    fix_gate(m, 800.0)
    gate1, copy_only, attn = m.pointer_generator(states, memory, src)
    oracle = np.zeros((3, V))
    for t in range(3):
        for j, w in enumerate(src):
            oracle[t, w] += attn.data[t, j]
    assert np.array_equal(copy_only.data, oracle)
    assert np.allclose(copy_only.data.sum(-1), 1.0)

    fix_gate(m, -800.0)
    _, soft_only, _ = m.pointer_generator(states, memory, src)
    logits = states.data @ m.params["gen.w"].data + m.params["gen.b"].data
    soft = np.exp(logits - logits.max(-1, keepdims=True))
    soft /= soft.sum(-1, keepdims=True)
    assert np.array_equal(soft_only.data, soft)


def test_c06_windowing():
    """Split/merge per the averaging contract; stub oracles exact."""
    rng = np.random.default_rng(5)
    # short input: bit-equal to the direct provider call
    prov = StubProvider(40, width=6, max_window=8, seed=1)
    ids = rng.integers(0, 40, size=7)
    assert np.array_equal(
        encode_long(ids, prov, WindowingConfig(8, 4)), prov.context_embed(ids)
    )

    # coverage counts for (L=6, W=4, S=2)
    spans = split_windows(6, WindowingConfig(4, 2))
    assert list(coverage_counts(spans, 6)) == [1, 1, 2, 2, 1, 1]

    # context-free stub: exact equality with direct lookup up to L = 5W
    free = StubProvider(40, width=6, max_window=4, seed=2, context_free=True)
    cfg = WindowingConfig(4, 2)
    for L in range(1, 21):
        ids = rng.integers(0, 40, size=L)
        assert np.array_equal(encode_long(ids, free, cfg), free.token_table[ids])

    # context-mixing stub vs hand-composed reference, <= 1e-12
    mix = StubProvider(40, width=6, max_window=4, seed=3)
    ids = rng.integers(0, 40, size=6)
    a = mix.context_embed(ids[0:4])
    b = mix.context_embed(ids[2:6])
    want = np.vstack([a[0:2], (a[2:4] + b[0:2]) / 2, b[2:4]])
    got = encode_long(ids, mix, cfg)
    assert np.abs(got - want).max() <= 1e-12


def test_c07_beam_search():
    """Greedy reduction, brute-force equivalence, min-length mask."""
    t0 = time.perf_counter()
    for seed in range(10):
        model = ToyModel(seed=seed)
        cfg = DecodingConfig(beam_size=1, min_length=1, max_length=6)
        assert beam_search(model, np.arange(3), cfg) == greedy_decode(model, np.arange(3), cfg)

    for seed in (0, 3, 9):
        model = ToyModel(n_vocab=5, seed=seed)
        cfg = DecodingConfig(beam_size=625, min_length=1, max_length=4, coverage_beta=0.0)
        assert beam_search(model, np.arange(3), cfg) == exhaustive_best(model, np.arange(3), cfg)

    rng = np.random.default_rng(17)
    for seed in range(100):
        model = ToyModel(n_vocab=5, seed=seed)
        min_len = int(rng.integers(1, 4))
        cfg = DecodingConfig(beam_size=int(rng.integers(1, 5)), min_length=min_len,
                             max_length=5)
        out = beam_search(model, np.arange(4), cfg)
        assert len(out) >= min_len
        assert model.vocab.eos_id not in out
    assert time.perf_counter() - t0 < 30.0


def test_c08_rouge():
    """Hand-computed cases exact; LCS equals brute force; limits exact."""
    s = rouge_n("the cat sat".split(), "the cat".split(), 1)
    assert s.precision == pytest.approx(2 / 3) and s.recall == 1.0
    assert s.f1 == pytest.approx(0.8)

    s = rouge_l("a b c d".split(), "a c d".split())
    assert (s.precision, s.recall) == (0.75, 1.0)
    assert s.f1 == pytest.approx(6 / 7)

    rng = np.random.default_rng(23)
    pool = list("abcd")
    for _ in range(30):
        a = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 11))]
        b = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 11))]
        got = rouge_l(a, b)
        lcs = _brute_lcs(a, b)
        assert got.precision == pytest.approx(lcs / len(a))
        assert got.recall == pytest.approx(lcs / len(b))

    assert rouge_n("x y".split(), "x y".split(), 1).f1 == 1.0
    assert rouge_l("x y".split(), "x y".split()).f1 == 1.0
    assert rouge_n("a b".split(), "c d".split(), 1).f1 == 0.0
    assert rouge_l([], "a".split()).f1 == 0.0


def _gate_run(conv: bool, stop_f1: float, vocab, pairs, test_pairs) -> tuple[float, int]:
    cfg = RunConfig(
        d_model=64, enc_layers=2, dec_layers=2, ff_size=128, heads=4,
        token_kernel=13, head_kernel=3, conv_layers=(0,) if conv else (),
        dropout=0.1, label_smoothing=0.1, copy=True, warmup=400, steps=5000,
        batch_size=8, beam_size=4, min_length=1, max_length=20, seed=7,
        max_source_len=64,
    )
    trainer = Trainer(cfg, vocab, pairs)
    best = 0.0
    for chunk_end in range(250, 5001, 250):
        trainer.train(until_step=chunk_end)
        f1 = evaluate_model(trainer.model, test_pairs, cfg.decoding_config())["rouge1"].f1
        best = max(best, f1)
        if best >= stop_f1:
            break
    return best, trainer.step


def test_c09_desk_scale_learning_gate():
    """Lead-1 corpus: baseline >= 0.90 within budget; conv within 0.02 of it."""
    t0 = time.perf_counter()
    train_docs = make_lead_corpus(500, seed=101)
    test_docs = make_lead_corpus(50, seed=202)
    vocab = build_vocab(iter_texts(train_docs), 500)
    assert len(vocab) <= 500
    cfg_for_pairs = RunConfig(max_source_len=64)
    pairs = encode_pairs(train_docs, vocab, cfg_for_pairs)
    test_pairs = [
        (s, [vocab.token(i) for i in t[1:-1]])
        for s, t in encode_pairs(test_docs, vocab, cfg_for_pairs)
    ]

    base_f1, base_steps = _gate_run(False, 0.90, vocab, pairs, test_pairs)
    assert base_f1 >= 0.90, f"baseline reached only {base_f1:.4f}"
    assert base_steps <= 5000

    conv_f1, conv_steps = _gate_run(True, base_f1 - 0.02, vocab, pairs, test_pairs)
    assert conv_f1 >= base_f1 - 0.02, (
        f"conv variant {conv_f1:.4f} vs baseline {base_f1:.4f}"
    )
    assert conv_steps <= 5000
    assert time.perf_counter() - t0 < 1800.0


def test_c10_schedule_closed_form():
    for d, warmup in ((256, 4000), (64, 400), (512, 8000)):
        for step in (1, warmup, 10 * warmup):
            want = d ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)
            assert abs(noam_rate(d, warmup, step) - want) < 1e-12
        peak = noam_rate(d, warmup, warmup)
        for step in (1, warmup // 2, warmup - 1, warmup + 1, 2 * warmup, 10 * warmup):
            if step >= 1:
                assert noam_rate(d, warmup, step) <= peak


def test_c11_determinism_and_persistence(tmp_path):
    """Same-seed loss logs identical; checkpoints bit-exact; resume matches."""
    from convsum.checkpoint import load_checkpoint, restore_model, save_checkpoint

    docs = make_lead_corpus(12, seed=5, n_sentences=(2, 3), sentence_len=(3, 5))
    vocab = build_vocab(iter_texts(docs), 150)
    cfg = RunConfig(
        seed=3, steps=8, batch_size=4, d_model=16, enc_layers=1, dec_layers=1,
        ff_size=32, heads=2, token_kernel=3, head_kernel=1, conv_layers=(),
        dropout=0.1, label_smoothing=0.1, copy=True, warmup=20,
    )
    pairs = encode_pairs(docs, vocab, cfg)

    rows_a = Trainer(cfg, vocab, pairs).train()
    rows_b = Trainer(cfg, vocab, pairs).train()
    assert rows_a == rows_b

    solo = Trainer(cfg, vocab, pairs)
    full = solo.train(until_step=8)
    first = Trainer(cfg, vocab, pairs)
    head = first.train(until_step=4)
    ck = str(tmp_path / "mid.npz")
    first.save(ck)

    restored, opt2 = restore_model(load_checkpoint(ck))
    for k, p in first.model.params.items():
        assert np.array_equal(restored.params[k].data, p.data)
    assert np.array_equal(opt2.m, first.opt.m) and np.array_equal(opt2.v, first.opt.v)

    second = Trainer(cfg, vocab, pairs, resume_from=ck)
    tail = second.train(until_step=8)
    assert head + tail == full
    for k, p in solo.model.params.items():
        assert np.array_equal(second.model.params[k].data, p.data)


def test_c12_lead_tail_analysis():
    docs = make_lead_corpus(50, seed=31)
    corpus = [(split_sentences(d["source"]), d["summary"]) for d in docs]
    head = lead_tail_analysis(corpus, "head")
    tail = lead_tail_analysis(corpus, "tail")
    assert head["rougeL"].f1 > tail["rougeL"].f1
