import math
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import FullPrefixDecoder, make_lead_corpus
from convsum.config import RunConfig
from convsum.data import encode_pairs, iter_texts
from convsum.decoding import DecodingConfig, Hypothesis, beam_search, coverage_penalty
from convsum.tokenizer import build_vocab
from convsum.trainer import Trainer
from convsum.errors import ContractError


class ToyModel:
    """Fixed-weight sequence scorer: next-token distribution depends on
    (position, last token). Vocab ids: 0=BOS, 1=EOS, rest ordinary."""

    def __init__(self, n_vocab=5, max_positions=8, seed=0, normalized=True):
        rng = np.random.default_rng(seed)
        logits = 1.5 * rng.normal(size=(max_positions, n_vocab, n_vocab))
        e = np.exp(logits - logits.max(-1, keepdims=True))
        self.table = e / e.sum(-1, keepdims=True)
        if not normalized:
            self.table = self.table * 1.5
        self.n_vocab = n_vocab
        self.vocab = SimpleNamespace(bos_id=0, eos_id=1)

    def encode(self, src_ids):
        return np.zeros((len(src_ids), 1))

    def decode_step(self, memory, src_ids, prefix):
        pos = len(prefix) - 1
        attn = np.full(len(src_ids), 1.0 / len(src_ids))
        return self.table[pos, prefix[-1]].copy(), attn

    def start_decode(self, memory, src_ids):
        return FullPrefixDecoder(self, memory, src_ids)


def greedy_decode(model, src, cfg):
    """Independent greedy oracle."""
    bos, eos = model.vocab.bos_id, model.vocab.eos_id
    tokens = []
    for _ in range(cfg.max_length):
        probs, _ = model.decode_step(None, src, [bos] + tokens)
        with np.errstate(divide="ignore"):
            logp = np.log(probs)
        if len(tokens) < cfg.min_length:
            logp[eos] = -np.inf
        t = int(np.argmax(logp))
        if t == eos:
            break
        tokens.append(t)
    return tokens


def exhaustive_best(model, src, cfg):
    """Score every reachable sequence by total log-probability; return argmax."""
    bos, eos = model.vocab.bos_id, model.vocab.eos_id
    best = (-np.inf, None)

    def consider(score, tokens):
        nonlocal best
        if score > best[0]:
            best = (score, list(tokens))

    def rec(tokens, logp):
        probs, _ = model.decode_step(None, src, [bos] + tokens)
        if len(tokens) >= cfg.min_length and probs[eos] > 0:
            consider(logp + math.log(probs[eos]), tokens)
        for t in range(model.n_vocab):
            if t == eos or probs[t] <= 0:
                continue
            nxt = tokens + [t]
            score = logp + math.log(probs[t])
            if len(nxt) == cfg.max_length:
                consider(score, nxt)
            else:
                rec(nxt, score)

    rec([], 0.0)
    return best[1]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            DecodingConfig(beam_size=0)
        with pytest.raises(ContractError):
            DecodingConfig(min_length=0)
        with pytest.raises(ContractError):
            DecodingConfig(min_length=5, max_length=4)
        with pytest.raises(ContractError):
            DecodingConfig(coverage_beta=-1.0)


class TestCoveragePenalty:
    def test_zero_beta(self, rng):
        assert coverage_penalty(rng.random(7), 0.0) == 0.0

    def test_saturated_coverage(self):
        assert coverage_penalty(np.array([1.0, 2.5, 13.0]), 2.0) == 0.0

    def test_formula_value(self):
        got = coverage_penalty(np.array([0.5, 1.0]), 1.0)
        assert abs(got - math.log(0.5)) < 1e-12

    def test_zero_entries_clamped(self):
        got = coverage_penalty(np.array([0.0]), 1.0)
        assert got == pytest.approx(math.log(1e-10))

    def test_never_positive(self, rng):
        for _ in range(20):
            c = rng.random(5) * 3
            assert coverage_penalty(c, rng.random() * 2) <= 0.0

    def test_negative_coverage_rejected(self):
        with pytest.raises(ContractError):
            coverage_penalty(np.array([-0.1]), 1.0)


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        for seed in range(20):
            model = ToyModel(seed=seed)
            cfg = DecodingConfig(beam_size=1, min_length=1, max_length=6)
            src = np.arange(3)
            assert beam_search(model, src, cfg) == greedy_decode(model, src, cfg)

    def test_min_length_respected(self):
        model = ToyModel(seed=3)
        cfg = DecodingConfig(beam_size=2, min_length=3, max_length=6)
        out = beam_search(model, np.arange(3), cfg)
        assert len(out) >= 3

    def test_exhaustive_oracle_equivalence(self):
        # beam large enough to hold every sequence of length <= 4 over 5 tokens
        for seed in (0, 1, 2, 7):
            model = ToyModel(n_vocab=5, seed=seed)
            cfg = DecodingConfig(beam_size=625, min_length=1, max_length=4, coverage_beta=0.0)
            got = beam_search(model, np.arange(3), cfg)
            want = exhaustive_best(model, np.arange(3), cfg)
            assert got == want, f"seed {seed}: {got} != {want}"

    def test_min_length_mask_over_random_decodes(self):
        rng = np.random.default_rng(99)
        for seed in range(100):
            model = ToyModel(n_vocab=5, seed=seed)
            min_len = int(rng.integers(1, 4))
            cfg = DecodingConfig(
                beam_size=int(rng.integers(1, 5)), min_length=min_len, max_length=5
            )
            out = beam_search(model, np.arange(4), cfg)
            assert len(out) >= min_len
            assert model.vocab.eos_id not in out

    def test_returned_score_is_pool_maximum(self):
        model = ToyModel(seed=5)
        cfg = DecodingConfig(beam_size=625, min_length=1, max_length=3)
        got = beam_search(model, np.arange(2), cfg)
        want = exhaustive_best(model, np.arange(2), cfg)
        assert got == want

    def test_invalid_distribution_rejected(self):
        model = ToyModel(seed=0, normalized=False)
        cfg = DecodingConfig(beam_size=2, min_length=1, max_length=3)
        with pytest.raises(ContractError):
            beam_search(model, np.arange(3), cfg)

    def test_empty_source_rejected(self):
        with pytest.raises(ContractError):
            beam_search(ToyModel(), np.array([], dtype=np.int64), DecodingConfig(1, 1, 2))

    def test_coverage_beta_changes_final_ranking(self):
        # two finished hypotheses with close log-probs: a large beta prefers
        # the better-covered one, verified through the public score pieces
        h_full = Hypothesis([2, 3], -1.00, np.array([1.0, 1.0]), 1)
        h_thin = Hypothesis([3, 2], -0.99, np.array([0.2, 0.1]), 1)
        beta = 1.0
        s_full = h_full.log_prob + coverage_penalty(h_full.coverage, beta)
        s_thin = h_thin.log_prob + coverage_penalty(h_thin.coverage, beta)
        assert s_full > s_thin

    def test_deterministic(self):
        model = ToyModel(seed=11)
        cfg = DecodingConfig(beam_size=3, min_length=1, max_length=5)
        a = beam_search(model, np.arange(3), cfg)
        b = beam_search(model, np.arange(3), cfg)
        assert a == b


@pytest.fixture(scope="module")
def trained_gate():
    """The desk-scale gate model (copy, conv layer 0) after 200 steps at batch 4."""
    docs = make_lead_corpus(200, seed=101)
    vocab = build_vocab(iter_texts(docs), 300)
    cfg = RunConfig(
        d_model=64, enc_layers=2, dec_layers=2, ff_size=128, heads=4,
        token_kernel=13, head_kernel=3, conv_layers=(0,), dropout=0.1,
        label_smoothing=0.1, copy=True, warmup=400, steps=200, batch_size=4,
        seed=7, max_source_len=64,
    )
    trainer = Trainer(cfg, vocab, encode_pairs(docs, vocab, cfg))
    trainer.train()
    test_docs = make_lead_corpus(8, seed=202)
    return trainer.model, [s for s, _ in encode_pairs(test_docs, vocab, cfg)]


class TestCachedDecoding:
    def test_same_tokens_as_full_prefix_adapter(self, trained_gate):
        model, sources = trained_gate
        # a decoder that reruns decode_step over each row's full prefix
        full_prefix = SimpleNamespace(
            encode=model.encode, vocab=model.vocab,
            start_decode=lambda memory, src: FullPrefixDecoder(model, memory, src),
        )
        for cfg in (DecodingConfig(4, 1, 20), DecodingConfig(4, 20, 20),
                    DecodingConfig(3, 2, 12, coverage_beta=0.5)):
            got = [beam_search(model, s, cfg) for s in sources]
            want = [beam_search(full_prefix, s, cfg) for s in sources]
            assert got == want, cfg
            if cfg.min_length == 1:  # some hypotheses finish with EOS
                assert any(len(t) < cfg.max_length for t in got)
