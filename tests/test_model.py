import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _helpers import check_grads, fix_gate, gate_model
from convsum import autodiff as ad
from convsum.attention import AttentionConfig
from convsum.checkpoint import load_checkpoint, restore_model, save_checkpoint
from convsum.config import RunConfig, build_model
from convsum.errors import ConfigError, ContractError, NonFiniteError
from convsum.decoding import DecodingConfig, beam_search
from convsum.model import ModelConfig, Summarizer, _sinusoid
from convsum.optim import OptimizerState, zero_grads
from convsum.providers import StubProvider
from convsum.tokenizer import RESERVED, Vocab

V_EXTRA = 14


@pytest.fixture
def vocab():
    return Vocab(list(RESERVED) + [f"w{i}" for i in range(V_EXTRA)])


def tiny_cfg(**kw):
    base = dict(
        d_model=8,
        enc_layers=1,
        dec_layers=1,
        ff_size=16,
        attention=AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=()),
        dropout=0.0,
        label_smoothing=0.0,
        integration="none",
        copy=False,
    )
    base.update(kw)
    return ModelConfig(**base)


def np_params(model, prefix):
    pl = prefix + "."
    return {k[len(pl):]: t.data for k, t in model.params.items() if k.startswith(pl)}


# --- independent numpy reference pieces -------------------------------------


def naive_sinusoid(L, d):
    pe = np.zeros((L, d))
    for pos in range(L):
        for i in range(d // 2):
            angle = pos / 10000 ** (2 * i / d)
            pe[pos, 2 * i] = math.sin(angle)
            pe[pos, 2 * i + 1] = math.cos(angle)
    return pe


def naive_ln(x, g, b, eps=1e-6):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def naive_mha(q_in, kv_in, p, heads, mask=None):
    Lq, d = q_in.shape
    Lk = kv_in.shape[0]
    dk = d // heads
    q = q_in @ p["wq"] + p["bq"]
    k = kv_in @ p["wk"] + p["bk"]
    v = kv_in @ p["wv"] + p["bv"]
    out = np.zeros((Lq, d))
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        for i in range(Lq):
            cols = [j for j in range(Lk) if mask is None or mask[i, j]]
            s = np.array([q[i, sl] @ k[j, sl] / math.sqrt(dk) for j in cols])
            w = np.exp(s - s.max())
            w /= w.sum()
            for wm, j in zip(w, cols):
                out[i, sl] += wm * v[j, sl]
    return out @ p["wo"] + p["bo"]


def naive_ffn(x, p):
    return np.maximum(x @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"]


def naive_encoder_layer(x, model, i, heads):
    a = naive_mha(x, x, np_params(model, f"enc.{i}.att"), heads)
    ln1 = np_params(model, f"enc.{i}.ln1")
    x = naive_ln(x + a, ln1["g"], ln1["b"])
    f = naive_ffn(x, np_params(model, f"enc.{i}.ff"))
    ln2 = np_params(model, f"enc.{i}.ln2")
    return naive_ln(x + f, ln2["g"], ln2["b"])


# --- config validation -------------------------------------------------------


class TestModelConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            tiny_cfg(d_model=10, attention=AttentionConfig(heads=4, conv_layers=()))

    def test_concatenation_needs_plain_layer(self):
        with pytest.raises(ConfigError):
            tiny_cfg(integration="concatenation", enc_layers=1)
        cfg = tiny_cfg(integration="concatenation", enc_layers=3)
        assert cfg.conv_branch_layers == 1

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            tiny_cfg(integration="bolted")

    def test_conditioned_modes_require_provider(self, vocab):
        with pytest.raises(ConfigError):
            Summarizer(tiny_cfg(integration="stacking"), vocab, provider=None)

    def test_conv_layers_must_be_distinct_encoder_layers(self):
        for bad in ((5, -1), (1,), (-1,), (0, 0)):
            att = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=bad)
            with pytest.raises(ConfigError, match="conv_layers"):
                tiny_cfg(enc_layers=1, attention=att)
        for good in ((), (0,), (1, 0)):
            att = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=good)
            tiny_cfg(enc_layers=2, attention=att)


class TestSinusoid:
    @staticmethod
    def direct(L, d):
        """The table built at exactly L rows."""
        angle = np.arange(L)[:, None] / np.power(10000.0, 2.0 * np.arange(d // 2)[None, :] / d)
        pe = np.zeros((L, d))
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle)
        return pe

    def test_grown_table_slices_are_bitwise_the_direct_table(self):
        for d in (6, 64):
            for L in (3, 1, 40, 7, 129, 2, 300, 129):
                got = _sinusoid(L, d)
                assert got.shape == (L, d)
                assert np.array_equal(got, self.direct(L, d)), (L, d)
                # Python's ** and np.power may round differently in the last bit
                assert np.abs(got - naive_sinusoid(L, d)).max() < 1e-12

    def test_one_bounded_read_only_table_per_width(self):
        from convsum import model as model_mod

        for L in range(1, 200):
            _sinusoid(L, 10)
        table = model_mod._SINUSOID_TABLES[10]
        assert 199 <= table.shape[0] < 2 * 199
        assert _sinusoid(5, 10).base is table
        with pytest.raises(ValueError):
            _sinusoid(5, 10)[0, 0] = 1.0


# --- encoder -----------------------------------------------------------------


class TestEncode:
    def test_matches_hand_built_vanilla_encoder(self, vocab, rng):
        cfg = tiny_cfg()
        m = Summarizer(cfg, vocab, seed=3)
        ids = np.array([vocab.cls_id, 7, 9])
        got = m.encode(ids)
        d = cfg.d_model
        x = m.params["src_embed"].data[ids] * math.sqrt(d) + naive_sinusoid(3, d)
        want = naive_encoder_layer(x, m, 0, cfg.attention.heads)
        assert np.abs(got.data - want).max() < 1e-12

    def test_zero_length_rejected(self, vocab):
        with pytest.raises(ContractError):
            Summarizer(tiny_cfg(), vocab).encode([])

    def test_stacking_input_is_stub_rows_under_identity_projection(self, vocab, rng):
        d = 8
        prov = StubProvider(len(vocab), width=d, max_window=16, seed=9, context_free=True)
        cfg = tiny_cfg(integration="stacking")
        from convsum.windowing import WindowingConfig

        m = Summarizer(cfg, vocab, provider=prov, windowing=WindowingConfig(16, 8), seed=3)
        m.params["ctx_proj.w"].data = np.eye(d)
        m.params["ctx_proj.b"].data = np.zeros(d)
        ids = np.array([vocab.cls_id, 7, 9, 11])
        got = m.encode(ids)
        want = naive_encoder_layer(prov.token_table[ids], m, 0, cfg.attention.heads)
        assert np.abs(got.data - want).max() < 1e-12

    def test_concatenation_output_shape_for_any_provider_width(self, vocab):
        from convsum.windowing import WindowingConfig

        # no width is configured: each projection is sized by the provider's
        modes = (  # (config overrides, projection, its input rows at width w, d)
            ({"integration": "stacking"}, "ctx_proj.w", lambda w, d: w),
            ({"integration": "concatenation", "enc_layers": 2}, "cat_proj.w", lambda w, d: d + w),
            ({"decoder_conditioned": True}, "dec_proj.w", lambda w, d: w),
        )
        src = [vocab.cls_id, 6, 7, 8]
        for width in (3, 8, 20):
            prov = StubProvider(len(vocab), width=width, max_window=16, seed=1)
            for overrides, proj, rows in modes:
                cfg = tiny_cfg(**overrides)
                m = Summarizer(cfg, vocab, provider=prov, windowing=WindowingConfig(16, 8))
                d = cfg.d_model
                assert m.params[proj].shape == (rows(width, d), d), (overrides, width)
                out = m.encode(src)
                assert out.shape == (4, d)
                probs, _ = m.decode_step(out, src, [vocab.bos_id, 9])
                assert probs.shape == (len(vocab),)

    def test_conv_reduction_reproduces_plain_baseline(self, vocab, rng):
        L = 5
        att_base = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=())
        att_conv = AttentionConfig(heads=2, token_kernel=2 * L - 1, head_kernel=1, conv_layers=(0,))
        base = Summarizer(tiny_cfg(attention=att_base), vocab, seed=11)
        conv = Summarizer(tiny_cfg(attention=att_conv), vocab, seed=11)
        ids = np.concatenate([[vocab.cls_id], rng.integers(6, len(vocab), size=L - 1)])
        assert np.array_equal(base.encode(ids).data, conv.encode(ids).data)

    def test_same_seed_bit_identical(self, vocab, rng):
        ids = np.array([vocab.cls_id, 6, 8, 10])
        a = Summarizer(tiny_cfg(), vocab, seed=5).encode(ids)
        b = Summarizer(tiny_cfg(), vocab, seed=5).encode(ids)
        assert np.array_equal(a.data, b.data)


# --- decoder -----------------------------------------------------------------


class TestDecode:
    def test_distribution_sums_to_one(self, vocab, rng):
        for copy in (False, True):
            m = Summarizer(tiny_cfg(copy=copy), vocab, seed=2)
            src = np.array([vocab.cls_id, 6, 7, 8])
            memory = m.encode(src)
            probs, attn = m.decode_step(memory, src, [vocab.bos_id, 9])
            assert abs(probs.sum() - 1.0) < 1e-9
            assert probs.min() >= 0.0
            assert attn.shape == (4,)

    def test_causality_prefix_extension_keeps_earlier_rows(self, vocab):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=2)
        src = np.array([vocab.cls_id, 6, 7])
        memory = m.encode(src)

        def probs(prefix):
            states, cross, _ = m._decoder_states(np.array(prefix), m._cross_kv(memory), False)
            return m._output_head(states, cross, memory, src)[0].data

        p1, p2 = probs([vocab.bos_id]), probs([vocab.bos_id, 9])
        assert np.allclose(p1[0], p2[0], rtol=0, atol=1e-12)

    def test_matches_nested_loop_reference_decoder(self, vocab):
        cfg = tiny_cfg()
        m = Summarizer(cfg, vocab, seed=7)
        src = np.array([vocab.cls_id, 6, 7, 8])
        prefix = np.array([vocab.bos_id, 9, 10])
        memory = m.encode(src)
        states, _, _ = m._decoder_states(prefix, m._cross_kv(memory), False)

        d, H = cfg.d_model, cfg.attention.heads
        x = m.params["tgt_embed"].data[prefix] * math.sqrt(d) + naive_sinusoid(3, d)
        causal = np.tril(np.ones((3, 3), dtype=bool))
        a = naive_mha(x, x, np_params(m, "dec.0.self"), H, causal)
        ln1 = np_params(m, "dec.0.ln1")
        x = naive_ln(x + a, ln1["g"], ln1["b"])
        c = naive_mha(x, memory.data, np_params(m, "dec.0.cross"), H)
        ln2 = np_params(m, "dec.0.ln2")
        x = naive_ln(x + c, ln2["g"], ln2["b"])
        f = naive_ffn(x, np_params(m, "dec.0.ff"))
        ln3 = np_params(m, "dec.0.ln3")
        want = naive_ln(x + f, ln3["g"], ln3["b"])
        assert np.abs(states.data - want).max() < 1e-12

        logits = want @ m.params["gen.w"].data + m.params["gen.b"].data
        want_probs = np.exp(logits - logits.max(-1, keepdims=True))
        want_probs /= want_probs.sum(-1, keepdims=True)
        probs, _ = m.decode_step(memory, src, prefix)
        assert np.abs(probs - want_probs[-1]).max() < 1e-12

    def test_empty_prefix_rejected(self, vocab):
        m = Summarizer(tiny_cfg(), vocab)
        memory = m.encode([vocab.cls_id, 6])
        with pytest.raises(ContractError):
            m.decode_step(memory, [vocab.cls_id, 6], [])

    def test_prefix_must_start_with_bos(self, vocab):
        m = Summarizer(tiny_cfg(), vocab)
        memory = m.encode([vocab.cls_id, 6])
        with pytest.raises(ContractError):
            m.decode_step(memory, [vocab.cls_id, 6], [9])

    def test_conditioned_decoder_uses_provider_table(self, vocab):
        prov = StubProvider(len(vocab), width=8, max_window=16, seed=4)
        from convsum.windowing import WindowingConfig

        cfg = tiny_cfg(integration="stacking", decoder_conditioned=True)
        m = Summarizer(cfg, vocab, provider=prov, windowing=WindowingConfig(16, 8))
        assert "tgt_embed" not in m.params and "dec_proj.w" in m.params
        src = np.array([vocab.cls_id, 6, 7])
        probs, _ = m.decode_step(m.encode(src), src, [vocab.bos_id, 8])
        assert abs(probs.sum() - 1.0) < 1e-9


# --- pointer-generator --------------------------------------------------------


class TestPointerGenerator:
    def _setup(self, vocab, rng, L=5, T=3, dup=True):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=6)
        src = np.array([vocab.cls_id, 7, 9, 7, 11][:L])
        if not dup:
            src = np.array([vocab.cls_id, 7, 9, 10, 11][:L])
        states = ad.constant(rng.normal(size=(T, 8)))
        memory = ad.constant(rng.normal(size=(L, 8)))
        return m, states, memory, src

    def test_mixture_is_distribution(self, vocab, rng):
        m, states, memory, src = self._setup(vocab, rng)
        _, mixed, attn = m.pointer_generator(states, memory, src)
        assert np.allclose(mixed.data.sum(-1), 1.0, atol=1e-9)
        assert mixed.data.min() >= 0.0
        assert np.allclose(attn.data.sum(-1), 1.0)

    def test_gate_one_recovers_copy_exactly(self, vocab, rng):
        m, states, memory, src = self._setup(vocab, rng)
        fix_gate(m, 800.0)
        _, mixed, attn = m.pointer_generator(states, memory, src)
        mass_on_source = mixed.data[:, np.unique(src)].sum(-1)
        assert np.allclose(mass_on_source, 1.0)
        expected = np.zeros((3, len(vocab)))
        for t in range(3):
            for j, w in enumerate(src):
                expected[t, w] += attn.data[t, j]
        assert np.array_equal(mixed.data, expected)

    def test_gate_zero_recovers_softmax_exactly(self, vocab, rng):
        m, states, memory, src = self._setup(vocab, rng)
        fix_gate(m, -800.0)
        _, mixed, _ = m.pointer_generator(states, memory, src)
        logits = states.data @ m.params["gen.w"].data + m.params["gen.b"].data
        soft = np.exp(logits - logits.max(-1, keepdims=True))
        soft /= soft.sum(-1, keepdims=True)
        assert np.array_equal(mixed.data, soft)

    def test_eq1_arithmetic(self, vocab, rng):
        m, states, memory, src = self._setup(vocab, rng)
        fix_gate(m, math.log(0.3 / 0.7))
        g, mixed, attn = m.pointer_generator(states, memory, src)
        gate = g.data[0, 0]
        assert np.all(g.data == gate) and abs(gate - 0.3) < 1e-15
        copy = np.zeros((3, len(vocab)))
        for t in range(3):
            for j, w in enumerate(src):
                copy[t, w] += attn.data[t, j]
        logits = states.data @ m.params["gen.w"].data + m.params["gen.b"].data
        soft = np.exp(logits - logits.max(-1, keepdims=True))
        soft /= soft.sum(-1, keepdims=True)
        assert np.abs(mixed.data - (gate * copy + (1 - gate) * soft)).max() < 1e-15
        assert np.isclose(0.3 * 0.5 + 0.7 * 0.1, 0.22)

    @pytest.mark.parametrize("bias", ["copy.gate.b", "gen.b"])
    def test_infinite_logit_is_named_before_it_is_hidden(self, vocab, rng, bias):
        # the sigmoid alone would make the gate 1.0, the softmax alone would
        # make NaN and warn about it
        m, states, memory, src = self._setup(vocab, rng)
        m.params[bias].data[0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="op 'copy_head'"):
                m.pointer_generator(states, memory, src)

    def test_memory_length_mismatch(self, vocab, rng):
        m, states, memory, src = self._setup(vocab, rng)
        with pytest.raises(ContractError):
            m.pointer_generator(states, memory, src[:-1])


# --- training ----------------------------------------------------------------


def _copy_batch(vocab, rng, n, src_len=6):
    batch = []
    for _ in range(n):
        body = rng.integers(6, len(vocab), size=src_len - 1)
        src = np.concatenate([[vocab.cls_id], body])
        tgt = np.concatenate([[vocab.bos_id], body, [vocab.eos_id]])
        batch.append((src, tgt))
    return batch


class TestTrainStep:
    def test_loss_strictly_decreases_on_repeated_batch(self, vocab, rng):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=1)
        opt = OptimizerState(d_model=8, warmup=10)
        batch = _copy_batch(vocab, rng, 1)
        l1, _ = m.train_step(batch, opt)
        l2, _ = m.train_step(batch, opt)
        assert l2 < l1

    def test_all_pad_target_zero_loss_zero_gradient(self, vocab):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=1)
        opt = OptimizerState(d_model=8, warmup=10)
        batch = [(np.array([vocab.cls_id, 7]), np.array([vocab.bos_id, vocab.pad_id]))]
        loss, _ = m.train_step(batch, opt)
        assert loss == 0.0
        assert all(p.grad is None or np.all(p.grad == 0.0) for p in m.params.values())

    @pytest.mark.parametrize("integration", ["none", "stacking", "concatenation"])
    def test_all_parameters_receive_finite_gradients(self, vocab, rng, integration):
        from convsum.windowing import WindowingConfig

        prov = None
        if integration != "none":
            prov = StubProvider(len(vocab), width=8, max_window=16, seed=3)
        cfg = tiny_cfg(
            copy=True,
            integration=integration,
            enc_layers=2 if integration == "concatenation" else 1,
            dropout=0.1,
            label_smoothing=0.1,
            decoder_conditioned=integration == "stacking",
        )
        m = Summarizer(cfg, vocab, provider=prov, windowing=WindowingConfig(16, 8), seed=4)
        opt = OptimizerState(d_model=8, warmup=10)
        m.train_step(_copy_batch(vocab, rng, 2), opt)
        for name, p in m.params.items():
            assert p.grad is not None, f"dead branch: {name}"
            assert np.all(np.isfinite(p.grad)), f"non-finite grad: {name}"

    @pytest.mark.parametrize("circular", [False, True])
    def test_conv_layer_key_value_projections_get_gradients(self, vocab, circular):
        att = AttentionConfig(heads=4, token_kernel=3, head_kernel=3, circular=circular,
                              conv_layers=(0,))
        m = Summarizer(tiny_cfg(attention=att, copy=True), vocab, seed=2)
        src = np.array([vocab.cls_id, 7, 9, 11, 8, 7])
        tgt = np.array([vocab.bos_id, 9, 11, vocab.eos_id])
        names = ("wk", "wv", "bk", "bv")
        check_grads(
            lambda: m.sequence_loss(src, tgt, training=False)[0],
            {n: m.params[f"enc.0.att.{n}"] for n in names},
        )

    def test_copy_task_loss_drops_below_20_percent(self, vocab, rng):
        att = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=(0,))
        cfg = tiny_cfg(
            d_model=32, ff_size=64, enc_layers=2, dec_layers=2, attention=att,
            copy=True, dropout=0.0, label_smoothing=0.0,
        )
        m = Summarizer(cfg, vocab, seed=0)
        opt = OptimizerState(d_model=32, warmup=200)
        pairs = _copy_batch(vocab, rng, 50)
        first = None
        for step in range(200):
            idx = m.rng.integers(0, len(pairs), size=8)
            loss, _ = m.train_step([pairs[i] for i in idx], opt)
            if first is None:
                first = loss
        assert loss < 0.2 * first


class TestParameterArena:
    """Parameters, gradients and Adam moments live in flat buffers that
    survive from step to step."""

    def test_data_and_grads_view_the_arena_and_are_reused(self, vocab, rng):
        conv = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=(0,))
        m = Summarizer(tiny_cfg(copy=True, attention=conv), vocab, seed=1)
        opt = OptimizerState(d_model=8, warmup=10)
        m.train_step(_copy_batch(vocab, rng, 3), opt)
        grads = {}
        for name, p in m.params.items():
            assert np.shares_memory(p.data, m.params.theta), name
            assert p.grad is not None and np.shares_memory(p.grad, m.params.grad), name
            grads[name] = p.grad
        assert opt.m.shape == opt.v.shape == m.params.theta.shape  # one flat buffer each
        assert not np.shares_memory(opt.m, opt.v)
        # The next backward writes into the same views.
        zero_grads(m.params)
        src, lengths, tgt = m.pad_batch(_copy_batch(vocab, rng, 3))
        ad.backward(m.sequence_loss(src, tgt, True, lengths)[0])
        for name, p in m.params.items():
            assert p.grad is grads[name], name

    def test_rebound_parameter_fails_the_next_step(self, vocab, rng):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=1)
        opt = OptimizerState(d_model=8, warmup=10)
        m.params["gen.b"].data = np.zeros_like(m.params["gen.b"].data)
        with pytest.raises(ContractError, match="'gen.b'"):
            m.train_step(_copy_batch(vocab, rng, 2), opt)
        assert opt.step == 0

    def test_a_model_that_only_decodes_holds_no_gradient_buffer(self, vocab):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=1)
        beam_search(m, np.array([vocab.cls_id, 7, 9, 11]), DecodingConfig(2, 1, 4))
        assert m.params.grad is None

    def test_building_holds_one_drawn_parameter_beside_theta(self):
        # Each initial value is drawn straight into its view of theta; drawing
        # them all first and packing them after would hold the model twice.
        big = Vocab(list(RESERVED) + [f"w{i}" for i in range(500)])
        cfg = tiny_cfg(d_model=64, ff_size=128, enc_layers=2, dec_layers=2, copy=True,
                       attention=AttentionConfig(heads=4, conv_layers=(0,)))
        Summarizer(cfg, big, seed=1)  # first-use allocations (numpy's generators) go here
        tracemalloc.start()
        try:
            m = Summarizer(cfg, big, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(p.data.nbytes for p in m.params.values())
        assert peak <= m.params.theta.nbytes + largest + (256 << 10)

    def test_values_set_in_place_train(self, vocab, rng):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=1)
        opt = OptimizerState(d_model=8, warmup=10)
        m.params["gen.b"].data[...] = 0.5
        m.train_step(_copy_batch(vocab, rng, 2), opt)
        b = m.params["gen.b"].data
        assert np.shares_memory(b, m.params.theta) and not np.all(b == 0.5)


# --- checkpointing -----------------------------------------------------------


class TestCheckpoint:
    def _run_config(self, tmp_path):
        return RunConfig(
            d_model=8, enc_layers=1, dec_layers=1, ff_size=16, heads=2,
            token_kernel=3, head_kernel=1, conv_layers=(), dropout=0.0,
            label_smoothing=0.0, copy=True, warmup=10,
            checkpoint_dir=str(tmp_path),
        )

    def test_roundtrip_is_bit_exact(self, vocab, rng, tmp_path):
        cfg = self._run_config(tmp_path)
        model, opt = build_model(cfg, vocab)
        model.train_step(_copy_batch(vocab, rng, 2), opt)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, opt, cfg)
        restored, opt2 = restore_model(load_checkpoint(path))
        assert set(restored.params) == set(model.params)
        for k in model.params:
            assert np.array_equal(restored.params[k].data, model.params[k].data), k
        assert np.array_equal(opt2.m, opt.m) and np.array_equal(opt2.v, opt.v)
        assert opt2.step == opt.step
        assert restored.rng.bit_generator.state == model.rng.bit_generator.state

    def test_crash_while_saving_leaves_the_previous_file_intact(
        self, vocab, rng, tmp_path, monkeypatch
    ):
        from convsum import checkpoint

        cfg = self._run_config(tmp_path)
        model, opt = build_model(cfg, vocab)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, opt, cfg)
        before = (tmp_path / "ck.npz").read_bytes()

        real_savez = np.savez

        def crash_partway(f, **arrays):
            f.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        model.train_step(_copy_batch(vocab, rng, 2), opt)
        monkeypatch.setattr(checkpoint.np, "savez", crash_partway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, opt, cfg)
        monkeypatch.setattr(checkpoint.np, "savez", real_savez)

        assert (tmp_path / "ck.npz").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]
        assert load_checkpoint(path).opt_step == 0

    def test_mismatched_config_refused(self, vocab, rng, tmp_path):
        cfg = self._run_config(tmp_path)
        model, opt = build_model(cfg, vocab)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, opt, cfg)
        ckpt = load_checkpoint(path)
        from convsum.config import check_arch_compatible

        other = self._run_config(tmp_path)
        other.d_model = 16
        with pytest.raises(ConfigError, match="d_model"):
            check_arch_compatible(ckpt.run_config, other)

    def _trained_checkpoint(self, vocab, rng, tmp_path):
        cfg = self._run_config(tmp_path)
        model, opt = build_model(cfg, vocab)
        model.train_step(_copy_batch(vocab, rng, 2), opt)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, opt, cfg)
        return model, opt, load_checkpoint(path)

    def test_restore_copies_into_the_arena(self, vocab, rng, tmp_path):
        model, opt, ckpt = self._trained_checkpoint(vocab, rng, tmp_path)
        restored, opt2 = restore_model(ckpt)
        for name, p in restored.params.items():
            assert np.shares_memory(p.data, restored.params.theta), name
        for name in model.params:
            assert not np.shares_memory(opt2.m, ckpt.m[name]), name
            assert np.array_equal(restored.params.view(opt2.m, name), ckpt.m[name]), name
            assert np.array_equal(restored.params.view(opt2.v, name), ckpt.v[name]), name
        batch = _copy_batch(vocab, rng, 2)
        model.train_step(batch, opt)
        restored.train_step(batch, opt2)
        assert np.array_equal(restored.params.theta, model.params.theta)
        assert np.array_equal(opt2.m, opt.m) and np.array_equal(opt2.v, opt.v)

    def test_step_zero_checkpoint_without_moments_trains_like_a_fresh_model(
        self, vocab, rng, tmp_path
    ):
        cfg = self._run_config(tmp_path)
        model, opt = build_model(cfg, vocab)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, opt, cfg)
        ckpt = load_checkpoint(path)
        assert ckpt.opt_step == 0 and ckpt.m == {} and ckpt.v == {}
        restored, opt2 = restore_model(ckpt)
        assert opt2.step == 0 and not opt2.m.any() and not opt2.v.any()
        batch = _copy_batch(vocab, rng, 2)
        for _ in range(2):
            assert model.train_step(batch, opt) == restored.train_step(batch, opt2)
        assert restored.params.theta.tobytes() == model.params.theta.tobytes()
        assert (opt2.m.tobytes(), opt2.v.tobytes()) == (opt.m.tobytes(), opt.v.tobytes())

    @pytest.mark.parametrize("corrupt, match", [
        (lambda c: c.m.update(nope=np.zeros(3)) or c.v.update(nope=np.zeros(3)), "'nope'"),
        (lambda c: c.m.update({"gen.b": np.zeros(5)}), "'gen.b'"),
        (lambda c: c.v.update({"gen.w": np.zeros((2, 2))}), "'gen.w'"),
        (lambda c: c.v.pop("gen.b"), "'gen.b'"),
        (lambda c: [h.pop(k) for h in (c.m, c.v) for k in list(h)[1:]],
         "'enc.0.att.wq' has shape None"),
        (lambda c: (c.m.clear(), c.v.clear()), "'src_embed' has shape None"),
        (lambda c: c.params.update({"gen.b": np.zeros(5)}), "parameter 'gen.b'"),
    ], ids=["unknown-name", "m-shape", "v-shape", "m-without-v", "some-parameters",
            "none-after-a-step", "parameter-shape"])
    def test_restore_rejects_moments_that_match_no_parameter(
        self, vocab, rng, tmp_path, corrupt, match
    ):
        _, _, ckpt = self._trained_checkpoint(vocab, rng, tmp_path)
        corrupt(ckpt)
        with pytest.raises(ConfigError, match=match):
            restore_model(ckpt)


# --- incremental decoding ------------------------------------------------------


def _decode_cases(vocab):
    conv = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=(0,))
    prov = StubProvider(len(vocab), width=8, max_window=16, seed=4)
    from convsum.windowing import WindowingConfig

    yield Summarizer(tiny_cfg(copy=True), vocab, seed=2)
    yield Summarizer(tiny_cfg(copy=False), vocab, seed=3)
    yield Summarizer(tiny_cfg(copy=True, enc_layers=2, dec_layers=3, attention=conv), vocab, seed=4)
    yield Summarizer(tiny_cfg(integration="stacking", decoder_conditioned=True, copy=True),
                     vocab, provider=prov, windowing=WindowingConfig(16, 8), seed=5)


def _assert_matches_full_prefix(m, memory, src, prefixes, probs, attn):
    for row, prefix in enumerate(prefixes):
        want_p, want_a = m.decode_step(memory, src, prefix)
        np.testing.assert_allclose(probs[row], want_p, rtol=1e-10, atol=0)
        np.testing.assert_allclose(attn[row], want_a, rtol=1e-10, atol=0)


class TestIncrementalDecode:
    def test_step_matches_decode_step_on_random_prefixes(self, vocab, rng):
        for m in _decode_cases(vocab):
            src = np.concatenate([[vocab.cls_id], rng.integers(6, len(vocab), size=5)])
            memory = m.encode(src)
            B, T = 3, 6
            tokens = rng.integers(6, len(vocab), size=(B, T))
            tokens[:, 0] = vocab.bos_id
            state = m.start_decode(memory, src)
            state.reorder([0] * B)
            for t in range(T):
                probs, attn = state.step(tokens[:, t])
                assert probs.shape == (B, len(vocab)) and attn.shape == (B, src.size)
                _assert_matches_full_prefix(m, memory, src, tokens[:, : t + 1], probs, attn)

    def test_reorder_follows_swapped_parents(self, vocab):
        m = Summarizer(tiny_cfg(copy=True, dec_layers=2), vocab, seed=8)
        src = np.array([vocab.cls_id, 6, 7, 8])
        memory = m.encode(src)
        bos = vocab.bos_id
        state = m.start_decode(memory, src)
        state.step([bos])
        state.reorder([0, 0])
        state.step([9, 10])
        state.reorder([1, 0, 1])  # swap the parents and duplicate one
        probs, attn = state.step([11, 12, 13])
        prefixes = [[bos, 10, 11], [bos, 9, 12], [bos, 10, 13]]
        _assert_matches_full_prefix(m, memory, src, prefixes, probs, attn)

    def test_records_no_tape(self, vocab):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=2)
        src = np.array([vocab.cls_id, 6, 7])
        state = m.start_decode(m.encode(src), src)
        state.step([vocab.bos_id])
        k, v = state.cross_kv[0]
        assert k._parents == () and k._backward is None and not k.requires_grad

    def test_contract_violations(self, vocab):
        m = Summarizer(tiny_cfg(copy=True), vocab, seed=2)
        src = np.array([vocab.cls_id, 6, 7])
        memory = m.encode(src)
        with pytest.raises(ContractError):
            m.start_decode(memory, src[:2])
        with pytest.raises(ContractError, match="BOS"):
            m.start_decode(memory, src).step([9])
        state = m.start_decode(memory, src)
        state.step([vocab.bos_id])
        with pytest.raises(ContractError, match="rows"):
            state.step([9, 10])
        for rows in ([1], [-1], []):
            with pytest.raises(ContractError, match="reorder"):
                state.reorder(rows)

    def test_train_step_after_decoding_matches_fresh_run(self, vocab, rng):
        batch = _copy_batch(vocab, rng, 3)

        def grads(decode_first: bool):
            m = Summarizer(tiny_cfg(copy=True, dropout=0.1), vocab, seed=4)
            if decode_first:
                beam_search(m, batch[0][0], DecodingConfig(2, 1, 4))
            m.train_step(batch, OptimizerState(d_model=8, warmup=10))
            return {k: p.grad for k, p in m.params.items()}

        fresh, after = grads(False), grads(True)
        for k in fresh:
            assert np.array_equal(fresh[k], after[k]), k


class TestOpCounts:
    """Pins of the tape size: fewer, fatter ops are the decode and train cost
    at desk scale, so a change that adds ops shows here."""

    @staticmethod
    def _tape_nodes(model, batch):
        """(tape nodes, loss) of one training forward pass over the batch."""
        src, lengths, tgt = model.pad_batch(batch)
        loss, _ = model.sequence_loss(src, tgt, True, lengths)
        seen, todo, nodes = set(), [loss], 0
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes += node._backward is not None
                todo.extend(p for p in node._parents if p.requires_grad)
        return nodes, loss.item()

    def test_tape_nodes_of_a_gate_batch(self):
        nodes, _ = self._tape_nodes(*gate_model())
        assert nodes == 51  # 67 with a 17-op copy head, 71 with a three-op embedding too,
        # 79 with a three-op feed-forward too, 99 with add and dropout ops beside
        # each layer norm as well

    @pytest.mark.parametrize("overrides,nodes,loss", [
        ({"integration": "stacking"}, 51, 4.419217669825497),
        # the conv branch is encoder layer 0 whatever conv_layers says
        ({"integration": "concatenation", "conv_layers": ()}, 54, 4.1981040276337405),
    ])
    def test_tape_nodes_of_a_conditioned_gate_batch(self, overrides, nodes, loss):
        got_nodes, got_loss = self._tape_nodes(*gate_model(provider="stub", **overrides))
        assert got_nodes == nodes
        assert got_loss == pytest.approx(loss, rel=1e-9)

    def test_ops_per_decoder_step(self, monkeypatch):
        from convsum import attention

        model, batch = gate_model()
        src = batch[0][0]
        state = model.start_decode(model.encode(src), src)
        state.step([model.vocab.bos_id] * 4)
        ops = []
        result = ad._result
        for module in (ad, attention):  # attention imports _result by name
            monkeypatch.setattr(module, "_result",
                                lambda d, p, b, op: (ops.append(op), result(d, p, b, op))[1])
        state.step(batch[0][1][1:5])
        assert len(ops) == 27  # 43 with a 17-op copy head, 45 with a three-op embedding
        # too, 49 with a three-op feed-forward too, 55 with an add op beside each layer
        # norm as well

    def test_finite_checks_per_decoder_step(self, monkeypatch):
        # One check per output (probabilities, attention, the two layers' new
        # key and value rows), not one per op.
        model, batch = gate_model()
        src = batch[0][0]
        state = model.start_decode(model.encode(src), src)
        state.step([model.vocab.bos_id] * 4)
        checks = []
        finite = ad._finite
        monkeypatch.setattr(ad, "_finite", lambda arr: (checks.append(arr.shape), finite(arr))[1])
        state.step(batch[0][1][1:5])
        assert len(checks) <= 6


class TestParameterLayout:
    """Parameter names, order and initial values per integration mode: the
    layout a checkpoint is read against, and the draws training starts from."""

    @pytest.mark.parametrize("overrides,names,theta", [
        ({}, "3f5849a9cee41bb4", "00ade80199c2264b"),
        ({"integration": "stacking", "provider": "stub"}, "7132044ea358d3ad", "621ba332ffab7cfa"),
        ({"integration": "concatenation", "provider": "stub"},
         "2b14e28fed57fb59", "69ba7d2fb8a279ff"),
        ({"decoder_conditioned": True, "provider": "stub"}, "8a631325d8dcb4b1", "7f2ef176ea5aaade"),
    ])
    def test_names_and_theta_are_pinned(self, overrides, names, theta):
        model, _ = gate_model(**overrides)
        assert hashlib.sha256(",".join(model.params).encode()).hexdigest()[:16] == names
        assert hashlib.sha256(model.params.theta.tobytes()).hexdigest()[:16] == theta


class TestDeferredChecks:
    """Train and beam steps check their outputs once; a non-finite output
    replays the step with per-op checks, so the error still names the op."""

    def _trained(self):
        model, batch = gate_model()
        opt = OptimizerState(d_model=64, warmup=10)
        model.train_step(batch, opt)  # so the moments are not zero
        return model, batch, opt

    def test_forward_nan_in_train_step_names_op_and_changes_nothing(self):
        model, batch, opt = self._trained()
        model.params["dec.1.ff.w2"].data[3, 5] = np.nan
        before = (opt.step, model.params.theta.tobytes(),
                  opt.m.tobytes(), opt.v.tobytes())
        with pytest.raises(NonFiniteError, match="'feed_forward'"):
            model.train_step(batch, opt)
        after = (opt.step, model.params.theta.tobytes(),
                 opt.m.tobytes(), opt.v.tobytes())
        assert after == before
        # the generator is where the per-op policy leaves it: one forward
        # pass's dropout draws up to the failing op
        ref, _, _ = self._trained()
        ref.params["dec.1.ff.w2"].data[3, 5] = np.nan
        src, lengths, tgt = ref.pad_batch(batch)
        with pytest.raises(NonFiniteError, match="'feed_forward'"):
            ref.sequence_loss(src, tgt, True, lengths)
        assert model.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_backward_only_nan_in_train_step_names_backward_op(self, monkeypatch):
        model, batch, opt = self._trained()
        theta = model.params.theta.tobytes()

        feed_forward = ad.feed_forward

        def ff_nan_grad(x, w1, b1, w2, b2):
            with ad.no_grad():
                data = feed_forward(x, w1, b1, w2, b2).data

            def bwd(out):  # a NaN into x; the weights get zero, as Adam wants a gradient
                ad._acc(x, np.full(x.shape, np.nan), "ff_nan_grad")
                for w in (w1, b1, w2, b2):
                    ad._acc(w, np.zeros(w.shape), "ff_nan_grad")
            return ad._result(data, (x, w1, b1, w2, b2), bwd, "ff_nan_grad")

        monkeypatch.setattr(ad, "feed_forward", ff_nan_grad)
        with pytest.raises(NonFiniteError, match="backward of 'ff_nan_grad'"):
            model.train_step(batch, opt)
        assert model.params.theta.tobytes() == theta and opt.step == 1

    def test_contract_error_in_train_step_runs_the_step_once(self, monkeypatch):
        model, batch, opt = self._trained()
        model.params["gen.b"].data = model.params["gen.b"].data.copy()  # off the arena
        runs, loss = [], model.sequence_loss
        monkeypatch.setattr(model, "sequence_loss", lambda *a: (runs.append(1), loss(*a))[1])
        with pytest.raises(ContractError, match="gen.b"):
            model.train_step(batch, opt)
        assert runs == [1]

    def test_one_gradient_pass_per_train_step(self, monkeypatch):
        # Adam's pre-pass is the step's only gradient check: the backward
        # checks nothing, only the loss is checked, and Adam runs once
        from convsum import model as model_mod

        model, batch = gate_model()
        checked, steps = [], []
        check, adam = ad._check_finite, model_mod.adam_noam_step
        monkeypatch.setattr(ad, "_check_finite",
                            lambda op, arr: (checked.append(op), check(op, arr))[1])
        monkeypatch.setattr(model_mod, "adam_noam_step",
                            lambda *args: (steps.append(1), adam(*args))[1])
        model.train_step(batch, OptimizerState(d_model=64, warmup=10))
        assert checked == ["sequence_loss"] and steps == [1]

    def test_inf_in_output_bias_fails_beam_search_naming_op(self):
        model, batch = gate_model()
        model.params["gen.b"].data[7] = np.inf
        with pytest.raises(NonFiniteError, match="'copy_head'"):
            beam_search(model, batch[0][0], DecodingConfig(4, 5, 5))

    def test_failed_decoder_step_leaves_state_unchanged(self):
        model, batch = gate_model()
        src, tokens = batch[0][0], batch[0][1]
        memory = model.encode(src)
        state, ref = model.start_decode(memory, src), model.start_decode(memory, src)
        for s in (state, ref):
            s.step([model.vocab.bos_id] * 4)
            s.step(tokens[1:5])
        cache = list(state.cache)
        snapshot = [a.tobytes() for kv in cache for a in kv]
        w2 = model.params["dec.1.ff.w2"].data
        good = w2[0, 0]
        w2[0, 0] = np.nan  # layer 0's keys/values are already computed when layer 1 fails
        with pytest.raises(NonFiniteError, match="'feed_forward'"):
            state.step(tokens[2:6])
        assert (state.cache[0][0].shape[1], state.rows) == (2, 4)
        assert len(state.cache) == len(cache)
        assert all(a is b for a, b in zip(state.cache, cache))
        assert [a.tobytes() for kv in state.cache for a in kv] == snapshot
        w2[0, 0] = good
        got, want = state.step(tokens[2:6]), ref.step(tokens[2:6])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_refused_decoder_step_runs_no_op_and_no_replay(self, monkeypatch):
        # A first step without BOS (or with no row) and a row-count mismatch
        # are refused before the deferred step: no op runs, so there is
        # nothing to replay.
        from convsum import attention

        model, batch = gate_model()
        src, bos = batch[0][0], model.vocab.bos_id
        memory = model.encode(src)
        fresh, fed = model.start_decode(memory, src), model.start_decode(memory, src)
        fed.step([bos] * 4)
        cache = fed.cache
        ops, steps = [], []
        result, checked = ad._result, ad.checked_step
        for module in (ad, attention):  # attention imports _result by name
            monkeypatch.setattr(module, "_result",
                                lambda d, p, b, op: (ops.append(op), result(d, p, b, op))[1])
        monkeypatch.setattr(ad, "checked_step",
                            lambda *a, **k: (steps.append(1), checked(*a, **k))[1])
        for tokens in ([bos, 9, bos, bos], []):
            with pytest.raises(ContractError, match="BOS"):
                fresh.step(tokens)
        with pytest.raises(ContractError, match="rows"):
            fed.step(batch[0][1][1:4])
        assert ops == [] and steps == []
        assert fresh.cache is None and fed.cache is cache and fed.rows == 4
