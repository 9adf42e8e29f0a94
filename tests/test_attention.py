import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import attention_params, closure_arrays, head_union_indices
from convsum import attention
from convsum import autodiff as ad
from convsum.attention import (
    AttentionConfig,
    _attention,
    _band_attention,
    _band_tables,
    _heads,
    _key_bias,
    _merged,
    _unwindow,
    _window,
    conv_multi_head_attention,
    multi_head_attention,
)
from convsum.autodiff import _softmax_fwd
from convsum.errors import ContractError
from convsum.model import ModelConfig, Summarizer
from convsum.tokenizer import RESERVED, Vocab

from test_ops import OPS, S, _bias, _leaves, _proj, composed_attention, naive_band_attention


def naive_conv_attention(x, p, cfg):
    """The layer in numpy: projections around the slot-by-slot banded oracle."""
    q, k, v = (ad.constant(x @ p["w" + n] + p["b" + n]) for n in "qkv")
    return naive_band_attention(q, k, v, cfg)[0] @ p["wo"] + p["bo"]


def _np_params(p):
    return {k: t.data for k, t in p.items()}


class TestHeadUnion:
    def test_circular_wraps(self):
        assert head_union_indices(0, 4, 3, circular=True) == [3, 0, 1]

    def test_standard_clips(self):
        assert head_union_indices(0, 4, 3, circular=False) == [0, 1]
        assert head_union_indices(3, 4, 3, circular=False) == [2, 3]

    def test_kernel_one_is_self(self):
        for circular in (False, True):
            assert head_union_indices(2, 4, 1, circular) == [2]

    def test_circular_too_wide_rejected(self):
        with pytest.raises(ContractError):
            head_union_indices(0, 4, 5, circular=True)

    def test_circular_unions_are_rotations(self):
        for H in range(1, 9):
            for k in range(1, min(H, 7) + 1, 2):
                base = head_union_indices(0, H, k, circular=True)
                for h in range(H):
                    got = head_union_indices(h, H, k, circular=True)
                    assert got == [(b + h) % H for b in base]
                    assert len(got) == k and len(set(got)) == k

    def test_standard_union_size_formula(self):
        for H in range(1, 9):
            for k in range(1, 8, 2):
                half = (k - 1) // 2
                for h in range(H):
                    got = head_union_indices(h, H, k, circular=False)
                    expected = k - max(0, half - h) - max(0, h + half - (H - 1))
                    assert len(got) == expected


class TestConvAttention:
    def test_reduction_to_vanilla_is_bitwise(self, rng):
        for _ in range(20):
            L = int(rng.integers(1, 9))
            H = int(rng.choice([1, 2, 4]))
            d = H * int(rng.integers(1, 4)) * 2
            x = ad.constant(rng.normal(size=(L, d)))
            p = attention_params(rng, d)
            k_tok = 2 * L - 1 if (2 * L - 1) % 2 == 1 else 2 * L + 1
            cfg = AttentionConfig(heads=H, token_kernel=k_tok, head_kernel=1, conv_layers=())
            conv, _ = conv_multi_head_attention(x, p, cfg)
            van, _ = multi_head_attention(x, x, p, H)
            assert np.array_equal(conv.data, van.data)

    def test_single_position(self, rng):
        d = 8
        x = ad.constant(rng.normal(size=(1, d)))
        p = attention_params(rng, d)
        cfg = AttentionConfig(heads=2, token_kernel=3, head_kernel=1, conv_layers=())
        out, w = conv_multi_head_attention(x, p, cfg)
        assert np.allclose(w.data.sum(-1), 1.0)
        v = x.data @ p["wv"].data + p["bv"].data
        assert np.allclose(out.data, v @ p["wo"].data + p["bo"].data)

    def test_weights_are_distributions_over_window(self, rng):
        # compact layout (H, L, k_head*w): slot u*w + o of row i is key i + o - half
        # in union head h + u - 1; rows sum to 1 and nothing falls outside the
        # token window or the clipped head union
        H, L, d = 4, 6, 8
        x = ad.constant(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        cfg = AttentionConfig(heads=H, token_kernel=3, head_kernel=3, circular=False,
                              conv_layers=())
        _, w = conv_multi_head_attention(x, p, cfg)
        assert w.shape == (H, L, 3 * 3)
        assert np.allclose(w.data.sum(-1), 1.0)
        for h in range(H):
            for i in range(L):
                for u, h_off in enumerate((-1, 0, 1)):
                    for o, j_off in enumerate((-1, 0, 1)):
                        j = i + j_off
                        inside = 0 <= h + h_off < H and 0 <= j < L
                        if not inside:
                            assert w.data[h, i, u * 3 + o] == 0.0
                        else:
                            assert w.data[h, i, u * 3 + o] > 0.0

    def test_locality_with_single_head_window(self, rng):
        # perturbing position j must not change output i when |i-j| > (k-1)/2
        H, L, d, k_tok = 2, 7, 8, 3
        p = attention_params(rng, d)
        cfg = AttentionConfig(heads=H, token_kernel=k_tok, head_kernel=1, conv_layers=())
        x = rng.normal(size=(L, d))
        base, _ = conv_multi_head_attention(ad.constant(x), p, cfg)
        j = 6
        x2 = x.copy()
        x2[j] += 1.0
        out2, _ = conv_multi_head_attention(ad.constant(x2), p, cfg)
        half = (k_tok - 1) // 2
        for i in range(L):
            changed = not np.allclose(base.data[i], out2.data[i], atol=1e-14)
            if abs(i - j) > half:
                assert not changed
        assert not np.allclose(base.data[j], out2.data[j])


@st.composite
def _band_cases(draw):
    H = draw(st.integers(1, 4))
    circular = draw(st.booleans())
    k_head = draw(st.sampled_from([k for k in (1, 3, 5) if not circular or k <= H]))
    return dict(
        H=H,
        dk=draw(st.integers(1, 3)),
        L=draw(st.integers(1, 9)),
        k_tok=draw(st.sampled_from([1, 3, 5, 7, 11, 19])),
        k_head=k_head,
        circular=circular,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestBandOp:
    @settings(max_examples=60, deadline=None)
    @given(_band_cases())
    def test_matches_naive_oracle(self, case):
        # includes k_tok > 2L-1 with k_head > 1, which takes the banded path
        rng = np.random.default_rng(case["seed"])
        H, L = case["H"], case["L"]
        d = H * case["dk"]
        x = ad.constant(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        for name in ("bq", "bk", "bv", "bo"):
            p[name].data[:] = rng.normal(size=d)
        cfg = AttentionConfig(heads=H, token_kernel=case["k_tok"], head_kernel=case["k_head"],
                              circular=case["circular"], conv_layers=())
        got, w = conv_multi_head_attention(x, p, cfg)
        want = naive_conv_attention(x.data, _np_params(p), cfg)
        assert np.abs(got.data - want).max() <= 1e-10 * np.abs(want).max()
        if case["k_head"] == 1 and case["k_tok"] >= 2 * L - 1:  # dense multi_head_attention
            assert w.shape == (H, L, L)
        else:
            assert w.shape == (H, L, case["k_head"] * min(case["k_tok"], 2 * L - 1))
            assert not w.data.flags.writeable
        assert np.allclose(w.data.sum(-1), 1.0)


class TestFusedAttentionOp:
    """The attention layer against the composed ops its fused op replaces
    (tests/test_ops.py holds the op itself to them)."""

    def test_multi_head_attention_forward_is_bitwise_the_composed_layer(self, rng):
        x = ad.constant(rng.normal(size=(2, 5, 8)))
        p = attention_params(rng, 8)
        mask = np.tril(np.ones((5, 5), dtype=bool))
        got, w = multi_head_attention(x, x, p, 4, mask)

        def lin(t, name):
            return ad.add(ad.matmul(t, p["w" + name]), p["b" + name])

        ctx, want_w = composed_attention(lin(x, "q"), lin(x, "k"), lin(x, "v"), 4, mask)
        assert np.array_equal(got.data, lin(ctx, "o").data)
        assert np.array_equal(w.data, want_w.data)
        assert w.shape == (2, 4, 5, 5) and not w.requires_grad


# --- the ops as they stood when they saved what backward now recomputes -------


def _old_softmax_bwd(w, g):
    return w * (g - (g * w).sum(axis=-1, keepdims=True))


def saving_attention(q, k, v, heads, bias=None):
    """The fused attention op when it saved its weights for backward: the
    oracle of the op that recomputes them."""
    qh, kh, vh = (_heads(t.data, heads) for t in (q, k, v))
    c = qh.shape[-1] ** -0.5
    s = np.matmul(qh, kh.swapaxes(-1, -2))
    s *= c
    weights = _softmax_fwd(s, bias)
    weights.flags.writeable = False
    data = _merged(np.matmul(weights, vh))

    def bwd(out):
        gh = _heads(out.grad, heads)
        gs = _old_softmax_bwd(weights, np.matmul(gh, vh.swapaxes(-1, -2)))
        gs *= c
        if q.requires_grad:
            ad._acc(q, _merged(ad._unbroadcast(np.matmul(gs, kh), qh.shape)), "attention")
        if k.requires_grad:
            gk = np.matmul(gs.swapaxes(-1, -2), qh)
            ad._acc(k, _merged(ad._unbroadcast(gk, kh.shape)), "attention")
        if v.requires_grad:
            gv = np.matmul(weights.swapaxes(-1, -2), gh)
            ad._acc(v, _merged(ad._unbroadcast(gv, vh.shape)), "attention")

    return ad._result(data, (q, k, v), bwd, "attention"), weights


def saving_band_attention(q, k, v, cfg, key_mask=None):
    """The banded op when it saved its union windows for backward: the oracle
    of the op that gathers them again."""
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

    def union_windows(t):
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
        gw = np.matmul(g4[:, :, :, None, None, :], vw).reshape(B, L, H, kk * w)
        gs = _old_softmax_bwd(weights, gw)
        gs *= c
        gs = gs.reshape(B, L, H, kk, w)
        if q.requires_grad:
            ad._acc(q, np.matmul(kw, gs[..., None]).sum(axis=3).reshape(q.shape),
                    "band_attention")
        if k.requires_grad:
            ad._acc(k, _unwindow(gs, q4, scatter, half).reshape(k.shape), "band_attention")
        if v.requires_grad:
            ad._acc(v, _unwindow(w6[..., 0], g4, scatter, half).reshape(v.shape),
                    "band_attention")

    return ad._result(data, (q, k, v), bwd, "band_attention"), weights


_BAND_CFGS = [AttentionConfig(heads=3, token_kernel=5, head_kernel=3, conv_layers=()),
              AttentionConfig(heads=3, token_kernel=7, head_kernel=3, circular=True,
                              conv_layers=())]


_ATTENTION = next(e for e in OPS if e.name == "attention")


class TestRecomputingBackward:
    """The attention ops keep for backward only what is O(L) per head: values
    and every gradient are bitwise those of the ops that saved more."""

    @staticmethod
    def _run(op, sample, **kw):
        """Output, weights and input gradients of a fixed projection of the output."""
        leaves = _leaves(sample)
        out, weights = op(*leaves, **{**sample.kw, **kw})
        ad.backward(ad.tensor_sum(ad.mul(out, ad.constant(_proj(out.shape)))))
        return [out.data, weights, *(t.grad for t in leaves)]

    @pytest.mark.parametrize("sample", _ATTENTION.samples,
                             ids=[f"attention-{i}" for i in range(len(_ATTENTION.samples))])
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_attention_is_bitwise_the_saving_op(self, sample, heads):
        def saving(q, k, v, heads, mask=None):
            return saving_attention(q, k, v, heads, _bias(mask))

        for name, g, w in zip(["out", "weights", "q", "k", "v"],
                              self._run(_ATTENTION.op, sample, heads=heads),
                              self._run(saving, sample, heads=heads)):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("cfg", _BAND_CFGS, ids=["clipped", "circular"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_band_op_is_bitwise_the_saving_op(self, rng, cfg, masked):
        sample = S(*(rng.normal(size=(2, 9, 12)) for _ in range(3)), cfg=cfg,
                   key_mask=np.arange(9) < np.array([[9], [6]]) if masked else None)
        for name, g, w in zip(["out", "weights", "q", "k", "v"],
                              self._run(_band_attention, sample),
                              self._run(saving_band_attention, sample)):
            assert np.array_equal(g, w), name

    def test_attention_backward_keeps_no_weights(self, rng):
        q, k, v = (ad.parameter(rng.normal(size=(2, 5, 8))) for _ in range(3))
        out, weights = _attention(q, k, v, 4, _bias(np.tril(np.ones((5, 5), dtype=bool))))
        assert weights.shape == (2, 4, 5, 5)
        assert all(a.shape[-3:] != (4, 5, 5) for a in closure_arrays(out._backward))

    def test_band_backward_keeps_no_union_windows(self, rng):
        q, k, v = (ad.parameter(rng.normal(size=(2, 9, 12))) for _ in range(3))
        out, _ = _band_attention(q, k, v, _BAND_CFGS[0])
        # the union windows: (B, L + w - 1, H, k_head, dk) arrays and their views
        # (B, L, H, k_head, dk, w)
        windows = {(2, 13, 3, 3, 4), (2, 9, 3, 3, 4, 5)}
        assert not [a.shape for a in closure_arrays(out._backward) if a.shape in windows]


class TestForwardMemory:
    """What a padded training forward leaves for its backward."""

    L, H = 256, 4

    def _model(self):
        vocab = Vocab(list(RESERVED) + [f"w{i}" for i in range(40)])
        cfg = ModelConfig(d_model=32, enc_layers=2, dec_layers=1, ff_size=64, dropout=0.1,
                          attention=AttentionConfig(heads=self.H, token_kernel=5, head_kernel=3,
                                                    conv_layers=(0,)))
        model = Summarizer(cfg, vocab, seed=3)
        ids = np.random.default_rng(4).integers(len(RESERVED), len(vocab), size=(2, self.L))
        tgt = np.full((2, 6), vocab.pad_id)
        tgt[:, 0], tgt[:, 1:5], tgt[:, 5] = vocab.bos_id, ids[:, :4], vocab.eos_id
        batch = [(ids[0], tgt[0]), (ids[1, :200], tgt[1])]  # the second source is padded
        return model, model.pad_batch(batch)

    @staticmethod
    def _live_after_forward(model, src, lengths, tgt):
        """(loss, bytes the forward leaves live), from one dropout state."""
        model.rng = np.random.default_rng(9)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            loss, _ = model.sequence_loss(src, tgt, True, lengths)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return loss, live - base

    def test_no_weights_or_windows_outlive_the_forward(self, monkeypatch):
        model, (src, lengths, tgt) = self._model()
        B, L, H = 2, self.L, self.H
        self._live_after_forward(model, src, lengths, tgt)  # caches and first-use allocations
        loss, live = self._live_after_forward(model, src, lengths, tgt)

        seen, todo, held = set(), [loss], []
        while todo:
            node = todo.pop()
            if id(node) not in seen and node._backward is not None:
                seen.add(id(node))
                held += [node.data, *closure_arrays(node._backward)]
                todo.extend(node._parents)
        windows = (B, L + 4, H, 3, 32 // H)  # token window 5, head kernel 3
        assert not [a.shape for a in held if a.shape[-3:] == (H, L, L) or a.shape == windows]

        monkeypatch.setattr(attention, "_attention", saving_attention)
        monkeypatch.setattr(attention, "_band_attention", saving_band_attention)
        want, saving_live = self._live_after_forward(model, src, lengths, tgt)
        assert loss.item() == want.item()
        weights = B * H * L * L * 8  # the plain encoder layer's
        union = 2 * math.prod(windows) * 8  # the conv layer's keys and values
        assert saving_live - live >= weights + union
