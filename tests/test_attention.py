import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import check_grads, closure_arrays
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
    attention_params,
    conv_multi_head_attention,
    head_union_indices,
    multi_head_attention,
    token_window_mask,
)
from convsum.autodiff import _softmax_fwd
from convsum.errors import ContractError
from convsum.model import ModelConfig, Summarizer
from convsum.tokenizer import RESERVED, Vocab


def naive_conv_attention(x, p, cfg):
    """Independent position-by-position gather/softmax reference (pure numpy)."""
    L, d = x.shape
    H = cfg.heads
    dk = d // H
    q = x @ p["wq"] + p["bq"]
    k = x @ p["wk"] + p["bk"]
    v = x @ p["wv"] + p["bv"]
    half_tok = (cfg.token_kernel - 1) // 2
    half_head = (cfg.head_kernel - 1) // 2
    heads_out = np.zeros((L, d))
    for h in range(H):
        union = []
        for off in range(-half_head, half_head + 1):
            hp = (h + off) % H if cfg.circular else h + off
            if 0 <= hp < H:
                union.append(hp)
        for i in range(L):
            gathered = [
                (hp, j)
                for hp in union
                for j in range(L)
                if abs(i - j) <= half_tok
            ]
            qi = q[i, h * dk:(h + 1) * dk]
            scores = np.array(
                [qi @ k[j, hp * dk:(hp + 1) * dk] / math.sqrt(dk) for hp, j in gathered]
            )
            w = np.exp(scores - scores.max())
            w /= w.sum()
            out = np.zeros(dk)
            for wm, (hp, j) in zip(w, gathered):
                out += wm * v[j, hp * dk:(hp + 1) * dk]
            heads_out[i, h * dk:(h + 1) * dk] = out
    return heads_out @ p["wo"] + p["bo"]


def _np_params(p):
    return {k: t.data for k, t in p.items()}


class TestTokenWindowMask:
    def test_definition_small(self):
        m = token_window_mask(5, 3)
        assert list(np.flatnonzero(m[2])) == [1, 2, 3]
        assert list(np.flatnonzero(m[0])) == [0, 1]

    def test_wide_kernel_is_all_valid(self):
        L = 4
        assert token_window_mask(L, 2 * L - 1).all()

    def test_kernel_one_is_identity(self):
        assert np.array_equal(token_window_mask(4, 1), np.eye(4, dtype=bool))

    def test_even_kernel_rejected(self):
        with pytest.raises(ContractError):
            token_window_mask(4, 2)


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

    @pytest.mark.parametrize("k_tok", [1, 3, 5])
    @pytest.mark.parametrize("k_head", [1, 3])
    @pytest.mark.parametrize("circular", [False, True])
    def test_matches_naive_oracle(self, rng, k_tok, k_head, circular):
        H, L, d = 4, 6, 8
        x = ad.constant(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        cfg = AttentionConfig(
            heads=H, token_kernel=k_tok, head_kernel=k_head, circular=circular, conv_layers=()
        )
        got, _ = conv_multi_head_attention(x, p, cfg)
        want = naive_conv_attention(x.data, _np_params(p), cfg)
        denom = np.maximum(np.abs(want), 1e-30)
        assert (np.abs(got.data - want) / denom).max() < 1e-10

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
        band = token_window_mask(L, 3)
        for h in range(H):
            for i in range(L):
                for u, h_off in enumerate((-1, 0, 1)):
                    for o, j_off in enumerate((-1, 0, 1)):
                        j = i + j_off
                        inside = 0 <= h + h_off < H and 0 <= j < L and band[i, j]
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

    @pytest.mark.parametrize(
        "H, L, d, k_tok, circular, random_bias",
        [
            (4, 4, 4, 3, False, False),
            (4, 4, 4, 3, True, False),
            # dk = 2: the keys and values of every union head reach the gradient
            (4, 5, 8, 3, False, True),
            (4, 5, 8, 3, True, True),
            # k_tok > 2L-1 with k_head > 1: the banded window is clipped to w = 2L-1
            (3, 3, 6, 9, False, True),
            (3, 3, 6, 9, True, True),
        ],
        ids=["False", "True", "dk2-False", "dk2-True", "wide-False", "wide-True"],
    )
    def test_gradients_2d(self, rng, H, L, d, k_tok, circular, random_bias):
        x = ad.parameter(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        if random_bias:
            for name in ("bq", "bk", "bv"):
                p[name].data[:] = rng.normal(size=d)
        r = ad.constant(rng.normal(size=(L, d)))
        cfg = AttentionConfig(heads=H, token_kernel=k_tok, head_kernel=3, circular=circular,
                              conv_layers=())

        def build():
            out, _ = conv_multi_head_attention(x, p, cfg)
            return ad.tensor_sum(ad.mul(out, r))

        check_grads(build, {"x": x, **{n: p[n] for n in ("wq", "wk", "wv", "wo", "bk", "bv")}})

    def test_vanilla_attention_gradients(self, rng):
        L, d = 3, 4
        x = ad.parameter(rng.normal(size=(L, d)))
        p = attention_params(rng, d)
        r = ad.constant(rng.normal(size=(L, d)))
        mask = np.tril(np.ones((L, L), dtype=bool))

        def build():
            out, _ = multi_head_attention(x, x, p, 2, mask)
            return ad.tensor_sum(ad.mul(out, r))

        check_grads(build, {"x": x, "wk": p["wk"], "wv": p["wv"], "bo": p["bo"]})


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


def _split(x, H):
    """(..., L, d) -> (..., H, L, d/H), composed of tape ops."""
    *lead, L, d = x.shape
    n = len(lead)
    return ad.transpose(ad.reshape(x, (*lead, L, H, d // H)), (*range(n), n + 1, n, n + 2))


def _merge(x):
    """(..., H, L, dk) -> (..., L, H*dk), composed of tape ops."""
    *lead, H, L, dk = x.shape
    n = len(lead)
    return ad.reshape(ad.transpose(x, (*range(n), n + 1, n, n + 2)), (*lead, L, H * dk))


def composed_attention(q, k, v, H, mask=None):
    """The op chain the fused attention op replaces: split heads, scores,
    scale, masked softmax, context, merge heads."""
    qh, kh, vh = _split(q, H), _split(k, H), _split(v, H)
    n = kh.data.ndim
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (*range(n - 2), n - 1, n - 2))),
                      qh.shape[-1] ** -0.5)
    weights = ad.softmax(scores, mask)
    return _merge(ad.matmul(weights, vh)), weights


def fused_attention(q, k, v, H, mask=None):
    return _attention(q, k, v, H, None if mask is None else np.where(mask, 0.0, -np.inf))


def _run(fn, arrays, H, mask):
    """Output, weights and input gradients of a fixed random projection of
    fn's output, on fresh leaves."""
    leaves = [ad.parameter(a.copy()) for a in arrays]
    out, w = fn(*leaves, H, mask)
    r = ad.constant(np.random.default_rng(5).normal(size=out.shape))
    ad.backward(ad.tensor_sum(ad.mul(out, r)))
    return out.data, np.asarray(w.data if isinstance(w, ad.Tensor) else w), [t.grad for t in leaves]


_ATTENTION_CASES = {
    # name: (q shape, k/v shape, mask shape or None, causal)
    "2d_unmasked": ((4, 6), (5, 6), None),
    "batched_causal": ((2, 5, 6), (2, 5, 6), "causal"),
    "batched_key_padding": ((3, 4, 6), (3, 7, 6), "keys"),
    "cross_kv_broadcast_over_rows": ((3, 1, 6), (7, 6), None),
    "cross_kv_broadcast_masked": ((2, 3, 6), (5, 6), "keys"),
}


def _attention_case(rng, name):
    q_shape, kv_shape, kind = _ATTENTION_CASES[name]
    arrays = [rng.normal(size=q_shape), rng.normal(size=kv_shape), rng.normal(size=kv_shape)]
    Lq, Lk = q_shape[-2], kv_shape[-2]
    mask = None
    if kind == "causal":
        mask = np.tril(np.ones((Lq, Lk), dtype=bool))
    elif kind == "keys":
        lead = q_shape[:-2]
        mask = rng.random((*lead, 1, 1, Lk)) > 0.4
        mask[..., 0] = True
    return arrays, mask


class TestFusedAttentionOp:
    """The one-op attention against the composed ops it replaces."""

    @pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
    @pytest.mark.parametrize("H", [1, 2, 3])
    def test_matches_composed_ops(self, rng, case, H):
        arrays, mask = _attention_case(rng, case)
        got, got_w, got_g = _run(fused_attention, arrays, H, mask)
        want, want_w, want_g = _run(composed_attention, arrays, H, mask)
        assert np.array_equal(got, want)
        assert np.array_equal(got_w, want_w)
        assert not got_w.flags.writeable
        for name, g, w in zip("qkv", got_g, want_g):
            assert g.shape == w.shape, name
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name

    @pytest.mark.parametrize("case", ["batched_key_padding", "cross_kv_broadcast_masked"])
    def test_finite_differences(self, rng, case):
        arrays, mask = _attention_case(rng, case)
        q, k, v = (ad.parameter(a) for a in arrays)
        r = ad.constant(rng.normal(size=arrays[0].shape))
        check_grads(lambda: ad.tensor_sum(ad.mul(fused_attention(q, k, v, 2, mask)[0], r)),
                    {"q": q, "k": k, "v": v})

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

    def test_one_op_per_attention(self, rng):
        q, k, v = (ad.parameter(rng.normal(size=(3, 4))) for _ in range(3))
        out, _ = _attention(q, k, v, 2)
        assert out.op == "attention" and out._parents == (q, k, v)

    def test_width_not_divisible_by_heads_rejected(self, rng):
        x = ad.constant(rng.normal(size=(3, 6)))
        with pytest.raises(ContractError, match="divisible"):
            _attention(x, x, x, 4)


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


def _bias(mask):
    return None if mask is None else np.where(mask, 0.0, -np.inf)


_BAND_CFGS = [AttentionConfig(heads=3, token_kernel=5, head_kernel=3, conv_layers=()),
              AttentionConfig(heads=3, token_kernel=7, head_kernel=3, circular=True,
                              conv_layers=())]


class TestRecomputingBackward:
    """The attention ops keep for backward only what is O(L) per head: values
    and every gradient are bitwise those of the ops that saved more."""

    @pytest.mark.parametrize("case", sorted(_ATTENTION_CASES))
    @pytest.mark.parametrize("H", [1, 2, 3])
    def test_attention_is_bitwise_the_saving_op(self, rng, case, H):
        arrays, mask = _attention_case(rng, case)
        got = _run(fused_attention, arrays, H, mask)
        want = _run(lambda q, k, v, H, m: saving_attention(q, k, v, H, _bias(m)), arrays, H, mask)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for name, g, w in zip("qkv", got[2], want[2]):
            assert np.array_equal(g, w), name

    @pytest.mark.parametrize("cfg", _BAND_CFGS, ids=["clipped", "circular"])
    @pytest.mark.parametrize("masked", [False, True])
    def test_band_op_is_bitwise_the_saving_op(self, rng, cfg, masked):
        arrays = [rng.normal(size=(2, 9, 12)) for _ in range(3)]
        key_mask = np.arange(9) < np.array([[9], [6]]) if masked else None

        def run(op):
            leaves = [ad.parameter(a.copy()) for a in arrays]
            out, w = op(*leaves, cfg, key_mask)
            r = ad.constant(np.random.default_rng(5).normal(size=out.shape))
            ad.backward(ad.tensor_sum(ad.mul(out, r)))
            return [out.data, w] + [t.grad for t in leaves]

        for name, g, w in zip(["out", "weights", "q", "k", "v"], run(_band_attention),
                              run(saving_band_attention)):
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
