import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _helpers import check_grads, closure_arrays
from convsum import autodiff as ad
from convsum.errors import ContractError, DegenerateInputError, NonFiniteError


def _proj(rng, shape):
    """Fixed random projection so the scalar loss exercises every output entry."""
    return ad.constant(rng.normal(size=shape))


class TestBasics:
    def test_sum_of_squares_gradient(self):
        x = ad.parameter([1.0, 2.0, 3.0])
        loss = ad.tensor_sum(ad.mul(x, x))
        ad.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_constant_keeps_empty_gradient_slot(self):
        x = ad.parameter([1.0, 2.0])
        c = ad.constant([3.0, 4.0])
        loss = ad.tensor_sum(ad.mul(x, c))
        ad.backward(loss)
        assert c.grad is None
        assert np.array_equal(x.grad, [3.0, 4.0])

    def test_backward_consumes_the_graph(self):
        x = ad.parameter([1.0, 2.0, 3.0])
        sq = ad.mul(x, x)
        loss = ad.tensor_sum(sq)
        ad.backward(loss)
        assert sq._backward is loss._backward  # one shared placeholder: no cycles
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(ad.tensor_sum(ad.scale(sq, 2.0)))  # reaches a consumed node
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])  # nothing accumulated twice

    def test_backward_requires_scalar(self):
        x = ad.parameter([[1.0, 2.0]])
        with pytest.raises(ContractError):
            ad.backward(ad.mul(x, x))

    def test_matmul_identity(self, rng):
        x = rng.normal(size=(3, 5))
        out = ad.matmul(ad.constant(np.eye(3)), ad.constant(x))
        assert np.array_equal(out.data, x)

    def test_matmul_shape_mismatch(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((2, 3)))
        with pytest.raises(ContractError):
            ad.matmul(a, b)

    def test_nan_is_fatal_and_names_op(self):
        big = ad.parameter(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="mul"):
            ad.mul(big, big)

    def test_add_and_mul_skip_inputs_that_want_no_gradient(self, rng, monkeypatch):
        x = ad.parameter(rng.normal(size=(3, 4)))
        pe = ad.constant(rng.normal(size=(4,)))
        loss = ad.tensor_sum(ad.mul(ad.add(x, pe), pe))
        reduced = []
        unbroadcast = ad._unbroadcast
        monkeypatch.setattr(ad, "_unbroadcast",
                            lambda g, shape: (reduced.append(shape), unbroadcast(g, shape))[1])
        ad.backward(loss)
        assert reduced == [(3, 4), (3, 4)]  # never the constant's (4,)
        assert np.array_equal(x.grad, np.broadcast_to(pe.data, (3, 4)))


class TestSoftmax:
    def test_symmetric_pair(self):
        out = ad.softmax(ad.constant([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_single_valid_entry(self):
        out = ad.softmax(ad.constant([5.0, 9.0]), mask=np.array([True, False]))
        assert np.array_equal(out.data, [1.0, 0.0])

    def test_rows_sum_to_one_and_masked_zero(self, rng):
        x = ad.constant(rng.normal(size=(6, 9)))
        mask = rng.random((6, 9)) > 0.4
        mask[:, 0] = True
        out = ad.softmax(x, mask)
        assert np.allclose(out.data.sum(axis=-1), 1.0)
        assert np.all(out.data[~mask] == 0.0)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            ad.softmax(ad.constant([[1.0, 2.0]]), mask=np.array([[False, False]]))

    def test_none_mask_matches_all_true_mask_bitwise(self, rng):
        x = rng.normal(size=(4, 7))
        a = ad.softmax(ad.constant(x))
        b = ad.softmax(ad.constant(x), mask=np.ones((4, 7), dtype=bool))
        assert np.array_equal(a.data, b.data)

    def test_none_mask_bitwise_with_gradients_on_extreme_rows(self, rng):
        x = rng.normal(size=(3, 5, 64)) * np.array([1e-3, 1.0, 300.0])[:, None, None]
        r = rng.normal(size=x.shape)
        grads = []
        for mask in (None, np.ones(x.shape, dtype=bool)):
            t = ad.parameter(x.copy())
            out = ad.softmax(t, mask)
            ad.backward(ad.tensor_sum(ad.mul(out, ad.constant(r))))
            grads.append((out.data, t.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_empty_row_rejected_without_mask(self):
        with pytest.raises(DegenerateInputError):
            ad.softmax(ad.constant(np.zeros((2, 0))))


class TestDropout:
    def test_identity_when_not_training(self, rng):
        x = ad.constant(rng.normal(size=(3, 4)))
        assert ad.dropout(x, 0.5, rng, training=False) is x

    def test_invalid_rate(self, rng):
        with pytest.raises(ContractError):
            ad.dropout(ad.constant([1.0]), 1.0, rng, training=True)

    def test_seeded_mask_reproducible(self):
        x = ad.constant(np.ones((100,)))
        a = ad.dropout(x, 0.3, np.random.default_rng(7), training=True)
        b = ad.dropout(x, 0.3, np.random.default_rng(7), training=True)
        assert np.array_equal(a.data, b.data)


    def test_output_and_gradient_are_the_inverted_dropout_formula_bitwise(self, rng):
        x = ad.parameter(rng.normal(size=(4, 9)))
        out = ad.dropout(x, 0.3, np.random.default_rng(7), training=True)
        ad.backward(ad.tensor_sum(out))
        scale = (np.random.default_rng(7).random((4, 9)) >= 0.3) / (1.0 - 0.3)
        assert np.array_equal(out.data, x.data * scale)
        assert np.array_equal(x.grad, np.ones((4, 9)) * scale)


class TestLosses:
    def test_huge_margin_loss_tends_to_zero(self):
        logits = ad.constant([[100.0, 0.0, 0.0]])
        loss = ad.label_smoothed_cross_entropy(logits, np.array([0]), 0.0, pad_id=9)
        assert loss.item() < 1e-9

    def test_uniform_logits_loss_is_log_v(self):
        V = 7
        loss = ad.label_smoothed_cross_entropy(
            ad.constant(np.zeros((3, V))), np.array([1, 2, 3]), 0.0, pad_id=9
        )
        assert abs(loss.item() - math.log(V)) < 1e-12

    def test_smoothed_value_matches_scalar_recomputation(self, rng):
        # independent recomputation of the smoothed-CE formula at 64-bit
        V, s = 4, 0.1
        logits = rng.normal(size=(2, V))
        target = np.array([2, 0])
        expected = 0.0
        for t in range(2):
            z = sum(math.exp(v) for v in logits[t])
            logp = [v - math.log(z) for v in logits[t]]
            q = [s / V + (1.0 - s) * (w == target[t]) for w in range(V)]
            expected += -sum(qi * li for qi, li in zip(q, logp))
        expected /= 2
        loss = ad.label_smoothed_cross_entropy(ad.constant(logits), target, s, pad_id=9)
        assert abs(loss.item() - expected) < 1e-12

    def test_pad_positions_contribute_nothing(self, rng):
        logits = rng.normal(size=(3, 5))
        full = ad.label_smoothed_cross_entropy(ad.constant(logits), np.array([1, 0, 2]), 0.1, pad_id=0)
        only = ad.label_smoothed_cross_entropy(
            ad.constant(logits[[0, 2]]), np.array([1, 2]), 0.1, pad_id=0
        )
        assert abs(full.item() - only.item()) < 1e-12

    def test_all_pad_target_zero_loss_zero_grad(self, rng):
        logits = ad.parameter(rng.normal(size=(2, 4)))
        loss = ad.label_smoothed_cross_entropy(logits, np.array([0, 0]), 0.1, pad_id=0)
        ad.backward(loss)
        assert loss.item() == 0.0
        assert np.all(logits.grad == 0.0)

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            ad.label_smoothed_cross_entropy(ad.constant(np.zeros((1, 3))), np.array([3]), 0.0, 0)

    def test_nll_from_probs_matches_logits_path(self, rng):
        logits = rng.normal(size=(3, 6))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        target = np.array([4, 1, 5])
        a = ad.label_smoothed_cross_entropy(ad.constant(logits), target, 0.1, pad_id=0)
        b = ad.label_smoothed_nll(ad.constant(probs), target, 0.1, pad_id=0)
        assert abs(a.item() - b.item()) < 1e-9


def _reference_cross_entropy(logits, ids, s, pad_id, up):
    """label_smoothed_cross_entropy's body before the two losses shared one
    core: (loss, gradient w.r.t. logits under upstream gradient `up`), for a
    target with at least one non-pad position."""
    T, V = logits.shape
    w = (ids != pad_id).astype(np.float64)
    count = float(w.sum())
    row_max = logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(logits - row_max).sum(axis=-1, keepdims=True)) + row_max
    logp = logits - logz
    per_pos = -((1.0 - s) * logp[np.arange(T), ids] + (s / V) * logp.sum(axis=-1))
    p = np.exp(logp)
    q = np.full_like(p, s / V)
    q[np.arange(T), ids] += 1.0 - s
    return (per_pos * w).sum() / count, (p - q) * (w / count)[:, None] * up


def _reference_nll(probs, ids, s, pad_id, up, floor=1e-10):
    """label_smoothed_nll's body before the shared core, as above."""
    T, V = probs.shape
    w = (ids != pad_id).astype(np.float64)
    count = float(w.sum())
    p = np.maximum(probs, floor)
    logp = np.log(p)
    per_pos = -((1.0 - s) * logp[np.arange(T), ids] + (s / V) * logp.sum(axis=-1))
    q = np.full((T, V), s / V)
    q[np.arange(T), ids] += 1.0 - s
    g = np.where(probs > floor, -q / p, 0.0)
    return (per_pos * w).sum() / count, g * (w / count)[:, None] * up


class TestLossCoreOracle:
    """Both losses through their shared core equal their former bodies bit for bit."""

    PAD = 0

    def _inputs(self, rng, T=9, V=13):
        ids = rng.integers(1, V, size=T)
        ids[rng.random(T) < 0.4] = self.PAD
        ids[rng.integers(T)] = 1 + rng.integers(V - 1)  # at least one real target
        return rng.normal(scale=3.0, size=(T, V)), ids, float(rng.uniform(0.5, 2.0))

    def _run(self, loss_fn, x, ids, s, up):
        leaf = ad.parameter(x)
        loss = loss_fn(leaf, ids, s, pad_id=self.PAD)
        ad.backward(ad.scale(loss, up))  # the loss's upstream gradient is `up`
        return loss.data, leaf.grad

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_cross_entropy_matches_its_former_body(self, rng, smoothing):
        for _ in range(8):
            x, ids, up = self._inputs(rng)
            value, grad = self._run(ad.label_smoothed_cross_entropy, x, ids, smoothing, up)
            want_value, want_grad = _reference_cross_entropy(x, ids, smoothing, self.PAD, up)
            assert value.tobytes() == np.float64(want_value).tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_nll_matches_its_former_body_with_probabilities_below_the_floor(self, rng,
                                                                          smoothing):
        for _ in range(8):
            x, ids, up = self._inputs(rng)
            probs = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
            probs[rng.random(probs.shape) < 0.15] = 1e-12
            probs[0, 0] = 0.0
            value, grad = self._run(ad.label_smoothed_nll, probs, ids, smoothing, up)
            want_value, want_grad = _reference_nll(probs, ids, smoothing, self.PAD, up)
            assert (probs < 1e-10).sum() > 1 and (want_grad == 0.0).any()
            assert value.tobytes() == np.float64(want_value).tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("loss_fn", [ad.label_smoothed_cross_entropy, ad.label_smoothed_nll])
    def test_all_pad_target_is_one_node_with_zero_loss_and_gradient(self, rng, loss_fn):
        x = ad.parameter(rng.dirichlet(np.ones(6), size=4))
        loss = loss_fn(x, np.full(4, self.PAD), 0.1, pad_id=self.PAD)
        assert len(loss._parents) == 1 and loss._parents[0] is x  # one node above the leaf
        ad.backward(loss)
        assert loss.item() == 0.0
        assert x.grad.shape == (4, 6) and np.all(x.grad == 0.0)


class TestGradients:
    """Central-difference checks for each op (perturbation 1e-5, 64-bit)."""

    def test_add_mul_broadcast(self, rng):
        a = ad.parameter(rng.normal(size=(3, 4)))
        b = ad.parameter(rng.normal(size=(4,)))
        r = _proj(rng, (3, 4))
        check_grads(lambda: ad.tensor_sum(ad.mul(ad.add(a, b), r)), {"a": a, "b": b})

    def test_matmul_batched(self, rng):
        a = ad.parameter(rng.normal(size=(2, 3, 4)))
        b = ad.parameter(rng.normal(size=(2, 4, 5)))
        r = _proj(rng, (2, 3, 5))
        check_grads(lambda: ad.tensor_sum(ad.mul(ad.matmul(a, b), r)), {"a": a, "b": b})

    def test_matmul_broadcast_over_batch(self, rng):
        a = ad.parameter(rng.normal(size=(2, 1, 3, 4)))
        b = ad.parameter(rng.normal(size=(2, 3, 4, 5)))
        r = _proj(rng, (2, 3, 3, 5))
        check_grads(lambda: ad.tensor_sum(ad.mul(ad.matmul(a, b), r)), {"a": a, "b": b})

    def test_softmax_masked(self, rng):
        x = ad.parameter(rng.normal(size=(4, 6)))
        mask = rng.random((4, 6)) > 0.3
        mask[:, 2] = True
        r = _proj(rng, (4, 6))
        check_grads(lambda: ad.tensor_sum(ad.mul(ad.softmax(x, mask), r)), {"x": x})

    def test_layer_norm(self, rng):
        x = ad.parameter(rng.normal(size=(3, 5)))
        g = ad.parameter(rng.normal(size=(5,)) + 1.0)
        b = ad.parameter(rng.normal(size=(5,)))
        r = _proj(rng, (3, 5))
        check_grads(
            lambda: ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b), r)),
            {"x": x, "g": g, "b": b},
        )

    def test_relu_sigmoid_transpose_reshape_concat(self, rng):
        x = ad.parameter(rng.normal(size=(2, 6)))
        y = ad.parameter(rng.normal(size=(2, 6)))
        r = _proj(rng, (4, 2, 3))

        def build():
            cat = ad.concat([ad.relu(x), ad.sigmoid(y)], axis=0)  # (4, 6)
            return ad.tensor_sum(ad.mul(ad.reshape(ad.transpose(cat, (0, 1)), (4, 2, 3)), r))

        check_grads(build, {"x": x, "y": y})

    def test_embedding_and_take(self, rng):
        table = ad.parameter(rng.normal(size=(7, 3)))
        ids = np.array([1, 1, 4, 0])
        r = _proj(rng, (4, 3))
        check_grads(
            lambda: ad.tensor_sum(ad.mul(ad.embedding_lookup(table, ids), r)), {"table": table}
        )

    def test_take_into_transposed_input(self, rng):
        # the transposed node's grad is not C-contiguous; the scatter must still land
        base = ad.parameter(rng.normal(size=(3, 4, 2)))
        idx = np.array([[0, 2], [3, 3]])
        r = _proj(rng, (2, 2, 3, 2))
        r2 = _proj(rng, (4, 3, 2))

        def build():
            t = ad.transpose(base, (1, 0, 2))
            return ad.add(ad.tensor_sum(ad.mul(ad.take(t, idx), r)),
                          ad.tensor_sum(ad.mul(t, r2)))

        check_grads(build, {"base": base})

    def test_scatter_probs(self, rng):
        attn = ad.parameter(rng.random((3, 5)) + 0.1)
        ids = np.array([2, 0, 2, 4, 1])
        r = _proj(rng, (3, 6))
        check_grads(
            lambda: ad.tensor_sum(ad.mul(ad.scatter_probs(attn, ids, 6), r)), {"attn": attn}
        )

    def test_smoothed_ce_gradient(self, rng):
        logits = ad.parameter(rng.normal(size=(4, 5)))
        target = np.array([1, 0, 4, 0])
        check_grads(
            lambda: ad.label_smoothed_cross_entropy(logits, target, 0.1, pad_id=0),
            {"logits": logits},
        )

    def test_smoothed_nll_gradient(self, rng):
        # keep probabilities well away from the clamp floor
        raw = ad.parameter(rng.normal(size=(3, 5)))

        def build():
            probs = ad.softmax(raw)
            return ad.label_smoothed_nll(probs, np.array([2, 1, 0]), 0.1, pad_id=9)

        check_grads(build, {"raw": raw})

    def test_composite_graph(self, rng):
        x = ad.parameter(rng.normal(size=(3, 4)))
        w = ad.parameter(rng.normal(size=(4, 4)))

        def build():
            h = ad.relu(ad.matmul(x, w))
            s = ad.softmax(h)
            return ad.tensor_sum(ad.mul(s, x))

        check_grads(build, {"x": x, "w": w})


def _grads_of(build, tensors, r):
    """Output and input gradients of sum(build() * r), on fresh leaf copies."""
    leaves = {k: ad.Tensor(t.data.copy(), requires_grad=t.requires_grad)
              for k, t in tensors.items()}
    out = build(*leaves.values())
    ad.backward(ad.tensor_sum(ad.mul(out, r)))
    return out.data, {k: t.grad for k, t in leaves.items() if t.requires_grad}


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestFusedLinear:
    """`linear` is one op; the oracle is the composed add(matmul(x, w), b)."""

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3), (2, 2, 5, 3)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_composed_ops(self, rng, shape, with_bias):
        t = {"x": ad.parameter(rng.normal(size=shape)),
             "w": ad.parameter(rng.normal(size=(3, 4)))}
        if with_bias:
            t["b"] = ad.parameter(rng.normal(size=4))
        r = _proj(rng, shape[:-1] + (4,))

        def composed(x, w, b=None):
            out = ad.matmul(x, w)
            return out if b is None else ad.add(out, b)

        got, got_g = _grads_of(ad.linear, t, r)
        want, want_g = _grads_of(composed, t, r)
        assert np.array_equal(got, want)
        assert got_g.keys() == want_g.keys()
        for k in want_g:
            assert got_g[k].shape == want_g[k].shape
            assert _rel(got_g[k], want_g[k]) <= 1e-10, k

    def test_is_one_op_skipping_inputs_without_grad(self, rng):
        x = ad.constant(rng.normal(size=(2, 3, 4)))
        w, b = ad.parameter(rng.normal(size=(4, 2))), ad.parameter(rng.normal(size=2))
        out = ad.linear(x, w, b)
        assert out.op == "linear" and out._parents == (x, w, b)
        ad.backward(ad.tensor_sum(out))
        assert x.grad is None and w.grad.shape == (4, 2) and b.grad.shape == (2,)

    def test_finite_differences(self, rng):
        x = ad.parameter(rng.normal(size=(2, 3, 4)))
        w = ad.parameter(rng.normal(size=(4, 5)))
        b = ad.parameter(rng.normal(size=5))
        r = _proj(rng, (2, 3, 5))
        check_grads(lambda: ad.tensor_sum(ad.mul(ad.linear(x, w, b), r)),
                    {"x": x, "w": w, "b": b})

    def test_shape_errors(self, rng):
        x = ad.constant(rng.normal(size=(2, 3)))
        with pytest.raises(ContractError):
            ad.linear(x, ad.constant(rng.normal(size=(4, 2))))
        with pytest.raises(ContractError):
            ad.linear(x, ad.constant(rng.normal(size=(3, 2))), ad.constant(np.zeros(3)))


class TestFusedFeedForward:
    """`feed_forward` is one op; the oracle is linear(relu(linear(x, w1, b1)), w2, b2)."""

    @staticmethod
    def _tensors(rng, shape, wants_grad):
        t = {"x": rng.normal(size=shape), "w1": rng.normal(size=(shape[-1], 6)),
             "b1": rng.normal(size=6), "w2": rng.normal(size=(6, 4)), "b2": rng.normal(size=4)}
        return {k: ad.Tensor(a, requires_grad=k in wants_grad) for k, a in t.items()}

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)])
    @pytest.mark.parametrize("wants_grad", [
        ("x", "w1", "b1", "w2", "b2"),
        ("w1", "b1", "w2", "b2"),  # an input that wants no gradient, as in the first layer
        ("w2", "b2"),  # the first GEMM's gradients all skipped
        ("x",),
        ("b1",),
    ])
    def test_matches_composed_ops_bitwise(self, rng, shape, wants_grad):
        t = self._tensors(rng, shape, wants_grad)
        r = _proj(rng, shape[:-1] + (4,))

        def composed(x, w1, b1, w2, b2):
            return ad.linear(ad.relu(ad.linear(x, w1, b1)), w2, b2)

        got, got_g = _grads_of(ad.feed_forward, t, r)
        want, want_g = _grads_of(composed, t, r)
        assert np.array_equal(got, want)
        assert got_g.keys() == want_g.keys() == set(wants_grad)
        for k in want_g:
            assert np.array_equal(got_g[k], want_g[k]), k

    def test_is_one_op_saving_one_hidden_array(self, rng):
        t = self._tensors(rng, (2, 5, 3), ("w1", "b1", "w2", "b2"))
        out = ad.feed_forward(*t.values())
        assert out.op == "feed_forward" and out._parents == tuple(t.values())
        held = {id(a.data) for a in (out, *t.values())}
        saved = [a for a in closure_arrays(out._backward) if id(a) not in held]
        assert [a.shape for a in saved] == [(2, 5, 6)]  # h, and no pre-activation beside it
        assert (saved[0] >= 0.0).all()

    def test_finite_differences(self, rng):
        t = self._tensors(rng, (2, 3, 3), ("x", "w1", "b1", "w2", "b2"))
        r = _proj(rng, (2, 3, 4))
        check_grads(lambda: ad.tensor_sum(ad.mul(ad.feed_forward(*t.values()), r)), t)

    def test_shape_errors(self, rng):
        t = self._tensors(rng, (2, 3), ())
        with pytest.raises(ContractError, match="feed_forward"):
            ad.feed_forward(t["x"], t["w1"], t["b2"], t["w2"], t["b2"])
        with pytest.raises(ContractError, match="feed_forward"):
            ad.feed_forward(t["x"], t["w1"], t["b1"], t["w1"], t["b2"])

    def test_per_op_check_sees_a_pre_activation_the_relu_hides(self, rng):
        t = self._tensors(rng, (2, 3), ())
        t["b1"].data[2] = -np.inf
        with pytest.raises(NonFiniteError, match="'feed_forward'"):
            ad.feed_forward(*t.values())


class TestNoGrad:
    def test_ops_record_no_graph(self, rng):
        w = ad.parameter(rng.normal(size=(3, 4)))
        x = ad.constant(rng.normal(size=(2, 3)))
        with ad.no_grad():
            h = ad.softmax(ad.linear(x, w, ad.parameter(np.zeros(4))))
            out = ad.tensor_sum(ad.layer_norm(h, ad.parameter(np.ones(4)), ad.parameter(np.zeros(4))))
        for t in (h, out):
            assert t._parents == ()
            assert t._backward is None
            assert not t.requires_grad
        with pytest.raises(ContractError):
            ad.backward(out)

    def test_finite_checks_stay_on(self):
        with ad.no_grad(), pytest.raises(NonFiniteError, match="mul"):
            ad.mul(ad.parameter([np.nan]), ad.constant([1.0]))

    def test_flag_restored_after_nesting_and_exception(self):
        x = ad.parameter([1.0, 2.0])
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.mul(x, x).requires_grad
        assert ad.mul(x, x).requires_grad
        with pytest.raises(RuntimeError), ad.no_grad():
            raise RuntimeError("inside")
        y = ad.mul(x, x)
        assert y.requires_grad and y._parents == (x, x)

    def test_flag_is_per_thread(self):
        import threading

        x = ad.parameter([1.0])
        seen = []
        with ad.no_grad():
            t = threading.Thread(target=lambda: seen.append(ad.mul(x, x).requires_grad))
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [True]


class TestCheckedStep:
    """`checked_step`: per-op checks deferred to the step's outputs, and a
    per-op replay to name the op when one of them is not finite."""

    def test_success_runs_once_with_per_op_checks_off(self):
        calls = []

        def step():
            calls.append(ad._mode.per_op)
            return ad.mul(ad.constant([np.nan]), ad.constant([0.0]))  # no per-op check

        out = ad.checked_step(step, lambda t: (), reset=lambda: calls.append("reset"))
        assert calls == [False] and np.isnan(out.data[0])
        assert ad._mode.per_op

    def test_non_finite_output_replays_and_names_the_op(self):
        calls = []
        x = ad.parameter([np.inf, 1.0])

        def step():
            calls.append(ad._mode.per_op)
            return ad.softmax(ad.scale(x, 2.0))  # inf - inf: NaN from softmax

        with warnings.catch_warnings():  # the deferred pass prints no RuntimeWarning
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="'scale'"):
                ad.checked_step(step, lambda t: (t.data,), reset=lambda: calls.append("reset"))
        assert calls == [False, "reset", True]

    def test_error_in_deferred_pass_replays(self):
        # With checks deferred, the -inf row reaches the softmax and raises
        # there as fully masked; the replay names the op that made it.
        x = ad.parameter([[-np.inf, -np.inf]])

        def step():
            return ad.softmax(ad.scale(x, 1.0), mask=np.array([[True, True]]))

        with pytest.raises(NonFiniteError, match="'scale'"):
            ad.checked_step(step, lambda t: (t.data,))

    def test_backward_contribution_is_named(self):
        # A NaN that only the backward pass makes reaches the outputs as a
        # gradient; the replay names the op whose backward made it.
        w = ad.parameter([1.0, 2.0])

        def nan_grad(a):
            return ad._result(a.data.copy(), (a,),
                              lambda out: ad._acc(a, np.full(a.shape, np.nan), "nan_grad"),
                              "nan_grad")

        def step():
            w.grad = None
            loss = ad.tensor_sum(nan_grad(w))
            ad.backward(loss)
            return loss

        with pytest.raises(NonFiniteError, match="backward of 'nan_grad'"):
            ad.checked_step(step, lambda loss: (loss.data, w.grad))

    def test_mode_restored_after_exception(self):
        def step():
            raise RuntimeError("inside")

        with pytest.raises(RuntimeError):
            ad.checked_step(step, lambda r: ())
        assert ad._mode.per_op
        with pytest.raises(NonFiniteError, match="mul"):
            ad.mul(ad.constant([np.nan]), ad.constant([1.0]))

    def test_mode_is_per_thread(self):
        import threading

        raised = []

        def other():
            try:
                ad.mul(ad.constant([np.nan]), ad.constant([1.0]))
            except NonFiniteError:
                raised.append(True)

        def step():
            t = threading.Thread(target=other)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
            return ad.mul(ad.constant([np.nan]), ad.constant([1.0]))  # deferred here

        ad.checked_step(step, lambda r: ())
        assert raised == [True]


class TestFusedResidualNorm:
    """`layer_norm` with a residual branch is one op; the oracle is
    layer_norm(add(x, dropout(sub))) as three ops."""

    @pytest.mark.parametrize("shape", [(5, 8), (2, 3, 8)])
    @pytest.mark.parametrize("rate,training", [(0.0, True), (0.3, True), (0.3, False)])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_composed_ops_bitwise(self, rng, shape, rate, training, x_grad):
        t = {"x": ad.Tensor(rng.normal(size=shape), requires_grad=x_grad),
             "sub": ad.parameter(rng.normal(size=shape)),
             "g": ad.parameter(rng.normal(size=8) + 1.0),
             "b": ad.parameter(rng.normal(size=8))}
        r = _proj(rng, shape)

        def fused(x, sub, g, b):
            keep = ad.dropout_mask(rate, np.random.default_rng(7), shape) if training else None
            return ad.layer_norm(x, g, b, residual=sub, keep=keep, rate=rate)

        def composed(x, sub, g, b):
            dropped = ad.dropout(sub, rate, np.random.default_rng(7), training)
            return ad.layer_norm(ad.add(x, dropped), g, b)

        got, got_g = _grads_of(fused, t, r)
        want, want_g = _grads_of(composed, t, r)
        assert np.array_equal(got, want)
        assert got_g.keys() == want_g.keys()
        for k in want_g:
            assert np.array_equal(got_g[k], want_g[k]), k

    def test_is_one_op_keeping_a_bool_mask(self, rng):
        x, sub = ad.parameter(rng.normal(size=(4, 6))), ad.parameter(rng.normal(size=(4, 6)))
        g, b = ad.parameter(np.ones(6)), ad.parameter(np.zeros(6))
        keep = ad.dropout_mask(0.5, rng, (4, 6))
        assert keep.dtype == bool
        out = ad.layer_norm(x, g, b, residual=sub, keep=keep, rate=0.5)
        assert out.op == "layer_norm" and out._parents == (x, sub, g, b)
        assert ad.dropout_mask(0.0, None, (4, 6)) is None  # nothing drops: no mask, no draw

    def test_no_grad_records_nothing(self, rng):
        x, sub = ad.parameter(rng.normal(size=(3, 5))), ad.parameter(rng.normal(size=(3, 5)))
        g, b = ad.parameter(np.ones(5)), ad.parameter(np.zeros(5))
        with ad.no_grad():
            out = ad.layer_norm(x, g, b, residual=sub)
            want = ad.layer_norm(ad.add(x, sub), g, b)
        assert out._parents == () and out._backward is None and not out.requires_grad
        assert np.array_equal(out.data, want.data)

    def test_finite_differences(self, rng):
        x, sub = ad.parameter(rng.normal(size=(3, 5))), ad.parameter(rng.normal(size=(3, 5)))
        g = ad.parameter(rng.normal(size=5) + 1.0)
        b = ad.parameter(rng.normal(size=5))
        keep = ad.dropout_mask(0.4, rng, (3, 5))
        r = _proj(rng, (3, 5))
        check_grads(
            lambda: ad.tensor_sum(ad.mul(ad.layer_norm(x, g, b, residual=sub, keep=keep,
                                                       rate=0.4), r)),
            {"x": x, "sub": sub, "g": g, "b": b},
        )

    def test_residual_shape_must_match(self, rng):
        x = ad.constant(rng.normal(size=(3, 5)))
        with pytest.raises(ContractError, match="residual"):
            ad.layer_norm(x, ad.constant(np.ones(5)), ad.constant(np.zeros(5)),
                          residual=ad.constant(np.zeros(5)))


class TestFreedGraph:
    """`backward` frees each node once its closure has run."""

    def test_intermediates_keep_no_grad_parents_or_closure(self, rng):
        w = ad.parameter(rng.normal(size=(4, 3)))
        x = ad.constant(rng.normal(size=(5, 4)))
        h = ad.linear(x, w)
        r = ad.relu(h)
        s = ad.softmax(r)
        loss = ad.tensor_sum(ad.mul(s, s))
        ad.backward(loss)
        for t in (h, r, s):
            assert t.grad is None and t._parents == () and t._backward is ad._consumed
        assert loss._parents == () and np.array_equal(loss.grad, 1.0)
        assert w.grad.shape == (4, 3) and x.grad is None  # the leaf keeps its gradient

    def test_backward_frees_what_it_has_walked(self):
        # A 40-op chain of 1 MiB arrays: holding each node and its gradient
        # until the pass ends would add ~40 MiB to the peak.
        mib = 1 << 20
        h = x = ad.parameter(np.ones(mib // 8))
        for _ in range(40):
            h = ad.relu(h)
        loss = ad.tensor_sum(h)
        del h
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(x.grad, np.ones(mib // 8))
        assert peak - base < 8 * mib
