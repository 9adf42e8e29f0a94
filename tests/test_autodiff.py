import math
import tracemalloc
import warnings

import numpy as np
import pytest

from _helpers import check_grads, closure_arrays, scale, transpose
from convsum import autodiff as ad
from convsum.errors import ContractError, NonFiniteError


def _proj(rng, shape):
    """Fixed random projection so the scalar loss exercises every output entry."""
    return ad.constant(rng.normal(size=shape))


class TestBasics:
    def test_sum_of_squares_gradient(self):
        x = ad.parameter([1.0, 2.0, 3.0])
        loss = ad.tensor_sum(ad.mul(x, x))
        ad.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_backward_consumes_the_graph(self):
        x = ad.parameter([1.0, 2.0, 3.0])
        sq = ad.mul(x, x)
        loss = ad.tensor_sum(sq)
        ad.backward(loss)
        assert sq._backward is loss._backward  # one shared placeholder: no cycles
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(loss)
        with pytest.raises(ContractError, match="consumed"):
            ad.backward(ad.tensor_sum(scale(sq, 2.0)))  # reaches a consumed node
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])  # nothing accumulated twice

    def test_backward_requires_scalar(self):
        x = ad.parameter([[1.0, 2.0]])
        with pytest.raises(ContractError):
            ad.backward(ad.mul(x, x))
        with ad.no_grad(), pytest.raises(ContractError, match="depend"):
            ad.backward(ad.tensor_sum(ad.mul(x, x)))  # recorded no graph

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


class TestDropout:
    def test_identity_when_not_training(self, rng):
        x = ad.constant(rng.normal(size=(3, 4)))
        assert ad.dropout(x, 0.5, rng, training=False) is x


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

    def test_pad_positions_contribute_nothing(self, rng):
        logits = rng.normal(size=(3, 5))
        full = ad.label_smoothed_cross_entropy(ad.constant(logits), np.array([1, 0, 2]), 0.1, pad_id=0)
        only = ad.label_smoothed_cross_entropy(
            ad.constant(logits[[0, 2]]), np.array([1, 2]), 0.1, pad_id=0
        )
        assert abs(full.item() - only.item()) < 1e-12

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
        ad.backward(scale(loss, up))  # the loss's upstream gradient is `up`
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
    def test_embedding_into_transposed_table(self, rng):
        # The transpose branch's backward runs first and leaves the table's
        # grad laid out like the transposed input, not C-contiguous; the
        # scatter must still land in it.
        base = ad.parameter(rng.normal(size=(2, 4)))
        ids = np.array([[0, 2], [3, 3]])
        pe = rng.normal(size=(2, 2))
        r = _proj(rng, (2, 2, 2))
        r2 = _proj(rng, (2, 4))

        def build():
            t = transpose(base, (1, 0))
            return ad.add(ad.tensor_sum(ad.mul(transpose(t, (1, 0)), r2)),
                          ad.tensor_sum(ad.mul(ad.embedding(t, ids, pe), r)))

        check_grads(build, {"base": base})


class TestFusedFeedForward:
    """`feed_forward` is one op; tests/test_ops.py holds it to its composed ops."""

    @staticmethod
    def _tensors(rng, shape, wants_grad):
        t = {"x": rng.normal(size=shape), "w1": rng.normal(size=(shape[-1], 6)),
             "b1": rng.normal(size=6), "w2": rng.normal(size=(6, 4)), "b2": rng.normal(size=4)}
        return {k: ad.Tensor(a, requires_grad=k in wants_grad) for k, a in t.items()}

    def test_is_one_op_saving_one_hidden_array(self, rng):
        t = self._tensors(rng, (2, 5, 3), ("w1", "b1", "w2", "b2"))
        out = ad.feed_forward(*t.values())
        assert out.op == "feed_forward" and out._parents == tuple(t.values())
        held = {id(a.data) for a in (out, *t.values())}
        saved = [a for a in closure_arrays(out._backward) if id(a) not in held]
        assert [a.shape for a in saved] == [(2, 5, 6)]  # h, and no pre-activation beside it
        assert (saved[0] >= 0.0).all()

    def test_per_op_check_sees_a_pre_activation_the_relu_hides(self, rng):
        t = self._tensors(rng, (2, 3), ())
        t["b1"].data[2] = -np.inf
        with pytest.raises(NonFiniteError, match="'feed_forward'"):
            ad.feed_forward(*t.values())


class TestNoGrad:
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
            return ad.softmax(scale(x, 2.0))  # inf - inf: NaN from softmax

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
            return ad.softmax(scale(x, 1.0), mask=np.array([[True, True]]))

        with pytest.raises(NonFiniteError, match="'scale'"):
            ad.checked_step(step, lambda t: (t.data,))

    def test_error_no_nan_causes_propagates_from_the_first_run(self):
        # A ContractError reads the same with per-op checks on: no replay
        calls = []

        def step():
            calls.append(ad._mode.per_op)
            raise ContractError("bad shape")

        with pytest.raises(ContractError, match="bad shape"):
            ad.checked_step(step, lambda r: (), reset=lambda: calls.append("reset"))
        assert calls == [False] and ad._mode.per_op

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
    """`layer_norm` with a residual branch is one op; tests/test_ops.py holds
    it to layer_norm(add(x, dropout(sub))) as three ops."""

    def test_is_one_op_keeping_a_bool_mask(self, rng):
        x, sub = ad.parameter(rng.normal(size=(4, 6))), ad.parameter(rng.normal(size=(4, 6)))
        g, b = ad.parameter(np.ones(6)), ad.parameter(np.zeros(6))
        keep = ad.dropout_mask(0.5, rng, (4, 6))
        assert keep.dtype == bool
        out = ad.layer_norm(x, g, b, residual=sub, keep=keep, rate=0.5)
        assert out.op == "layer_norm" and out._parents == (x, sub, g, b)
        assert ad.dropout_mask(0.0, None, (4, 6)) is None  # nothing drops: no mask, no draw


class TestFreedGraph:
    """`backward` frees each node once its closure has run."""

    def test_intermediates_keep_no_grad_parents_or_closure(self, rng):
        w = ad.parameter(rng.normal(size=(4, 3)))
        x = ad.constant(rng.normal(size=(5, 4)))
        h = ad.linear(x, w, ad.constant(rng.normal(size=3)))
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
