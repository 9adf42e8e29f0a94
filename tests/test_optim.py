import numpy as np
import pytest

from convsum.autodiff import Tensor
from convsum.errors import ContractError, NonFiniteError
from convsum.optim import Init, OptimizerState, Parameters, adam_noam_step, noam_rate, zero_grads


class TestSchedule:
    def test_closed_form_values(self):
        # d=256, warmup=4000, step=4000 -> 256^-0.5 * 4000^-0.5
        assert abs(noam_rate(256, 4000, 4000) - 256 ** -0.5 * 4000 ** -0.5) < 1e-15
        assert abs(noam_rate(256, 4000, 4000) - 9.8821e-4) < 1e-7
        assert abs(noam_rate(512, 100, 1) - 512 ** -0.5 * 100 ** -1.5) < 1e-18
        assert abs(noam_rate(512, 100, 1000) - 512 ** -0.5 * 1000 ** -0.5) < 1e-15

    def test_peak_at_warmup(self):
        warmup = 50
        peak = noam_rate(64, warmup, warmup)
        assert all(noam_rate(64, warmup, s) <= peak for s in range(1, 10 * warmup))

    def test_step_must_be_positive(self):
        with pytest.raises(ContractError):
            noam_rate(64, 100, 0)


class TestAdam:
    def test_update_matches_hand_rolled_adam(self, rng):
        p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        g = rng.normal(size=(3, 2))
        p.grad = g.copy()
        before = p.data.copy()
        state = OptimizerState(d_model=64, warmup=10, beta1=0.9, beta2=0.98, eps=1e-9)
        lr = adam_noam_step(state, {"p": p})

        m = 0.1 * g
        v = 0.02 * g * g
        expected = before - lr * (m / 0.1) / (np.sqrt(v / 0.02) + 1e-9)
        assert np.allclose(p.data, expected, atol=1e-15)
        assert state.step == 1
        assert abs(lr - noam_rate(64, 10, 1)) < 1e-18

    def test_zero_gradient_leaves_param_unchanged_on_first_step(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.zeros((2, 2))
        state = OptimizerState(d_model=64, warmup=10)
        adam_noam_step(state, {"p": p})
        assert np.array_equal(p.data, np.ones((2, 2)))

    def test_missing_gradient_skipped(self):
        p = Tensor(np.ones(3), requires_grad=True)
        state = OptimizerState(d_model=64, warmup=10)
        adam_noam_step(state, {"p": p})
        assert np.array_equal(p.data, np.ones(3))
        assert "p" not in state.m

    def test_nonfinite_gradient_aborts_whole_update(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        a.grad = np.ones(2)
        b.grad = np.array([np.nan, 1.0])
        state = OptimizerState(d_model=64, warmup=10)
        with pytest.raises(NonFiniteError, match="b"):
            adam_noam_step(state, {"a": a, "b": b})
        assert np.array_equal(a.data, np.ones(2))  # nothing was touched
        assert state.step == 0

    def test_step_counter_strictly_increments(self, rng):
        p = Tensor(rng.normal(size=(2,)), requires_grad=True)
        state = OptimizerState(d_model=64, warmup=10)
        for expected in (1, 2, 3):
            p.grad = rng.normal(size=(2,))
            adam_noam_step(state, {"p": p})
            assert state.step == expected

    def test_gradient_set_from_outside_is_copied_into_the_arena(self, rng):
        params = Parameters({"a": Tensor(rng.normal(size=(2, 3)), requires_grad=True),
                             "b": Tensor(rng.normal(size=4), requires_grad=True)})
        g = rng.normal(size=(2, 3))
        params["a"].grad = g
        adam_noam_step(OptimizerState(d_model=64, warmup=10), params)
        assert params["a"].grad is not g and np.array_equal(params["a"].grad, g)
        assert np.shares_memory(params["a"].grad, params.grad)
        params["b"].grad = np.ones(3)
        with pytest.raises(ContractError, match="'b'"):
            adam_noam_step(OptimizerState(d_model=64, warmup=10), params)

    def test_zero_grads(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        zero_grads({"p": p})
        assert p.grad is None


def _reference_adam(state, params, m, v):
    """The out-of-place update formula, on moment dicts of its own."""
    lr = noam_rate(state.d_model, state.warmup, state.step)
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        if p.grad is None:
            continue
        m.setdefault(name, np.zeros_like(p.data))
        v.setdefault(name, np.zeros_like(p.data))
        g = p.grad
        m[name] *= state.beta1
        m[name] += (1.0 - state.beta1) * g
        v[name] *= state.beta2
        v[name] += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + state.eps)


class TestInPlaceAdam:
    # "enc.0.ln1.g" never has a gradient, "gen.b" on every other step only
    NEVER, SOMETIMES = "enc.0.ln1.g", "gen.b"

    def _steps(self, rng, model, opt, ref_params, ref_m, ref_v, n):
        for step in range(n):
            for name, p in model.params.items():
                skip = name == self.NEVER or (name == self.SOMETIMES and step % 2 == 0)
                g = None if skip else rng.normal(size=p.data.shape)
                p.grad = g
                ref_params[name].grad = None if g is None else g.copy()
            adam_noam_step(opt, model.params)
            _reference_adam(opt, ref_params, ref_m, ref_v)
            for name, p in model.params.items():
                assert np.array_equal(p.data, ref_params[name].data), name
            for name in ref_m:
                assert np.array_equal(opt.m[name], ref_m[name]), name
                assert np.array_equal(opt.v[name], ref_v[name]), name

    def test_bitwise_equal_to_the_out_of_place_formula_across_a_restore(self, rng, tmp_path):
        from convsum.checkpoint import load_checkpoint, restore_model, save_checkpoint
        from convsum.config import RunConfig, build_model
        from convsum.tokenizer import RESERVED, Vocab

        vocab = Vocab(list(RESERVED) + [f"w{i}" for i in range(10)])
        cfg = RunConfig(d_model=8, enc_layers=1, dec_layers=1, ff_size=16, heads=2,
                        token_kernel=3, head_kernel=1, conv_layers=(), copy=True, warmup=3)
        model, opt = build_model(cfg, vocab)
        ref = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in model.params.items()}
        ref_m, ref_v = {}, {}
        self._steps(rng, model, opt, ref, ref_m, ref_v, 4)
        assert self.NEVER not in opt.m and self.SOMETIMES in opt.m

        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, model, opt, cfg)
        restored, opt2 = restore_model(load_checkpoint(path))
        self._steps(rng, restored, opt2, ref, ref_m, ref_v, 4)
        assert opt2.step == 8


def test_inits_are_drawn_into_the_arena_in_the_order_given():
    def normal(rng, shape):
        return rng.normal(0.0, 1.0, shape)

    params = Parameters({"a": Init((2, 3), normal), "g": Init((4,), fill=1.0),
                         "b": Init((5,)), "c": Init((3,), normal)}, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    want = {"a": normal(rng, (2, 3)), "g": np.ones(4), "b": np.zeros(5), "c": normal(rng, (3,))}
    assert list(params) == list(want)
    for name, p in params.items():
        assert p.requires_grad and p.data.base is params.theta
        assert np.array_equal(p.data, want[name]), name
