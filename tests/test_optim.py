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


def _arena(**values) -> Parameters:
    """A parameter arena holding `values`, its gradient buffer allocated."""
    params = Parameters({name: Init(np.shape(x)) for name, x in values.items()})
    for name, x in values.items():
        params[name].data[...] = x
    zero_grads(params)
    return params


def _backward(params: Parameters, **grads) -> None:
    """Write gradients into the arena, where a backward pass writes them."""
    for name, g in grads.items():
        p = params[name]
        p._grad_buf[...] = g
        p.grad = p._grad_buf


class TestAdam:
    def test_update_matches_hand_rolled_adam(self, rng):
        params = _arena(p=rng.normal(size=(3, 2)))
        g = rng.normal(size=(3, 2))
        _backward(params, p=g)
        before = params["p"].data.copy()
        state = OptimizerState(d_model=64, warmup=10, beta1=0.9, beta2=0.98, eps=1e-9)
        lr = adam_noam_step(state, params)

        m = 0.1 * g
        v = 0.02 * g * g
        expected = before - lr * (m / 0.1) / (np.sqrt(v / 0.02) + 1e-9)
        assert np.allclose(params["p"].data, expected, atol=1e-15)
        assert state.step == 1
        assert abs(lr - noam_rate(64, 10, 1)) < 1e-18

    def test_zero_gradient_leaves_param_unchanged_on_first_step(self):
        params = _arena(p=np.ones((2, 2)))
        _backward(params, p=np.zeros((2, 2)))
        state = OptimizerState(d_model=64, warmup=10)
        adam_noam_step(state, params)
        assert np.array_equal(params["p"].data, np.ones((2, 2)))

    def test_parameter_without_gradient_is_refused(self):
        params = _arena(a=np.ones(2), b=np.ones(3))
        _backward(params, a=np.ones(2))
        state = OptimizerState(d_model=64, warmup=10)
        with pytest.raises(ContractError, match="'b' has no gradient"):
            adam_noam_step(state, params)
        assert np.array_equal(params.theta, np.ones(5)) and state.step == 0 and state.m is None

    def test_gradient_held_outside_the_arena_is_refused(self, rng):
        params = _arena(a=rng.normal(size=(2, 3)), b=rng.normal(size=4))
        _backward(params, a=rng.normal(size=(2, 3)))
        params["b"].grad = np.ones(4)  # set by hand, not written into the arena
        theta = params.theta.copy()
        state = OptimizerState(d_model=64, warmup=10)
        with pytest.raises(ContractError, match="'b' is held outside the gradient arena"):
            adam_noam_step(state, params)
        # before the first zero_grads there is no arena to write into
        fresh = Parameters({"a": Init((2,))})
        fresh["a"].grad = np.ones(2)
        with pytest.raises(ContractError, match="'a' is held outside"):
            adam_noam_step(state, fresh)
        assert np.array_equal(params.theta, theta) and state.step == 0

    def test_plain_dict_is_refused(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        state = OptimizerState(d_model=64, warmup=10)
        with pytest.raises(ContractError, match="Parameters arena"):
            adam_noam_step(state, {"p": p})
        assert np.array_equal(p.data, np.ones(2)) and state.step == 0

    def test_nonfinite_gradient_aborts_whole_update(self):
        params = _arena(a=np.ones(2), b=np.ones(2))
        _backward(params, a=np.ones(2), b=np.array([np.nan, 1.0]))
        state = OptimizerState(d_model=64, warmup=10)
        with pytest.raises(NonFiniteError, match="'b'"):
            adam_noam_step(state, params)
        assert np.array_equal(params.theta, np.ones(4))  # nothing was touched
        assert state.step == 0

    def test_step_counter_strictly_increments(self, rng):
        params = _arena(p=rng.normal(size=(2,)))
        state = OptimizerState(d_model=64, warmup=10)
        for expected in (1, 2, 3):
            zero_grads(params)
            _backward(params, p=rng.normal(size=(2,)))
            adam_noam_step(state, params)
            assert state.step == expected

    def test_zero_grads(self):
        params = Parameters({"p": Init((2,))})
        zero_grads(params)
        grad = params.grad
        _backward(params, p=np.ones(2))
        assert params["p"].grad is params["p"]._grad_buf
        zero_grads(params)
        assert params["p"].grad is None and params.grad is grad  # the buffer is kept


def _reference_adam(state, params, m, v):
    """The out-of-place update formula, on moment dicts of its own."""
    lr = noam_rate(state.d_model, state.warmup, state.step)
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        m.setdefault(name, np.zeros_like(p.data))
        v.setdefault(name, np.zeros_like(p.data))
        g = p.grad
        m[name] *= state.beta1
        m[name] += (1.0 - state.beta1) * g
        v[name] *= state.beta2
        v[name] += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + state.eps)


class TestInPlaceAdam:
    def _steps(self, rng, model, opt, ref_params, ref_m, ref_v, n):
        for _ in range(n):
            zero_grads(model.params)
            for name, p in model.params.items():
                g = rng.normal(size=p.data.shape)
                _backward(model.params, **{name: g})
                ref_params[name].grad = g.copy()
            adam_noam_step(opt, model.params)
            _reference_adam(opt, ref_params, ref_m, ref_v)
            for name, p in model.params.items():
                assert np.array_equal(p.data, ref_params[name].data), name
                assert np.array_equal(model.params.view(opt.m, name), ref_m[name]), name
                assert np.array_equal(model.params.view(opt.v, name), ref_v[name]), name

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
