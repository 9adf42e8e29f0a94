"""Adam with the inverse-square-root warmup ("noam") learning-rate schedule,
over parameters packed into one flat arena."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tensor, _halves, _parallel
from .errors import ContractError, NonFiniteError

# Floats per block of the Adam passes: each of its six operands is 256 KiB,
# so a block stays in cache across the update's fourteen passes.
BLOCK = 1 << 15


def noam_rate(d_model: int, warmup: int, step: int) -> float:
    """lr = d^-0.5 * min(step^-0.5, step * warmup^-1.5); peaks at step == warmup."""
    if step < 1 or warmup < 1:
        raise ContractError("noam_rate: step and warmup must be >= 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


class Init(NamedTuple):
    """How a parameter starts: its shape, and `draw(rng, shape)` from the
    model's generator, or the constant `fill` when there is no draw."""

    shape: tuple[int, ...]
    draw: Callable[[np.random.Generator, tuple[int, ...]], np.ndarray] | None = None
    fill: float = 0.0


def linear_init(din: int, dout: int) -> tuple[Init, Init]:
    """Xavier-uniform (din, dout) weight: U(-l, l), l = sqrt(6 / (din + dout)); zero bias."""
    lim = math.sqrt(6.0 / (din + dout))
    return Init((din, dout), lambda rng, shape: rng.uniform(-lim, lim, shape)), Init((dout,))


class Parameters(dict):
    """name -> parameter Tensor, with the values of all of them in one flat
    float64 buffer `theta` and their gradients in another, `grad`, laid out
    in insertion order.

    Each `Init` is drawn from `rng` straight into its view of `theta`, in the
    order given, so building holds one drawn array at a time beside `theta`.
    A parameter's `.data` is that view, so it is set with `p.data[...] = x`;
    one whose `.data` is rebound no longer trains, and the next Adam step
    says so. The first `zero_grads` allocates `grad`, so a model that only
    decodes never holds one; from then on a backward pass writes each
    gradient into its view of it.
    """

    def __init__(self, inits: dict[str, Init], rng: np.random.Generator | None = None):
        super().__init__()
        self.grad: np.ndarray | None = None
        self.slots: dict[str, tuple[int, int, tuple[int, ...]]] = {}  # name -> lo, hi, shape
        lo = 0
        for name, init in inits.items():
            size = math.prod(init.shape)
            self.slots[name] = (lo, lo + size, tuple(init.shape))
            lo += size
        self.theta = np.empty(lo)
        for name, init in inits.items():
            data = self.view(self.theta, name)
            data[...] = init.fill if init.draw is None else init.draw(rng, init.shape)
            self[name] = Tensor(data, requires_grad=True)

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Parameter `name`'s view of a buffer laid out like `theta`."""
        lo, hi, shape = self.slots[name]
        return flat[lo:hi].reshape(shape)


@dataclass
class OptimizerState:
    """Adam's schedule settings and step count, and its moments `m` and `v`:
    two flat buffers laid out like the parameter arena, None until `bind`."""

    d_model: int
    warmup: int = 4000
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    step: int = 0
    m: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scratch: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.warmup < 1:
            raise ContractError(f"warmup must be >= 1, got {self.warmup}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ContractError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.eps > 0.0:
            raise ContractError(f"Adam eps must be > 0, got {self.eps}")

    def bind(self, params: Parameters) -> None:
        """Allocate zero moments (and the update's block scratch) for `params`, once."""
        if self.m is None:
            n = params.theta.size
            self.m, self.v = np.zeros(n), np.zeros(n)
            self._scratch = (np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK)))


def adam_noam_step(state: OptimizerState, params: Parameters) -> float:
    """Apply one Adam update with the scheduled rate; returns the rate used.

    Every parameter must still view `theta` and hold this step's gradient in
    its view of `params.grad`, as a backward pass after `zero_grads` leaves
    it; ContractError names the first that does not. A non-finite gradient
    aborts the whole update before any parameter is touched. The update runs
    in place, block by block, over the whole arena, in the operation order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so results are bitwise
    those of that expression.
    """
    if not isinstance(params, Parameters):
        raise ContractError("adam_noam_step: params must be a Parameters arena")
    for name, p in params.items():
        if p.data.base is not params.theta:
            raise ContractError(f"parameter '{name}' no longer views the parameter arena; "
                                f"set its values with p.data[...] = x")
        if p.grad is None:
            raise ContractError(f"parameter '{name}' has no gradient this step")
        if p.grad is not p._grad_buf:
            raise ContractError(f"gradient of '{name}' is held outside the gradient arena; "
                                f"a backward pass after zero_grads writes it there")
    grad = params.grad
    if not math.isfinite(grad.sum()):  # one sum; the parameter is looked for only on failure
        for name, p in params.items():
            if not np.isfinite(p.grad).all():
                raise NonFiniteError(f"adam_noam_step: non-finite gradient for '{name}'")

    state.step += 1
    lr = noam_rate(state.d_model, state.warmup, state.step)
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    state.bind(params)

    def update(blocks: slice, a_all: np.ndarray, b_all: np.ndarray) -> None:
        for s in range(blocks.start * BLOCK, min(blocks.stop * BLOCK, grad.size), BLOCK):
            e = min(s + BLOCK, grad.size)
            g, m, v, p = grad[s:e], state.m[s:e], state.v[s:e], params.theta[s:e]
            a, b = a_all[: e - s], b_all[: e - s]
            np.multiply(g, 1.0 - state.beta1, out=a)
            m *= state.beta1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - state.beta2
            v *= state.beta2
            v += a
            np.divide(m, bc1, out=a)
            a *= lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += state.eps
            a /= b
            p -= a

    # Elementwise, so the two halves of the blocks may run on both cores, the
    # second with scratch of its own; the work is about one multiply-add per pass.
    work = 14 * grad.size
    halves = _halves(-(-grad.size // BLOCK), work)
    scratch = [state._scratch, *((np.empty(BLOCK), np.empty(BLOCK)) for _ in halves[1:])]
    _parallel([lambda h=h, pair=pair: update(h, *pair) for h, pair in zip(halves, scratch)], work)
    return lr


def zero_grads(params: Parameters) -> None:
    """Mark every parameter as having no gradient. The first call gives the
    gradients their buffer; later backward passes write into it, and no
    call frees it. Not zeroed: a slot is written before it is read."""
    if params.grad is None:
        params.grad = np.empty(params.theta.size)
        for name, p in params.items():
            p._grad_buf = params.view(params.grad, name)
    for p in params.values():
        p.grad = None
