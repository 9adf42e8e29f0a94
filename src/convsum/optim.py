"""Adam with the inverse-square-root warmup ("noam") learning-rate schedule,
over parameters packed into one flat arena."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tensor
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


class Parameters(dict):
    """name -> parameter Tensor, with the values of all of them in one flat
    float64 buffer `theta` and their gradients in another, `grad`, laid out
    in insertion order.

    A Tensor given is packed: its values are copied into its view of `theta`
    and `.data` is rebound to that view, so a parameter is set with
    `p.data[...] = x`; one whose `.data` is rebound no longer trains, and
    the next Adam step says so. An `Init` is drawn from `rng` straight into
    its view, in the order given, so building holds one drawn array at a
    time beside `theta`. The first `zero_grads` (or Adam step) allocates
    `grad`, so a model that only decodes never holds one; from then on a
    backward pass writes each gradient into its view of it. `.grad` is None
    until written, so `zero_grads` frees no memory.
    """

    def __init__(self, params: dict[str, Tensor | Init], rng: np.random.Generator | None = None):
        super().__init__()
        self.grad: np.ndarray | None = None
        self.slots: dict[str, tuple[int, int, tuple[int, ...]]] = {}  # name -> lo, hi, shape
        lo = 0
        for name, p in params.items():
            size = math.prod(p.shape)
            self.slots[name] = (lo, lo + size, tuple(p.shape))
            lo += size
        self.theta = np.empty(lo)
        for name, p in params.items():
            data = self.view(self.theta, name)
            if isinstance(p, Init):
                data[...] = p.fill if p.draw is None else p.draw(rng, p.shape)
                p = Tensor(data, requires_grad=True)
            else:
                data[...] = p.data
                p.data = data
            self[name] = p

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Parameter `name`'s view of a buffer laid out like `theta`."""
        lo, hi, shape = self.slots[name]
        return flat[lo:hi].reshape(shape)

    def allocate_grad(self) -> None:
        """Give the gradients their buffer, once; later backward passes write
        into it. Not zeroed: a slot is written before it is read."""
        if self.grad is None:
            self.grad = np.empty(self.theta.size)
            for name, p in self.items():
                p._grad_buf = self.view(self.grad, name)

    def gradient_runs(self) -> tuple[list[str], list[tuple[int, int]]]:
        """The parameters that have a gradient, and the [lo, hi) runs of the
        arena they cover (adjacent parameters make one run).

        A gradient that a backward pass did not write into the arena (one
        set by hand, or computed before `grad` existed) is copied into it
        first; a parameter whose `.data` no longer views `theta` raises.
        """
        self.allocate_grad()
        names: list[str] = []
        runs: list[tuple[int, int]] = []
        for name, p in self.items():
            if p.data.base is not self.theta:
                raise ContractError(f"parameter '{name}' no longer views the parameter arena; "
                                    f"set its values with p.data[...] = x")
            if p.grad is None:
                continue
            if p.grad is not p._grad_buf:
                if p.grad.shape != p.data.shape:
                    raise ContractError(f"gradient of '{name}' has shape {p.grad.shape}, "
                                        f"parameter has {p.data.shape}")
                p._grad_buf[...] = p.grad
                p.grad = p._grad_buf
            names.append(name)
            lo, hi, _ = self.slots[name]
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return names, runs


@dataclass
class OptimizerState:
    """Adam moments plus the shared schedule settings.

    The moments are two flat buffers laid out like the arena they are bound
    to. `m` and `v` map each parameter that has had a gradient to its views
    of them: the per-name arrays a checkpoint holds.
    """

    d_model: int
    warmup: int = 4000
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    _arena: Parameters | None = field(default=None, init=False, repr=False, compare=False)
    _flat: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.warmup < 1:
            raise ContractError(f"warmup must be >= 1, got {self.warmup}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ContractError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not self.eps > 0.0:
            raise ContractError(f"Adam eps must be > 0, got {self.eps}")

    def bind(self, params: Parameters) -> None:
        """Lay the moments out like `params`, copying in the ones `m` and `v` hold."""
        if self._arena is params:
            return
        for name in sorted(self.m.keys() | self.v.keys()):
            got = [h[name].shape if name in h else None for h in (self.m, self.v)]
            want = params.slots[name][2] if name in params else None
            if want is None or got != [want, want]:
                what = "no such parameter" if want is None else f"parameter shape {want}"
                raise ContractError(f"Adam moments of '{name}' (m {got[0]}, v {got[1]}) "
                                    f"do not fit: {what}")
        held, n = (self.m, self.v), params.theta.size
        self._arena, self.m, self.v = params, {}, {}
        self._flat = (np.zeros(n), np.zeros(n), np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK)))
        for name in held[0]:
            m, v = self._track(name)
            m[...], v[...] = held[0][name], held[1][name]

    def _track(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Parameter `name`'s (m, v) views, zero until its first update."""
        if name not in self.m:
            self.m[name] = self._arena.view(self._flat[0], name)
            self.v[name] = self._arena.view(self._flat[1], name)
        return self.m[name], self.v[name]


def adam_noam_step(state: OptimizerState, params: dict[str, Tensor]) -> float:
    """Apply one Adam update with the scheduled rate; returns the rate used.

    `params` is normally a model's `Parameters`; a plain dict is packed into
    one first. Parameters with no gradient are skipped; a non-finite
    gradient aborts the whole update before any parameter is touched. The
    update runs in place, block by block, over each run of adjacent
    parameters that have a gradient, in the operation order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so results are bitwise
    those of that expression.
    """
    arena = params if isinstance(params, Parameters) else Parameters(params)
    names, runs = arena.gradient_runs()
    grad = arena.grad
    for lo, hi in runs:  # one sum per run; the parameter is looked for only on failure
        if not math.isfinite(grad[lo:hi].sum()):
            for name in names:
                if not np.isfinite(arena[name].grad).all():
                    raise NonFiniteError(f"adam_noam_step: non-finite gradient for '{name}'")

    state.step += 1
    lr = noam_rate(state.d_model, state.warmup, state.step)
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    state.bind(arena)
    for name in names:
        state._track(name)
    m_all, v_all, a_all, b_all = state._flat
    for lo, hi in runs:
        for s in range(lo, hi, BLOCK):
            e = min(s + BLOCK, hi)
            g, m, v, p = grad[s:e], m_all[s:e], v_all[s:e], arena.theta[s:e]
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
    return lr


def zero_grads(params: dict[str, Tensor]) -> None:
    """Mark every parameter as having no gradient; arena memory is kept (and
    allocated the first time, so the next backward writes into it)."""
    if isinstance(params, Parameters):
        params.allocate_grad()
    for p in params.values():
        p.grad = None
