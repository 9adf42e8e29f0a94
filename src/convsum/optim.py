"""Adam with the inverse-square-root warmup ("noam") learning-rate schedule."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, NonFiniteError


def noam_rate(d_model: int, warmup: int, step: int) -> float:
    """lr = d^-0.5 * min(step^-0.5, step * warmup^-1.5); peaks at step == warmup."""
    if step < 1 or warmup < 1:
        raise ContractError("noam_rate: step and warmup must be >= 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


@dataclass
class OptimizerState:
    """Per-parameter Adam moments plus the shared schedule settings."""

    d_model: int
    warmup: int = 4000
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


class _Scratch(threading.local):
    # Two flat work buffers, grown to the largest parameter seen and shared by
    # all parameters: fresh temporaries would be freed and re-faulted every
    # step. Per thread, so concurrent optimizers do not share them.
    a = np.empty(0)
    b = np.empty(0)


_scratch = _Scratch()


def _work_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    n = int(np.prod(shape))
    if _scratch.a.size < n:
        _scratch.a, _scratch.b = np.empty(n), np.empty(n)
    return _scratch.a[:n].reshape(shape), _scratch.b[:n].reshape(shape)


def adam_noam_step(state: OptimizerState, params: dict[str, Tensor]) -> float:
    """Apply one Adam update with the scheduled rate; returns the rate used.

    Parameters with no gradient are skipped; a non-finite gradient aborts the
    whole update before any parameter is touched. The update runs in place
    over two shared work buffers, in the operation order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so results are bitwise
    those of that expression.
    """
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"adam_noam_step: non-finite gradient for '{name}'")

    state.step += 1
    lr = noam_rate(state.d_model, state.warmup, state.step)
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        if p.grad is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise ContractError(f"adam_noam_step: moment shape mismatch for '{name}'")
        g = p.grad
        a, b = _work_buffers(m.shape)
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
        p.data -= a
    return lr


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
