"""Dense float64 tensors with reverse-mode differentiation.

Minimal tape engine: every op builds a node holding its inputs and a backward
closure; `backward(loss)` walks the recorded graph in reverse topological
order. Values are checked for NaN/Inf after every forward op and every
backward contribution, and the offending op is named (fail-fast policy).
Under `no_grad()` ops record nothing: forward-only work such as decoding
builds no graph and leaves no reference cycles behind.

A node's closure refers back to the node, so a recorded graph is a web of
reference cycles. `backward` breaks them once it has run: it drops every
node's closure, so the graph is freed by reference counting as soon as the
caller lets go of the loss (a train step: when it returns), without waiting
for the cyclic collector. A consumed graph cannot be run again; `backward`
through any of its nodes raises.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, NonFiniteError


def _check_finite(op: str, arr: np.ndarray) -> None:
    # One-pass check: any NaN/Inf propagates into the sum. (A sum overflowing
    # on all-finite entries would need ~1e308-scale values, which no healthy
    # desk-scale run produces.)
    if not math.isfinite(float(arr.sum())):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


class Tensor:
    """n-d float64 array with an optional same-shape gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError("item() requires a scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are allowed on the right for * only
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, scale(other, -1.0))

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other) -> "Tensor":
        return scale(self, float(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class _GradMode(threading.local):
    # Per thread, so a decode on one thread cannot switch off recording for a
    # training step on another.
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results keep no parents and no
    backward closure, and never require grad. Finite checks still run."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
    """The op's output node. `bwd(out)` pushes out.grad into the parents; a
    recorded node keeps it bound to itself as the zero-argument `_backward`."""
    _check_finite(op, data)
    out = Tensor(data)
    out.requires_grad = _grad_mode.enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = lambda: bwd(out)
    out.op = op
    return out


def _acc(node: Tensor, g: np.ndarray, op: str) -> None:
    """Accumulate a backward contribution into node.grad (only if it wants one).

    The first contribution is copied, not added to zeros: one pass over
    fresh memory instead of two. Every op passes g in its input's shape.
    """
    if not node.requires_grad:
        return
    _check_finite(f"backward of '{op}'", g)
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over axes that were broadcast to reach its shape from `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -----------------------------------------------------------------------------
# elementwise and linear-algebra ops
# -----------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ContractError(f"add: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(out):
        _acc(a, _unbroadcast(out.grad, a.data.shape), "add")
        _acc(b, _unbroadcast(out.grad, b.data.shape), "add")

    return _result(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ContractError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(out):
        _acc(a, _unbroadcast(out.grad * b.data, a.data.shape), "mul")
        _acc(b, _unbroadcast(out.grad * a.data, b.data.shape), "mul")

    return _result(data, (a, b), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def bwd(out):
        _acc(a, out.grad * c, "scale")

    return _result(data, (a,), bwd, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ContractError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(out):
        g = out.grad
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _acc(a, _unbroadcast(ga, a.data.shape), "matmul")
        _acc(b, _unbroadcast(gb, b.data.shape), "matmul")

    return _result(data, (a, b), bwd, "matmul")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def bwd(out):
        _acc(a, np.transpose(out.grad, inv), "transpose")

    return _result(data, (a,), bwd, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise ContractError(f"reshape: cannot view {a.shape} as {shape}") from e

    def bwd(out):
        _acc(a, out.grad.reshape(a.data.shape), "reshape")

    return _result(data, (a,), bwd, "reshape")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ContractError("concat: empty tensor list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(lo, hi)
            _acc(t, out.grad[tuple(sl)], "concat")

    return _result(data, tuple(tensors), bwd, "concat")


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.data.shape).copy(), "sum")

    return _result(data, (a,), bwd, "sum")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def bwd(out):
        _acc(a, out.grad * (a.data > 0.0), "relu")

    return _result(data, (a,), bwd, "relu")


def sigmoid(a: Tensor) -> Tensor:
    # split by sign for overflow-free exp
    data = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                    np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def bwd(out):
        _acc(a, out.grad * data * (1.0 - data), "sigmoid")

    return _result(data, (a,), bwd, "sigmoid")


# -----------------------------------------------------------------------------
# gathers and scatters
# -----------------------------------------------------------------------------


def take(a: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along axis 0: out[...] = a[idx[...]]; idx may be any int shape."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ContractError("take: index out of range")
    data = a.data[idx]

    def bwd(out):
        if a.requires_grad:
            # The grad must be C-contiguous so that the reshape below is a view:
            # on a grad laid out like a transposed input it would be a copy, and
            # the scatter would land in the copy.
            a.grad = np.zeros(a.data.shape) if a.grad is None else np.ascontiguousarray(a.grad)
            rows = out.grad.reshape(idx.size, -1)
            _check_finite("backward of 'take'", rows)
            kernels.scatter_add_rows(a.grad.reshape(a.data.shape[0], -1), idx.ravel(), rows)

    return _result(data, (a,), bwd, "take")


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """table (V, d), ids (..., L) int -> (..., L, d). Duplicate ids accumulate gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 0:
        raise ContractError("embedding_lookup: ids must have at least one axis")
    return take(table, ids)


def scatter_probs(attn: Tensor, src_ids: np.ndarray, vocab_size: int) -> Tensor:
    """attn (..., T, L) -> (..., T, V) with out[..., t, src_ids[..., j]] += attn[..., t, j].

    src_ids (..., L) has attn's leading axes: each batch row scatters onto
    its own source tokens. Duplicate source tokens accumulate; row sums are
    preserved.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    shape = attn.data.shape
    if len(shape) < 2 or src_ids.shape != shape[:-2] + shape[-1:]:
        raise ContractError("scatter_probs: attn (..., T, L) and src_ids (..., L) required")
    *lead, T, L = shape
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= vocab_size):
        raise ContractError("scatter_probs: source id out of vocab range")
    n = math.prod(lead)
    data = np.zeros((*lead, T, vocab_size))
    for rows, cols, w in zip(data.reshape(n, T, vocab_size), src_ids.reshape(n, L),
                             attn.data.reshape(n, T, L)):
        kernels.scatter_add_cols(rows, cols, w)

    def bwd(out):
        gather = np.broadcast_to(src_ids[..., None, :], attn.data.shape)
        _acc(attn, np.take_along_axis(out.grad, gather, axis=-1), "scatter_probs")

    return _result(data, (attn,), bwd, "scatter_probs")


# -----------------------------------------------------------------------------
# fused neural-net ops
# -----------------------------------------------------------------------------


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Masked softmax over the last axis.

    mask is a boolean array broadcastable to x.shape; masked entries come out
    exactly 0 and each row must keep at least one valid entry. mask=None skips
    the masking pass; its result is bit-identical to an all-valid mask.
    """
    if mask is None:
        if x.data.shape[-1] == 0:
            raise DegenerateInputError("softmax: fully masked row")
        xm = x.data
    else:
        m_arr = np.broadcast_to(np.asarray(mask, dtype=bool), x.data.shape)
        if not m_arr.any(axis=-1).all():
            raise DegenerateInputError("softmax: fully masked row")
        xm = np.where(m_arr, x.data, -np.inf)
    row_max = xm.max(axis=-1, keepdims=True)
    e = np.exp(xm - row_max)  # masked slots: exp(-inf) = 0 exactly
    denom = e.sum(axis=-1, keepdims=True)
    data = e / denom

    def bwd(out):
        g = out.grad
        dot = (g * data).sum(axis=-1, keepdims=True)
        _acc(x, data * (g - dot), "softmax")

    return _result(data, (x,), bwd, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractError("layer_norm: gain/bias must have shape (d,)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = gain.data * xhat + bias.data

    def bwd(out):
        g = out.grad
        _acc(gain, (g * xhat).reshape(-1, d).sum(axis=0), "layer_norm")
        _acc(bias, g.reshape(-1, d).sum(axis=0), "layer_norm")
        if x.requires_grad:
            gx_hat = g * gain.data
            dvar = (gx_hat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            dmu = -(gx_hat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(
                axis=-1, keepdims=True
            )
            _acc(x, gx_hat * inv + dvar * 2.0 * xc / d + dmu / d, "layer_norm")

    return _result(data, (x, gain, bias), bwd, "layer_norm")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x (..., din) @ weight (din, dout) + bias (dout,)."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout: a seeded generator is required in training mode")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    data = x.data * keep

    def bwd(out):
        _acc(x, out.grad * keep, "dropout")

    return _result(data, (x,), bwd, "dropout")


# -----------------------------------------------------------------------------
# losses
# -----------------------------------------------------------------------------


def _smoothing_weights(target_ids: np.ndarray, vocab: int, smoothing: float, pad_id: int):
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if target_ids.ndim != 1:
        raise ContractError("loss: target ids must be 1-D")
    if not 0.0 <= smoothing < 1.0:
        raise ContractError(f"loss: smoothing must be in [0, 1), got {smoothing}")
    if target_ids.size and (target_ids.min() < 0 or target_ids.max() >= vocab):
        raise ContractError("loss: target id out of vocab range")
    w = (target_ids != pad_id).astype(np.float64)
    return target_ids, w, float(w.sum())


def label_smoothed_cross_entropy(
    logits: Tensor, target_ids: np.ndarray, smoothing: float, pad_id: int
) -> Tensor:
    """Mean smoothed CE over non-pad positions; logits (T, V).

    Target distribution is (1-smoothing)*one_hot + smoothing/V uniform.
    """
    T, V = logits.data.shape
    ids, w, count = _smoothing_weights(target_ids, V, smoothing, pad_id)
    if ids.shape != (T,):
        raise ContractError("loss: targets must align with logits rows")
    if count == 0.0:
        return tensor_sum(scale(logits, 0.0))
    x = logits.data
    row_max = x.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(x - row_max).sum(axis=-1, keepdims=True)) + row_max
    logp = x - logz
    per_pos = -((1.0 - smoothing) * logp[np.arange(T), ids] + (smoothing / V) * logp.sum(axis=-1))
    data = np.array((per_pos * w).sum() / count)

    def bwd(out):
        p = np.exp(logp)
        q = np.full_like(p, smoothing / V)
        q[np.arange(T), ids] += 1.0 - smoothing
        _acc(logits, (p - q) * (w / count)[:, None] * out.grad, "label_smoothed_cross_entropy")

    return _result(data, (logits,), bwd, "label_smoothed_cross_entropy")


def label_smoothed_nll(
    probs: Tensor,
    target_ids: np.ndarray,
    smoothing: float,
    pad_id: int,
    floor: float = 1e-10,
) -> Tensor:
    """Smoothed NLL on an already-normalized distribution (the copy-mixture path).

    Probabilities are clamped at `floor` before the log so a saturated gate
    cannot produce -inf; gradient is zero where the clamp is active.
    """
    T, V = probs.data.shape
    ids, w, count = _smoothing_weights(target_ids, V, smoothing, pad_id)
    if ids.shape != (T,):
        raise ContractError("loss: targets must align with probability rows")
    if count == 0.0:
        return tensor_sum(scale(probs, 0.0))
    p = np.maximum(probs.data, floor)
    logp = np.log(p)
    per_pos = -((1.0 - smoothing) * logp[np.arange(T), ids] + (smoothing / V) * logp.sum(axis=-1))
    data = np.array((per_pos * w).sum() / count)

    def bwd(out):
        q = np.full((T, V), smoothing / V)
        q[np.arange(T), ids] += 1.0 - smoothing
        g = np.where(probs.data > floor, -q / p, 0.0)
        _acc(probs, g * (w / count)[:, None] * out.grad, "label_smoothed_nll")

    return _result(data, (probs,), bwd, "label_smoothed_nll")


# -----------------------------------------------------------------------------
# reverse pass
# -----------------------------------------------------------------------------


def _consumed() -> None:
    """The closure left on a node whose graph `backward` has already run."""


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires-grad tensor reachable from a scalar loss.

    Consumes the graph: afterwards no node in it keeps its closure, so the
    graph holds no reference cycle, and another `backward` through any of
    its nodes raises. Parents stay: the graph lives as long as the loss
    does, and is freed when the caller drops the loss. Freeing it here,
    before the caller's optimizer update, makes the allocator hand its pages
    back to the system, and the next step faults them in again.
    """
    if loss.data.size != 1:
        raise ContractError("backward: loss must be a scalar")
    if not loss.requires_grad:
        raise ContractError("backward: loss does not depend on any parameter")

    # iterative post-order over requires-grad subgraph
    order: list[Tensor] = []
    state: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack[-1]
        st = state.get(id(node), 0)
        if st == 0:
            state[id(node)] = 1
            for p in node._parents:
                if p.requires_grad and state.get(id(p), 0) == 0:
                    stack.append(p)
        else:
            stack.pop()
            if st == 1:
                state[id(node)] = 2
                order.append(node)

    if any(node._backward is _consumed for node in order):
        raise ContractError("backward: the graph was already consumed by an earlier backward")
    loss.grad = np.ones_like(loss.data)
    try:
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
    finally:
        for node in order:
            if node._backward is not None:
                node._backward = _consumed
