"""Dense float64 tensors with reverse-mode differentiation.

Minimal tape engine: every op builds a node holding its inputs and a backward
closure; `backward(loss)` walks the recorded graph in reverse topological
order. Under `no_grad()` ops record nothing: forward-only work such as
decoding builds no graph and leaves no reference cycles behind.

Finite checks. By default every forward op's output and every backward
contribution is checked for NaN/Inf as it is made, and the first one that is
not finite raises `NonFiniteError` naming its op (fail-fast). A step run
through `checked_step` defers them: its ops check nothing, and the step's
outputs are checked once (a train step checks its loss, and Adam's pre-pass
its gradients; a beam step's probabilities and new cached keys/values are
checked at its end). Only if one of them is not finite is the step replayed
with per-op checks on, so the error names the same op it would have named
without deferral; a step that succeeds pays one check per output instead of
one per op. The check mode is per thread.

A node's closure refers back to the node, so a recorded graph is a web of
reference cycles. `backward` breaks them as it walks: once a node's closure
has run, the node drops its closure, its parents and its gradient, so what
it saved is freed by reference counting there and then, and a train step
holds only what the rest of its backward pass still reads. Only leaves
(parameters) and the loss keep `.grad`. A consumed graph cannot be run
again; `backward` through any of its nodes raises.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections.abc import Callable

import numpy as np

from . import kernels
from .errors import ContractError, ConvsumError, DegenerateInputError, NonFiniteError


def _finite(arr: np.ndarray) -> bool:
    # One-pass check: any NaN/Inf propagates into the sum. (A sum overflowing
    # on all-finite entries would need ~1e308-scale values, which no healthy
    # desk-scale run produces.)
    return math.isfinite(np.add.reduce(arr, axis=None))


def _check_finite(op: str, arr: np.ndarray) -> None:
    if not _finite(arr):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


class Tensor:
    """n-d float64 array with an optional same-shape gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op", "_grad_buf",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        # Where a parameter's gradient lives (its view of an arena's flat
        # gradient buffer, `optim.Parameters`); None: a fresh array each time.
        self._grad_buf: np.ndarray | None = None
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

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class _Mode(threading.local):
    # Per thread, so a decode on one thread cannot switch off recording or
    # per-op checks for a training step on another.
    grad = True  # ops record a graph
    per_op = True  # ops check their outputs and gradient contributions


_mode = _Mode()


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results keep no parents and no
    backward closure, and never require grad. Finite checks still run."""
    prev = _mode.grad
    _mode.grad = False
    try:
        yield
    finally:
        _mode.grad = prev


def checked_step(step: Callable, outputs: Callable = lambda result: (),
                 reset: Callable | None = None):
    """Run `step()` with per-op finite checks deferred, then check once each
    array in `outputs(result)`; returns the step's result. A step that checks
    its own outputs, raising `NonFiniteError`, needs no `outputs`.

    If one of them is not finite, or the deferred run raises a convsum error
    (a NaN can surface as, say, a fully masked softmax row), `reset()` undoes
    what the step consumed (a generator's draws, written gradients) and the
    step runs again with per-op checks on: it then raises what it raises
    without deferral, `NonFiniteError` naming the first op that made a
    non-finite value. The deferred run ignores numpy's floating-point
    warnings, which a NaN flowing through later ops would print; the replay
    runs under the caller's settings. Inside another deferred step, `step()`
    simply runs: the outer step checks.
    """
    if not _mode.per_op:
        return step()
    _mode.per_op = False
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            result = step()
        ok = all(_finite(a) for a in outputs(result))
    except ConvsumError:
        ok = False
    finally:
        _mode.per_op = True
    if ok:
        return result
    if reset is not None:
        reset()
    return step()


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
    """The op's output node. `bwd(out)` pushes out.grad into the parents; a
    recorded node keeps it bound to itself as the zero-argument `_backward`."""
    if _mode.per_op:
        _check_finite(op, data)
    # Slots filled directly: an op's data is already float64 (0-d results of
    # numpy arithmetic come back as scalars and are wrapped).
    out = object.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = out._grad_buf = out._backward = None
    out._parents = ()
    out.op = op
    out.requires_grad = False
    if _mode.grad:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = lambda: bwd(out)
                break
    return out


def _acc(node: Tensor, g: np.ndarray, op: str) -> None:
    """Accumulate a backward contribution into node.grad (only if it wants one).

    The first contribution is copied, not added to zeros: one pass instead
    of two, into the node's gradient buffer if it has one. Every op passes g
    in its input's shape.
    """
    if not node.requires_grad:
        return
    if _mode.per_op:
        _check_finite(f"backward of '{op}'", g)
    if node.grad is not None:
        node.grad += g
    elif node._grad_buf is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node._grad_buf[...] = g
        node.grad = node._grad_buf


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
        for t in (a, b):
            if t.requires_grad:
                _acc(t, _unbroadcast(out.grad, t.data.shape), "add")

    return _result(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ContractError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def bwd(out):
        if a.requires_grad:
            _acc(a, _unbroadcast(out.grad * b.data, a.data.shape), "mul")
        if b.requires_grad:
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

    def bwd(out):
        _acc(a, np.transpose(out.grad, np.argsort(axes)), "transpose")

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

    def bwd(out):
        sl, lo = [slice(None)] * out.grad.ndim, 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            sl[axis] = slice(lo, hi)
            _acc(t, out.grad[tuple(sl)], "concat")
            lo = hi

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
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

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
            if a.grad is None and a._grad_buf is not None:  # scatter into the zeroed buffer
                a._grad_buf.fill(0.0)
                a.grad = a._grad_buf
            # The grad must be C-contiguous so that the reshape below is a view:
            # on a grad laid out like a transposed input it would be a copy, and
            # the scatter would land in the copy.
            a.grad = np.zeros(a.data.shape) if a.grad is None else np.ascontiguousarray(a.grad)
            rows = out.grad.reshape(idx.size, -1)
            if _mode.per_op:
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


def _softmax_fwd(s: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of scores s plus an optional additive bias
    (0 keeps a slot, -inf masks it; broadcast onto s). Masked slots come out
    exactly 0; a row left with no slot raises. The forward core of every
    softmax and attention op; `_softmax_bwd` is its backward.
    """
    if s.shape[-1] == 0:
        raise DegenerateInputError("softmax: fully masked row")
    if bias is not None:
        s = s + bias
    row_max = np.maximum.reduce(s, axis=-1, keepdims=True)
    if bias is not None and np.minimum.reduce(row_max, axis=None) == -np.inf:
        raise DegenerateInputError("softmax: fully masked row")
    e = s - row_max
    np.exp(e, out=e)  # masked slots: exp(-inf) = 0 exactly
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_bwd(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the scores of softmax weights w, given the weights' gradient
    g, which it overwrites and returns: w * (g - (g * w).sum(-1)) with no
    full-size temporary past the sum, bitwise that expression (products commute)."""
    dot = np.add.reduce(g * w, axis=-1, keepdims=True)
    g -= dot
    g *= w
    return g


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Masked softmax over the last axis.

    mask is a boolean array broadcastable to x.shape; masked entries come out
    exactly 0 and each row must keep at least one valid entry. mask=None skips
    the masking pass; its result is bit-identical to an all-valid mask.
    """
    bias = None if mask is None else np.where(np.broadcast_to(mask, x.data.shape), 0.0, -np.inf)
    data = _softmax_fwd(x.data, bias)

    def bwd(out):
        _acc(x, _softmax_bwd(data, out.grad), "softmax")

    return _result(data, (x,), bwd, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6,
               residual: Tensor | None = None, keep: np.ndarray | None = None,
               rate: float = 0.0) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    With a `residual` branch, normalize x + dropout(residual) as one op, the
    branch's dropout given by its keep-mask (`dropout_mask`; None keeps all)
    and `rate`. It makes the numpy calls of layer_norm(add(x, dropout(...)))
    in their order, so values and gradients are bitwise theirs, and saves
    the bool mask, the centred input and the inverse deviation; backward
    recomputes the normalized input from them.
    """
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractError("layer_norm: gain/bias must have shape (d,)")
    s = x.data
    if residual is not None:
        if residual.data.shape != x.data.shape:
            raise ContractError(f"layer_norm: residual {residual.shape} must match input {x.shape}")
        s = s + (residual.data if keep is None else residual.data * (keep / (1.0 - rate)))
    # Mean, variance and the affine map, in place wherever a temporary is not
    # read again: bitwise the out-of-place expressions (products commute exactly).
    mu = np.add.reduce(s, axis=-1, keepdims=True)
    mu /= d
    xc = s - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    data = xc * inv
    data *= gain.data
    data += bias.data

    def bwd(out):
        g = out.grad
        _acc(gain, (g * (xc * inv)).reshape(-1, d).sum(axis=0), "layer_norm")
        _acc(bias, g.reshape(-1, d).sum(axis=0), "layer_norm")
        if x.requires_grad or (residual is not None and residual.requires_grad):
            gx_hat = g * gain.data
            dvar = (gx_hat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            dmu = -(gx_hat * inv).sum(axis=-1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(
                axis=-1, keepdims=True
            )
            gs = gx_hat * inv + dvar * 2.0 * xc / d + dmu / d
            _acc(x, gs, "layer_norm")
            if residual is not None:
                _acc(residual, gs if keep is None else gs * (keep / (1.0 - rate)), "layer_norm")

    parents = (x, gain, bias) if residual is None else (x, residual, gain, bias)
    return _result(data, parents, bwd, "layer_norm")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x (..., din) @ weight (din, dout) + bias (dout,), as one op.

    The forward makes the same numpy calls as `add(matmul(x, weight), bias)`,
    so its values are bitwise theirs. The backward skips inputs that want no
    gradient, and takes the weight gradient as one 2-D GEMM over the
    flattened rows.
    """
    din, dout = weight.data.shape if weight.data.ndim == 2 else (None, None)
    if x.data.shape[-1:] != (din,) or (bias is not None and bias.data.shape != (dout,)):
        raise ContractError(f"linear: incompatible shapes {x.shape}, {weight.shape}, "
                            f"{None if bias is None else bias.shape}")
    data = np.matmul(x.data, weight.data)
    if bias is not None:
        data += bias.data

    def bwd(out):
        g = out.grad
        if x.requires_grad:
            _acc(x, np.matmul(g, weight.data.T), "linear")
        if weight.requires_grad:
            rows = x.data.reshape(-1, din)
            _acc(weight, np.matmul(rows.T, g.reshape(-1, dout)), "linear")
        if bias is not None and bias.requires_grad:
            _acc(bias, g.reshape(-1, dout).sum(axis=0), "linear")

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(data, parents, bwd, "linear")


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(relu(linear(x, w1, b1)), w2, b2) as one op.

    The ReLU runs in place on the first GEMM's output h, and the op saves
    only x and h: h > 0 exactly where the pre-activation is, so values and
    gradients are bitwise those of the three ops. Like `linear`, the
    backward skips the GEMMs of inputs that want no gradient.
    """
    din, dff = w1.data.shape if w1.data.ndim == 2 else (None, None)
    if (x.data.shape[-1:] != (din,) or b1.data.shape != (dff,)
            or w2.data.ndim != 2 or w2.data.shape[0] != dff or b2.data.shape != w2.data.shape[1:]):
        raise ContractError(f"feed_forward: incompatible shapes {x.shape}, {w1.shape}, "
                            f"{b1.shape}, {w2.shape}, {b2.shape}")
    dout = w2.data.shape[1]
    h = np.matmul(x.data, w1.data)
    h += b1.data
    if _mode.per_op:  # the ReLU would hide a -inf pre-activation
        _check_finite("feed_forward", h)
    np.maximum(h, 0.0, out=h)
    data = np.matmul(h, w2.data)
    data += b2.data

    def bwd(out):
        g = out.grad
        if w2.requires_grad:
            _acc(w2, np.matmul(h.reshape(-1, dff).T, g.reshape(-1, dout)), "feed_forward")
        if b2.requires_grad:
            _acc(b2, g.reshape(-1, dout).sum(axis=0), "feed_forward")
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        gh = np.matmul(g, w2.data.T)
        gh *= h > 0.0
        if x.requires_grad:
            _acc(x, np.matmul(gh, w1.data.T), "feed_forward")
        if w1.requires_grad:
            _acc(w1, np.matmul(x.data.reshape(-1, din).T, gh.reshape(-1, dff)), "feed_forward")
        if b1.requires_grad:
            _acc(b1, gh.reshape(-1, dff).sum(axis=0), "feed_forward")

    return _result(data, (x, w1, b1, w2, b2), bwd, "feed_forward")


def dropout_mask(rate: float, rng: np.random.Generator | None, shape: tuple[int, ...],
                 training: bool = True) -> np.ndarray | None:
    """Keep-mask of inverted dropout, True where a unit survives, drawn from
    rng; None when nothing drops (not training, or rate 0)."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ContractError("dropout: a seeded generator is required in training mode")
    return rng.random(shape) >= rate


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    keep = dropout_mask(rate, rng, x.data.shape, training)
    if keep is None:
        return x
    data = x.data * (keep / (1.0 - rate))

    def bwd(out):
        _acc(x, out.grad * (keep / (1.0 - rate)), "dropout")

    return _result(data, (x,), bwd, "dropout")


# -----------------------------------------------------------------------------
# losses
# -----------------------------------------------------------------------------


def _smoothed_loss(logp: np.ndarray, x: Tensor, target_ids: np.ndarray, smoothing: float,
                   pad_id: int, grad, op: str) -> Tensor:
    """Mean smoothed loss over the non-pad positions of x's log-probabilities
    logp (T, V), against (1-smoothing)*one_hot + smoothing/V uniform. `grad(q)`
    is the op's gradient w.r.t. x per position for that target q. An all-pad
    target weighs every position 0, so its loss and gradient are 0."""
    T, V = logp.shape
    ids = np.asarray(target_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ContractError("loss: target ids must be 1-D")
    if not 0.0 <= smoothing < 1.0:
        raise ContractError(f"loss: smoothing must be in [0, 1), got {smoothing}")
    if ids.size and (ids.min() < 0 or ids.max() >= V):
        raise ContractError("loss: target id out of vocab range")
    if ids.shape != (T,):
        rows = "logits" if op == "label_smoothed_cross_entropy" else "probability"
        raise ContractError(f"loss: targets must align with {rows} rows")
    w = (ids != pad_id).astype(np.float64)
    count = max(float(w.sum()), 1.0)
    per_pos = -((1.0 - smoothing) * logp[np.arange(T), ids] + (smoothing / V) * logp.sum(axis=-1))
    data = np.array((per_pos * w).sum() / count)

    def bwd(out):
        q = np.full((T, V), smoothing / V)
        q[np.arange(T), ids] += 1.0 - smoothing
        _acc(x, grad(q) * (w / count)[:, None] * out.grad, op)

    return _result(data, (x,), bwd, op)


def label_smoothed_cross_entropy(
    logits: Tensor, target_ids: np.ndarray, smoothing: float, pad_id: int
) -> Tensor:
    """Mean smoothed CE over non-pad positions; logits (T, V)."""
    x = logits.data
    row_max = x.max(axis=-1, keepdims=True)
    logp = x - (np.log(np.exp(x - row_max).sum(axis=-1, keepdims=True)) + row_max)
    return _smoothed_loss(logp, logits, target_ids, smoothing, pad_id,
                          lambda q: np.exp(logp) - q, "label_smoothed_cross_entropy")


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
    p = np.maximum(probs.data, floor)
    return _smoothed_loss(np.log(p), probs, target_ids, smoothing, pad_id,
                          lambda q: np.where(probs.data > floor, -q / p, 0.0),
                          "label_smoothed_nll")


# -----------------------------------------------------------------------------
# reverse pass
# -----------------------------------------------------------------------------


def _consumed() -> None:
    """The closure left on a node whose graph `backward` has already run."""


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires-grad leaf reachable from a scalar loss.

    Frees the graph as it goes: once a node's closure has run, the node
    drops its closure, its parents and (unless it is the loss) its gradient,
    and `backward` drops the node. Another `backward` through any node of a
    consumed graph raises.
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
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf
                continue
            run, node._backward = node._backward, _consumed
            run()
            node._parents = ()
            if node is not loss:
                node.grad = None
    finally:
        for node in order:
            if node._backward is not None:
                node._backward = _consumed
