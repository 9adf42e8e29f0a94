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

Both cores, same bits. `_parallel` runs independent whole products (a
weight gradient beside an input gradient, keys beside values, two head
groups, two halves of Adam's arena) on the calling thread and one worker
thread. It never splits a sum, so every value is made by the numpy calls of
the serial code and the bits do not depend on the core count.
"""

from __future__ import annotations

import contextlib
import math
import os
import queue
import threading
from collections.abc import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, NonFiniteError


# Multiply-adds from which `_parallel` hands work to the worker thread. A
# gate-sized op stays below it (its largest, an affine backward, is ~5M), so
# it runs inline; an L=512 projection or attention is far above it.
PARALLEL_WORK = 1 << 24
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_workers: dict[int, queue.SimpleQueue] = {}  # pid -> the task queue of its worker thread


def _use_worker(work: float) -> bool:
    return work >= PARALLEL_WORK and _CPUS > 1


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        done, errors, err, call = tasks.get()
        try:
            with np.errstate(**err):
                call()
        except BaseException as e:  # raised on the caller by `_parallel`
            errors.append(e)
        del errors, call  # a finished task's arrays are not kept past its signal
        done.release()


def _submit(call: Callable, errors: list) -> threading.Lock:
    """Queue `call` for the process's worker thread, started on first use; the
    returned lock is released once it has run, an error it raises appended to
    `errors`. A forked child has a pid of its own, so it starts its own worker:
    its parent's thread does not exist in it. The call runs under the
    caller's `np.errstate`, which is per thread (numpy 1.x) or per context
    (2.x) and so not the worker's own."""
    pid = os.getpid()
    tasks = _workers.get(pid)
    if tasks is None:
        fresh: queue.SimpleQueue = queue.SimpleQueue()
        tasks = _workers.setdefault(pid, fresh)  # atomic: of two first callers, one starts it
        if tasks is fresh:
            try:
                threading.Thread(target=_serve, args=(tasks,), name="convsum-worker",
                                 daemon=True).start()
            except BaseException:
                del _workers[pid]  # no thread would serve the queue
                raise
    done = threading.Lock()
    done.acquire()
    tasks.put((done, errors, np.geterr(), call))
    return done


def _parallel(calls: Sequence[Callable], work: float) -> None:
    """Run independent zero-argument calls.

    The calls use numpy only: they build no node, read no `_mode`, check
    nothing, and write their results into arrays the caller allocated. With
    `work` of at least `PARALLEL_WORK` multiply-adds and two or more CPUs to
    run on, the first runs on the calling thread and the rest on the worker
    thread; otherwise all run here, in order. If the first raises, the
    others finish before the error propagates; an error of another is
    raised here.
    """
    if len(calls) < 2 or not _use_worker(work):
        for call in calls:
            call()
        return
    errors: list[BaseException] = []
    pending = [_submit(call, errors) for call in calls[1:]]
    try:
        calls[0]()
    finally:
        for done in pending:
            done.acquire()
    if errors:
        raise errors[0]


def _halves(n: int, work: float) -> list[slice]:
    """range(n) in two halves when `_parallel` would use the worker for
    `work`, else whole: a caller that splits a batch of products splits it
    only where that pays."""
    if n < 2 or not _use_worker(work):
        return [slice(0, n)]
    return [slice(0, (n + 1) // 2), slice((n + 1) // 2, n)]


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

    If one of them is not finite, or the deferred run raises what a NaN can
    cause (`NonFiniteError`, or `DegenerateInputError` as from a fully masked
    softmax row), `reset()` undoes what the step consumed (a generator's
    draws, written gradients) and the step runs again with per-op checks on,
    raising what it raises without deferral: `NonFiniteError` naming the
    first op that made a non-finite value. Other errors propagate from the
    deferred run, which ignores numpy's floating-point warnings that a NaN
    flowing through later ops would print; the replay runs under the
    caller's settings. Inside another deferred step, `step()` simply runs.
    """
    if not _mode.per_op:
        return step()
    _mode.per_op = False
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            result = step()
        ok = all(_finite(a) for a in outputs(result))
    except (NonFiniteError, DegenerateInputError):
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
# elementwise and shape ops
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


# -----------------------------------------------------------------------------
# fused neural-net ops
# -----------------------------------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray, pe: np.ndarray) -> Tensor:
    """Rows of table (V, d) at ids (..., N), times sqrt(d), plus position rows
    pe (N or 1, d): (..., N, d), the Transformer's input layer as one op.
    Duplicate ids accumulate gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 0 or table.data.ndim != 2:
        raise ContractError("embedding: table (V, d) and ids with at least one axis required")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ContractError("embedding: id out of range")
    c = math.sqrt(table.data.shape[1])
    data = table.data[ids]
    data *= c
    try:
        data += pe
    except ValueError as e:
        raise ContractError(f"embedding: positions {np.shape(pe)} do not fit {data.shape}") from e

    def bwd(out):
        rows = (out.grad * c).reshape(ids.size, -1)
        if _mode.per_op:
            _check_finite("backward of 'embedding'", rows)
        if table.grad is None:  # scatter into zeros: the arena's buffer if it has one
            table.grad = np.empty(table.data.shape) if table._grad_buf is None else table._grad_buf
            table.grad.fill(0.0)
        # In place whatever the grad's layout (one laid out like a transposed
        # input is not C-contiguous): the table is 2-D, so nothing is reshaped.
        kernels.scatter_add_rows(table.grad, ids.ravel(), rows)

    return _result(data, (table,), bwd, "embedding")


def _softmax_fwd(s: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of scores s plus an optional additive bias
    (0 keeps a slot, -inf masks it; broadcast onto s), in place: s is the
    caller's score buffer, overwritten with the weights and returned. Masked
    slots come out exactly 0; a row left with no slot raises. The forward
    core of every softmax and attention op; `_softmax_bwd` is its backward.
    """
    if s.shape[-1] == 0:
        raise DegenerateInputError("softmax: fully masked row")
    if bias is not None:
        s += bias
    row_max = np.maximum.reduce(s, axis=-1, keepdims=True)
    if bias is not None and np.minimum.reduce(row_max, axis=None) == -np.inf:
        raise DegenerateInputError("softmax: fully masked row")
    s -= row_max
    np.exp(s, out=s)  # masked slots: exp(-inf) = 0 exactly
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def _softmax_bwd(w: np.ndarray, g: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the scores of softmax weights w, given the weights' gradient
    g, which it overwrites and returns: w * (g - (g * w).sum(-1)) with no
    full-size temporary past the sum (made in `scratch` if given), bitwise
    that expression (products commute)."""
    dot = np.add.reduce(np.multiply(g, w, out=scratch), axis=-1, keepdims=True)
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
    data = _softmax_fwd(x.data.copy(), bias)

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


def _affine_bwd(x: np.ndarray, weight: Tensor, bias: Tensor, g: np.ndarray, want_x: bool,
                op: str) -> np.ndarray | None:
    """Backward of x (..., din) @ weight (din, dout) + bias (dout,) given the
    output's gradient g: accumulates the weight gradient, as one 2-D GEMM over
    the flattened rows, and the bias gradient, each only if wanted; returns
    x's gradient if `want_x`, else None. The two GEMMs are independent, so
    they may run on both cores (`_parallel`)."""
    din, dout = weight.data.shape
    rows, calls = g.reshape(-1, dout), []
    if weight.requires_grad:
        gw, xt = np.empty((din, dout)), x.reshape(-1, din).T
        calls.append(lambda: np.matmul(xt, rows, out=gw))
    if want_x:
        gx = np.empty((*g.shape[:-1], din))
        calls.append(lambda: np.matmul(g, weight.data.T, out=gx))
    _parallel(calls, len(calls) * g.size * din)
    if weight.requires_grad:
        _acc(weight, gw, op)
    if bias.requires_grad:
        _acc(bias, rows.sum(axis=0), op)
    return gx if want_x else None


def _linear_fits(x: Tensor, weight: Tensor, bias: Tensor) -> None:
    din, dout = weight.data.shape if weight.data.ndim == 2 else (None, None)
    if x.data.shape[-1:] != (din,) or bias.data.shape != (dout,):
        raise ContractError(f"linear: incompatible shapes {x.shape}, {weight.shape}, {bias.shape}")


def _linear_node(x: Tensor, weight: Tensor, bias: Tensor, data: np.ndarray) -> Tensor:
    """The `linear` node whose forward made `data` = x @ weight + bias."""
    def bwd(out):
        gx = _affine_bwd(x.data, weight, bias, out.grad, x.requires_grad, "linear")
        if gx is not None:
            _acc(x, gx, "linear")

    return _result(data, (x, weight, bias), bwd, "linear")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x (..., din) @ weight (din, dout) + bias (dout,), as one op.

    The forward makes the same numpy calls as `add(matmul(x, weight), bias)`,
    so its values are bitwise theirs. The backward skips inputs that want no
    gradient.
    """
    _linear_fits(x, weight, bias)
    data = np.matmul(x.data, weight.data)
    data += bias.data
    return _linear_node(x, weight, bias, data)


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
    h = np.matmul(x.data, w1.data)
    h += b1.data
    if _mode.per_op:  # the ReLU would hide a -inf pre-activation
        _check_finite("feed_forward", h)
    np.maximum(h, 0.0, out=h)
    data = np.matmul(h, w2.data)
    data += b2.data

    def bwd(out):
        first = x.requires_grad or w1.requires_grad or b1.requires_grad
        gh = _affine_bwd(h, w2, b2, out.grad, first, "feed_forward")
        if gh is None:
            return
        gh *= h > 0.0
        gx = _affine_bwd(x.data, w1, b1, gh, x.requires_grad, "feed_forward")
        if gx is not None:
            _acc(x, gx, "feed_forward")

    return _result(data, (x, w1, b1, w2, b2), bwd, "feed_forward")


def copy_head(states: Tensor, memory: Tensor, src_ids: np.ndarray, vocab_size: int,
              wq: Tensor, bq: Tensor, wg: Tensor, bg: Tensor, wgen: Tensor, bgen: Tensor,
              key_mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """The pointer-generator output layer as one op: (mixture node, gate,
    attention), the last two read-only and without gradient.

    States x (..., T, d) attend over memory (..., L, d) with the query
    x @ wq + bq, scaled by d**-0.5 and masked by key_mask (..., L). The
    attention scattered onto src_ids (..., L) (duplicates accumulate) is the
    copy distribution; the gate sigmoid([x, context] @ wg + bg) (..., T, 1)
    weighs it against softmax(x @ wgen + bgen), over (..., T, vocab_size).
    The numpy calls, and the order of the gradients summed into x and memory,
    are those of the composed ops, so values and gradients are bitwise
    theirs; of the (..., T, V) arrays only the two distributions are saved.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    x, m = states.data, memory.data
    if (x.ndim < 2 or m.ndim != x.ndim or m.shape[:-2] != x.shape[:-2]
            or m.shape[-1] != x.shape[-1] or src_ids.shape != m.shape[:-1]):
        raise ContractError(f"copy_head: states {states.shape}, memory {memory.shape} and "
                            f"source ids {src_ids.shape} do not fit")
    (*lead, T, d), L = x.shape, m.shape[-2]
    if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= vocab_size):
        raise ContractError("copy_head: source id out of vocab range")
    c = d ** -0.5
    q = np.matmul(x, wq.data)
    q += bq.data
    scores = np.matmul(q, np.swapaxes(m, -1, -2))
    scores *= c
    bias = None if key_mask is None else np.where(key_mask[..., None, :], 0.0, -np.inf)
    attn = _softmax_fwd(scores, bias)
    cat = np.concatenate([x, np.matmul(attn, m)], axis=-1)
    logit = np.matmul(cat, wg.data)
    logit += bg.data
    e = np.exp(-np.abs(logit))  # split by sign for an overflow-free exp
    gate = np.where(logit >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    n = math.prod(lead)
    p_copy = np.zeros((*lead, T, vocab_size))
    for rows, cols, w in zip(p_copy.reshape(n, T, vocab_size), src_ids.reshape(n, L),
                             attn.reshape(n, T, L)):
        kernels.scatter_add_cols(rows, cols, w)
    logits = np.matmul(x, wgen.data)
    logits += bgen.data
    if _mode.per_op:  # the sigmoid would hide an infinite logit, the softmax make it NaN
        for a in (logit, logits):
            _check_finite("copy_head", a)
    p_soft = _softmax_fwd(logits)
    one_minus = 1.0 - gate
    data = gate * p_copy
    data += one_minus * p_soft
    gate.flags.writeable = attn.flags.writeable = False

    def bwd(out):
        g = out.grad
        g_logit = np.add.reduce(g * p_copy, axis=-1, keepdims=True)
        g_logit -= np.add.reduce(g * p_soft, axis=-1, keepdims=True)
        g_logit *= gate
        g_logit *= one_minus
        g_cat = _affine_bwd(cat, wg, bg, g_logit, True, "copy_head")
        gx, g_ctx = g_cat[..., :d], np.ascontiguousarray(g_cat[..., d:])
        g_attn = np.take_along_axis(g * gate, np.broadcast_to(src_ids[..., None, :], attn.shape),
                                    axis=-1)
        g_attn += np.matmul(g_ctx, np.swapaxes(m, -1, -2))
        gm = np.matmul(np.swapaxes(attn, -1, -2), g_ctx)
        g_scores = _softmax_bwd(attn, g_attn)
        g_scores *= c
        gm += np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
        gx += _affine_bwd(x, wq, bq, np.matmul(g_scores, m), True, "copy_head")
        gx += _affine_bwd(x, wgen, bgen, _softmax_bwd(p_soft, g * one_minus), True, "copy_head")
        _acc(memory, gm, "copy_head")
        _acc(states, gx, "copy_head")

    node = _result(data, (states, memory, wq, bq, wg, bg, wgen, bgen), bwd, "copy_head")
    return node, gate, attn


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
