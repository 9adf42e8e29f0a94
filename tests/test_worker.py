"""The worker thread of `autodiff._parallel`: which call sites hand it work,
and what it does with an error, with numpy's error state and across a fork.

`_CPUS` is forced to 2 where a test is about the worker itself, so those run
on a one-CPU machine too; the call-site test keeps the machine's count, so
on one CPU it checks that nothing is handed over."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from _helpers import gate_model
from convsum import attention, optim
from convsum import autodiff as ad
from convsum.attention import _attention
from convsum.errors import DegenerateInputError
from convsum.optim import OptimizerState

SITES = (ad._affine_bwd, attention.project_kv, attention._attention, optim.adam_noam_step)


def _codes(code) -> set:
    """A function's code and the code of every function nested in it."""
    nested = (c for c in code.co_consts if isinstance(c, types.CodeType))
    return {code}.union(*map(_codes, nested))


@pytest.fixture
def submitted(monkeypatch):
    """The call site (of SITES, by name) of each call handed to the worker
    thread: the innermost frame on the stack that runs one of them."""
    sites, submit = [], ad._submit
    codes = [(site.__name__, _codes(site.__code__)) for site in SITES]

    def spy(call, errors):
        frame = sys._getframe(1)
        while not any(frame.f_code in c for _, c in codes):
            frame = frame.f_back
        sites.append(next(name for name, c in codes if frame.f_code in c))
        return submit(call, errors)

    monkeypatch.setattr(ad, "_submit", spy)
    return sites


@pytest.fixture
def worker(monkeypatch):
    """Every split goes to the worker thread, whatever the CPU count."""
    monkeypatch.setattr(ad, "PARALLEL_WORK", 0)
    monkeypatch.setattr(ad, "_CPUS", 2)


def test_gate_steps_hand_the_worker_nothing(submitted):
    model, batch = gate_model()
    started, threads = dict(ad._workers), threading.active_count()
    model.train_step(batch, OptimizerState(d_model=64, warmup=10))
    src = batch[0][0]
    state = model.start_decode(model.encode(src), src)
    state.step([model.vocab.bos_id] * 4)
    assert submitted == []
    assert ad._workers == started and threading.active_count() == threads


def test_a_lowered_threshold_hands_work_from_each_call_site(submitted, monkeypatch):
    monkeypatch.setattr(ad, "PARALLEL_WORK", 0)
    model, batch = gate_model()
    model.train_step(batch, OptimizerState(d_model=64, warmup=10))
    assert set(submitted) == ({site.__name__ for site in SITES} if ad._CPUS > 1 else set())


def test_train_steps_on_the_worker_are_bitwise_the_inline_ones(monkeypatch):
    monkeypatch.setattr(ad, "_CPUS", 2)
    states = []
    for work in (math.inf, 0):
        monkeypatch.setattr(ad, "PARALLEL_WORK", work)
        model, batch = gate_model()
        opt = OptimizerState(d_model=64, warmup=10)
        for _ in range(2):
            model.train_step(batch, opt)
        states.append((model.params.theta, opt.m, opt.v))
    for inline, on_worker in zip(*states):
        assert np.array_equal(inline, on_worker)


def test_attention_backward_on_the_worker_peaks_no_higher_than_inline(monkeypatch):
    monkeypatch.setattr(ad, "_CPUS", 2)
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=(1, 128, 128)) for _ in range(3)]
    peaks = []
    for work in (math.inf, 0):
        monkeypatch.setattr(ad, "PARALLEL_WORK", work)
        q, k, v = (ad.parameter(a) for a in arrays)
        out, _ = _attention(q, k, v, 2)
        out.grad = np.ones(out.shape)
        tracemalloc.start()
        try:
            out._backward()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # each thread's reductions may hold a numpy iteration buffer of their own
    assert peaks[1] <= peaks[0] + 8 * np.getbufsize()


def _masked_row_attention(head: int):
    """Attention over 4 heads whose query 1 has no key in `head`."""
    rng = np.random.default_rng(0)
    q, k, v = (ad.Tensor(rng.normal(size=(4, 8))) for _ in range(3))
    bias = np.zeros((4, 4, 4))
    bias[head, 1] = -np.inf
    return lambda: _attention(q, k, v, 4, bias)


def test_an_error_of_the_worker_is_raised_on_the_caller(worker, submitted):
    with pytest.raises(DegenerateInputError, match="fully masked row"):
        _masked_row_attention(head=3)()  # heads 2 and 3 are the worker's
    assert submitted


def test_an_op_whose_inline_half_raises_leaves_no_task_running(worker, monkeypatch):
    submitted, finished, submit = [], [], ad._submit

    def slow(call, errors):  # the worker's half is still running when the inline half raises
        def late():
            time.sleep(0.2)
            call()
            finished.append(call)
        submitted.append(call)
        return submit(late, errors)

    monkeypatch.setattr(ad, "_submit", slow)
    with pytest.raises(DegenerateInputError):
        _masked_row_attention(head=0)()  # heads 0 and 1 run on the calling thread
    assert submitted and finished == submitted


def test_the_worker_runs_in_the_callers_numpy_error_state(worker):
    seen = []
    with np.errstate(invalid="ignore"):
        ad._parallel([lambda: None, lambda: seen.append(np.geterr()["invalid"])], 0)
    assert seen == ["ignore"]


def test_the_worker_keeps_nothing_of_a_finished_task(worker):
    buffer = np.ones(8)
    alive = weakref.ref(buffer)
    ad._parallel([lambda: None, lambda b=buffer: b.fill(2.0)], 0)  # the task holds the array
    del buffer
    assert alive() is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_trains_on_a_worker_of_its_own(worker):
    model, batch = gate_model()
    opt = OptimizerState(d_model=64, warmup=10)
    model.train_step(batch, opt)
    assert os.getpid() in ad._workers
    pid = os.fork()
    if pid == 0:  # the child: the parent's worker thread does not exist here
        code = 1
        try:
            loss, _ = model.train_step(batch, opt)
            code = 0 if math.isfinite(loss) and os.getpid() in ad._workers else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its train step")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0
