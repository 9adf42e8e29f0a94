"""Spans around calls into convsum's public functions, installed from outside
the package by replacing module and class attributes for the length of a
measured phase.

A span is `[name, start, end, parent index, group]`; the group is the index of
the workload operation (train step, decoded doc, scored doc) that was running.
Spans stay in memory until the run ends. `ad.backward` runs every layer's
closures in one call, so the wrappers also replace the backward closure of each
tape node a layer call creates with a timed one: per-layer backward time then
shows up as child spans of `autodiff.backward`.
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

# A span's module is the part of its name before the first dot.
MODULES = (
    "autodiff", "attention", "model", "decoding", "optim",
    "checkpoint", "rouge", "kernels", "windowing", "providers", "runtime",
)

# Spans that only frame an operation. Their self time is whatever their callee
# runs outside the wrapped functions (batch sampling, log writes, unwrapped
# autodiff ops, ...), so it counts as unattributed rather than towards a module:
# a layer left unwrapped shows as a gap in coverage.
ENVELOPES = frozenset({
    "trainer.run", "trainer.train", "trainer.evaluate_model", "model.train_step",
})


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class OpTimer:
    """Wall time of every call to the workload's operation (always on).

    `on_call(args, out)` sees each call's arguments and result, outside the
    timed interval. When a tracer is given, each call opens a new span group.
    """

    def __init__(self, patches: Patches, owner, attr: str, on_call=None, tracer=None):
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []

        def make(fn):
            def timed(*args, **kwargs):
                if tracer is not None:
                    tracer.group = len(self.samples)
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                self.intervals.append((t0, t1))
                if on_call is not None:
                    on_call(args, out)
                return out

            return timed

        patches.replace(owner, attr, make)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group = -1
        self.values: dict[str, list[float]] = defaultdict(list)
        self.gen2_collections = 0
        self.gc_collected = 0
        self._gc_span = -1

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> int:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.group]
        self.spans.append(span)  # a GC run while building `span` appends first
        idx = len(self.spans) - 1
        self.stack.append(idx)
        span[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def record(self, key: str, value: float) -> None:
        self.values[key].append(float(value))

    def wrap(self, patches: Patches, owner, attr: str, name: str, before=None, after=None):
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                idx = tracer.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after is not None:
                    after(args, kwargs, out)
                return out

            return traced

        patches.replace(owner, attr, make)

    def time_backward(self, out, inputs, name: str) -> None:
        """Replace the backward closure of every node between `out` and `inputs`."""
        stop = {id(t) for t in inputs}
        seen: set[int] = set()
        todo = [out]
        while todo:
            node = todo.pop()
            if id(node) in stop or id(node) in seen or node._backward is None:
                continue
            seen.add(id(node))
            node._backward = self._timed_closure(node._backward, name)
            todo.extend(node._parents)

    def _timed_closure(self, fn, name: str):
        def timed():
            idx = self.open(name)
            try:
                fn()
            finally:
                self.close(idx)

        return timed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            if info.get("generation") == 2:
                self.gen2_collections += 1
            self._gc_span = self.open("runtime.gc")
        else:
            self.gc_collected += info.get("collected", 0)
            if self._gc_span >= 0:
                self.close(self._gc_span)
                self._gc_span = -1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class SpanSummary:
    """Per-name call counts, total and self time; self = duration minus children.

    `covered` is the self time of every span that is not an envelope, so it
    leaves out both time outside any span and envelope self time.
    """

    def __init__(self, spans: list[list]):
        dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
        child = np.zeros(len(spans))
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        self_time = dur - child
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        for s, d, st in zip(spans, dur, self_time):
            self.count[s[0]] += 1
            self.total[s[0]] += float(d)
            self.self_time[s[0]] += float(st)
        self.unattributed = sum(self.self_time.get(name, 0.0) for name in ENVELOPES)
        self.covered = float(self_time.sum()) - self.unattributed

    def module_self(self, module: str) -> float:
        return sum(
            t for name, t in self.self_time.items()
            if name.split(".")[0] == module and name not in ENVELOPES
        )

    def mean_ms(self, name: str) -> float:
        n = self.count.get(name, 0)
        return 1e3 * self.total[name] / n if n else 0.0


def install(tracer: Tracer, patches: Patches, min_length: int | None, backward: bool) -> None:
    """Wrap the public functions of every convsum module the workloads reach.

    With `backward`, layer calls also time their backward closures; decoding
    never runs them, so it skips the graph walk that needs.

    Names are patched where callers look them up: `model` imports the attention
    functions, `adam_noam_step` and `encode_long` by name, `trainer` imports
    `beam_search`, `save_checkpoint` and `rouge_all` by name, and `autodiff`,
    `rouge` reach `kernels` through the module.
    """
    from convsum import autodiff, kernels, model, providers, rouge, trainer

    t = tracer

    # autodiff
    def count_tape(args, kwargs):
        seen: set[int] = set()
        todo, ops = [args[0]], 0
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            ops += node._backward is not None
            todo.extend(p for p in node._parents if p.requires_grad)
        t.record("tape_nodes", ops)

    t.wrap(patches, autodiff, "backward", "autodiff.backward", before=count_tape)

    def ln_after(args, kwargs, out):
        t.record("shape.layer_norm", args[0].shape[0])
        if backward:
            t.time_backward(out, args[:1], "autodiff.layer_norm.bwd")

    t.wrap(patches, autodiff, "layer_norm", "autodiff.layer_norm", after=ln_after)

    def loss_after(args, kwargs, out):
        t.record("shape.loss", args[0].shape[0])
        if backward:
            t.time_backward(out, args[:1], "autodiff.loss.bwd")

    for fn in ("label_smoothed_nll", "label_smoothed_cross_entropy"):
        t.wrap(patches, autodiff, fn, "autodiff.loss", after=loss_after)

    # attention (looked up in model)
    def conv_after(args, kwargs, out):
        result, weights = out
        w = weights.data
        t.record("shape.conv", args[0].shape[0])
        t.record("conv.weights_bytes", w.nbytes)
        t.record("conv.window_fill", np.count_nonzero(w) / w.size)
        if backward:
            t.time_backward(result, args[:1], "attention.conv.bwd")

    def full_after(args, kwargs, out):
        t.record("shape.full_q", args[0].shape[0])
        t.record("shape.full_k", args[1].shape[0])
        if backward:
            t.time_backward(out[0], args[:2], "attention.full.bwd")

    t.wrap(patches, model, "conv_multi_head_attention", "attention.conv", after=conv_after)
    t.wrap(patches, model, "multi_head_attention", "attention.full", after=full_after)

    # model
    S = model.Summarizer
    t.wrap(patches, S, "train_step", "model.train_step")
    t.wrap(patches, S, "sequence_loss", "model.sequence_loss")
    t.wrap(patches, S, "encode", "model.encode")
    t.wrap(patches, S, "pointer_generator", "model.pointer_generator")

    def decode_after(args, kwargs, out):
        prefix = len(args[3])
        probs = out[0]
        cands = int(np.count_nonzero(probs > 0.0))
        eos = args[0].vocab.eos_id
        if min_length is not None and prefix - 1 < min_length and probs[eos] > 0.0:
            cands -= 1
        t.record("decode.group", t.group)
        t.record("decode.prefix", prefix)
        t.record("decode.cands", cands)

    t.wrap(patches, S, "decode_step", "model.decode_step", after=decode_after)
    t.wrap(patches, model, "adam_noam_step", "optim.adam")

    # windowing and providers (looked up in model / on the provider class)
    t.wrap(patches, model, "encode_long", "windowing.encode_long",
           before=lambda a, k: t.record("windowing.source", len(a[0])))
    t.wrap(patches, providers.StubProvider, "context_embed", "providers.context_embed",
           before=lambda a, k: t.record("windowing.embedded", len(a[1])))

    # decoding, trainer, checkpoint (looked up in trainer)
    t.wrap(patches, trainer, "beam_search", "decoding.beam_search")
    t.wrap(patches, trainer.Trainer, "train", "trainer.train")
    t.wrap(patches, trainer.Trainer, "run", "trainer.run")
    t.wrap(patches, trainer, "evaluate_model", "trainer.evaluate_model")
    t.wrap(patches, trainer, "save_checkpoint", "checkpoint.save",
           after=lambda a, k, o: t.record("checkpoint.bytes", os.path.getsize(a[0])))

    # rouge and kernels
    t.wrap(patches, rouge, "rouge_l", "rouge.rouge_l")
    t.wrap(patches, rouge, "rouge_n", "rouge.rouge_n")
    t.wrap(patches, trainer, "rouge_all", "rouge.rouge_all")
    t.wrap(patches, kernels, "lcs_length", "kernels.lcs_length",
           before=lambda a, k: t.record("lcs.cells", len(a[0]) * len(a[1])))
    t.wrap(patches, kernels, "scatter_add_rows", "kernels.scatter_add_rows")
    t.wrap(patches, kernels, "scatter_add_cols", "kernels.scatter_add_cols")
