"""The three workloads. Each makes its inputs from the seed, sets up once per
call to `setup`, runs its operation in a closed loop (one caller, the next
call starts when the previous one returns) until a deadline, and checks the
outputs. The program sees only the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from convsum import data, decoding
from convsum import trainer as trainer_mod
from convsum.config import RunConfig, build_model
from convsum.errors import ConvsumError
from convsum.model import Summarizer
from convsum.tokenizer import build_vocab

from spans import OpTimer, Patches, Tracer, install

# The word pool of the c09 lead corpus.
GATE_POOL = [
    "alpine", "basket", "candle", "direct", "ember", "fabric", "garden", "hollow",
    "indigo", "jigsaw", "kettle", "lantern", "meadow", "nectar", "orbit", "pepper",
    "quartz", "ribbon", "saddle", "timber", "umber", "velvet", "walnut", "yonder",
    "zephyr", "anchor", "bridge", "canyon", "drift", "echo", "falcon", "glacier",
    "harbor", "island", "jungle", "kernel", "ledger", "mirror", "needle", "onion",
    "pillar", "quiver", "river", "signal", "tunnel", "urban", "valley", "window",
]

# The c09 gate model: d=64, 2+2 layers, conv attention in encoder layer 0.
GATE = dict(
    d_model=64, enc_layers=2, dec_layers=2, ff_size=128, heads=4,
    token_kernel=13, head_kernel=3, conv_layers=(0,), dropout=0.1,
    label_smoothing=0.1, copy=True, warmup=400, batch_size=8, beam_size=4,
    max_source_len=64,
)

# Paper scale: d=256, 3+3 layers, concatenation with the stub provider.
LONG = dict(
    d_model=256, enc_layers=3, dec_layers=3, ff_size=1024, heads=4,
    token_kernel=11, head_kernel=3, integration="concatenation", provider="stub",
    provider_window=256, window=256, stride=128, batch_size=1, max_source_len=512,
    dropout=0.1, label_smoothing=0.1, copy=True, warmup=4000,
)


def pseudo_words(n: int) -> list[str]:
    """n distinct two-syllable words, the same for every seed."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    total = len(syllables) ** 2
    return [syllables[i // len(syllables)] + syllables[i % len(syllables)]
            for i in range(0, total, total // n)][:n]


def _sentence(rng: np.random.Generator, pool: list[str], length: tuple[int, int]) -> list[str]:
    n = int(rng.integers(length[0], length[1] + 1))
    return [pool[i] for i in rng.integers(0, len(pool), size=n)] + ["."]


def lead_corpus(rng, n_docs, pool, sentences=(3, 5), length=(4, 7), first=None) -> list[dict]:
    """Documents whose summary is exactly the first source sentence."""
    docs = []
    for _ in range(n_docs):
        k = int(rng.integers(sentences[0], sentences[1] + 1))
        sents = [_sentence(rng, pool, first or length)]
        sents += [_sentence(rng, pool, length) for _ in range(k - 1)]
        text = [" ".join(s) for s in sents]
        docs.append({"source": " ".join(text), "summary": text[0]})
    return docs


def reference_lcs(a: list, b: list) -> int:
    """Plain dynamic-programming LCS length, kept here as the oracle for ROUGE-L."""
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b):
            curr.append(prev[j] + 1 if x == y else max(prev[j + 1], curr[j]))
        prev = curr
    return prev[-1]


@dataclass
class Phase:
    """One measured loop: per-operation seconds and intervals, and the work done."""

    samples: list[float]
    intervals: list[tuple[float, float]]
    work: float
    wall_s: float
    attempted: int
    failed: int


class Workload:
    name = ""
    kind = ""  # "train" or "decode"
    op_name = ""  # the operation, as the end-to-end metric names call it
    work_name = ""  # what throughput_per_s counts
    model: Summarizer | None = None
    dec_cfg = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> dict[str, float]:
        """Build inputs and program state; returns the stage timings in seconds."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def phase(self, seconds: float, tracer: Tracer | None) -> Phase:
        patches = Patches()
        try:
            if tracer is not None:
                min_length = self.dec_cfg.min_length if self.dec_cfg else None
                install(tracer, patches, min_length, backward=self.kind == "train")
                tracer.start_gc()
            try:
                return self._loop(patches, seconds, tracer)
            finally:
                if tracer is not None:
                    tracer.stop_gc()
        finally:
            patches.restore()

    def _loop(self, patches: Patches, seconds: float, tracer) -> Phase:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Run-level output checks; returns the names of those that failed."""
        return []

    def notes(self) -> dict:
        return {}


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _train_step_timer(patches: Patches, tracer) -> tuple[OpTimer, list[int]]:
    """Time `Summarizer.train_step` and count the source and target tokens it trains on."""
    tokens = [0]

    def on_call(args, out):
        tokens[0] += sum(len(s) + len(t) for s, t in args[1])

    return OpTimer(patches, Summarizer, "train_step", on_call, tracer), tokens


class GateTrain(Workload):
    """`Trainer.run()` as `convsum train` runs it, on the c09 lead corpus.

    Each measured phase is one `run()` call sized to fill its time: it takes
    the directory lock, appends every step to `loss.tsv`, checkpoints every
    `checkpoint_every` steps (the default, 500) and once at its end, as a
    `convsum train --steps N` run does.
    """

    name, kind, op_name, work_name = "gate-train", "train", "train_step_ms", "train_tokens"
    WINDOW = 20  # loss steps averaged at each end of the run
    WARM_STEPS = 3  # steps timed after the first to size the run

    def setup(self):
        rng = np.random.default_rng(self.seed)
        docs = lead_corpus(rng, 500, GATE_POOL)
        vocab, t_vocab = _timed(lambda: build_vocab(data.iter_texts(docs), 500))
        self.cfg = RunConfig(
            **GATE, seed=self.seed, checkpoint_dir=os.path.join(self.workdir, "gate-train"),
            min_length=1, max_length=20,
        ).validate()
        pairs, t_pairs = _timed(lambda: data.encode_pairs(docs, vocab, self.cfg))
        self.trainer, t_model = _timed(lambda: trainer_mod.Trainer(self.cfg, vocab, pairs))
        self.model = self.trainer.model
        self.losses: list[float] = []
        return {"build_vocab_s": t_vocab, "encode_pairs_s": t_pairs, "build_model_s": t_model}

    def warm_up(self):
        self.trainer.train(until_step=1)
        _, elapsed = _timed(lambda: self.trainer.train(until_step=1 + self.WARM_STEPS))
        self.step_s = elapsed / self.WARM_STEPS

    def _loop(self, patches, seconds, tracer):
        timer, tokens = _train_step_timer(patches, tracer)
        tr, raised, bad = self.trainer, 0, 0
        tr.cfg.steps = tr.step + max(2 * self.WINDOW, round(seconds / self.step_s))
        t0 = time.perf_counter()
        try:
            rows = tr.run()
        except ConvsumError:
            rows, raised = [], 1
        wall = time.perf_counter() - t0
        bad += sum(not math.isfinite(loss) for _, _, loss in rows)
        self.losses.extend(loss for _, _, loss in rows)
        if timer.samples:
            self.step_s = wall / len(timer.samples)  # GC pauses included, unlike the warm-up
        return Phase(timer.samples, timer.intervals, tokens[0], wall,
                     len(timer.samples) + raised, raised + bad)

    def final_checks(self):
        w = self.WINDOW
        if len(self.losses) < 2 * w:
            return ["loss_window: fewer than two windows of steps"]
        first, last = statistics.fmean(self.losses[:w]), statistics.fmean(self.losses[-w:])
        return [] if last < first else [f"loss_window: last {last:.4f} >= first {first:.4f}"]


class LongTrain(Workload):
    """One paper-scale train step per call: L=512 sources, batch 1."""

    name, kind, op_name, work_name = "long-train", "train", "train_step_ms", "train_tokens"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        docs = lead_corpus(rng, 32, pseudo_words(300), sentences=(48, 48),
                           length=(10, 20), first=(6, 9))
        vocab, t_vocab = _timed(lambda: build_vocab(data.iter_texts(docs), 1000))
        self.cfg = RunConfig(**LONG, seed=self.seed).validate()
        pairs, t_pairs = _timed(lambda: data.encode_pairs(docs, vocab, self.cfg))
        self.trainer, t_model = _timed(lambda: trainer_mod.Trainer(self.cfg, vocab, pairs))
        self.model = self.trainer.model
        self.losses = []
        return {"build_vocab_s": t_vocab, "encode_pairs_s": t_pairs, "build_model_s": t_model}

    def warm_up(self):
        self.trainer.train(until_step=self.trainer.step + 1)
        gc.collect()

    def _loop(self, patches, seconds, tracer):
        timer, tokens = _train_step_timer(patches, tracer)
        tr, raised, bad = self.trainer, 0, 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            try:
                rows = tr.train(until_step=tr.step + 1)
            except ConvsumError:
                raised += 1
                break
            bad += sum(not math.isfinite(loss) for _, _, loss in rows)
            self.losses.extend(loss for _, _, loss in rows)
            # Each step's tape is a web of reference cycles (closures hold their
            # output tensors), freed only by the cyclic collector; left to the
            # collector's own schedule, RSS grows by ~200 MB a step at this scale.
            gc.collect()
        wall = time.perf_counter() - t0
        return Phase(timer.samples, timer.intervals, tokens[0], wall,
                     len(timer.samples) + raised, raised + bad)


class GateDecode(Workload):
    """`evaluate_model` over held-out lead docs: beam 4, exactly 20 tokens per doc."""

    name, kind, op_name, work_name = "gate-decode", "decode", "decode_ms_per_doc", "evaluate_docs"
    CHUNK = 2  # docs per evaluate_model call
    DIGEST_DOCS = 20
    WARM_LEN = 32  # source length of the warm-up decode, the same for every seed
    SAMPLE = 16  # scored pairs re-checked against the reference LCS

    def setup(self):
        rng = np.random.default_rng(self.seed)
        train_docs = lead_corpus(rng, 500, GATE_POOL)
        test_docs = lead_corpus(rng, 100, GATE_POOL)
        vocab, t_vocab = _timed(lambda: build_vocab(data.iter_texts(train_docs), 500))
        cfg = RunConfig(**GATE, seed=self.seed, min_length=20, max_length=20).validate()
        pairs, t_pairs = _timed(lambda: data.encode_pairs(test_docs, vocab, cfg))
        self.test_pairs = [(s, [vocab.token(i) for i in t[1:-1]]) for s, t in pairs]
        (self.model, _), t_model = _timed(lambda: build_model(cfg, vocab))
        self.dec_cfg = cfg.decoding_config()
        self.outputs: list[list[int]] = []
        self.sampled: list[tuple[list, list, object]] = []
        return {"build_vocab_s": t_vocab, "encode_pairs_s": t_pairs, "build_model_s": t_model}

    def warm_up(self):
        src = np.concatenate([s for s, _ in self.test_pairs[:4]])[: self.WARM_LEN]
        decoding.beam_search(self.model, src, self.dec_cfg)

    def _bad_output(self, ids) -> bool:
        V, eos = len(self.model.vocab), self.model.vocab.eos_id
        return (len(ids) != self.dec_cfg.max_length
                or any(not 0 <= i < V or i == eos for i in ids))

    def _loop(self, patches, seconds, tracer):
        bad = [0]

        def on_call(args, out):
            bad[0] += self._bad_output(out)
            self.outputs.append(list(out))

        def on_score(args, out):
            bad[0] += not all(0.0 <= x <= 1.0 for s in out.values()
                              for x in (s.precision, s.recall, s.f1))
            if len(self.sampled) < self.SAMPLE:
                self.sampled.append((list(args[0]), list(args[1]), out["rougeL"]))

        timer = OpTimer(patches, trainer_mod, "beam_search", on_call, tracer)
        OpTimer(patches, trainer_mod, "rouge_all", on_score)
        n, raised = len(self.test_pairs), 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            start = len(self.outputs)
            chunk = [self.test_pairs[(start + k) % n] for k in range(self.CHUNK)]
            try:
                trainer_mod.evaluate_model(self.model, chunk, self.dec_cfg)
            except ConvsumError:
                raised += 1
                break
        wall = time.perf_counter() - t0
        docs = len(timer.samples)
        return Phase(timer.samples, timer.intervals, docs, wall, docs + raised, raised + bad[0])

    def final_checks(self):
        if not self.outputs:
            return ["no_output"]
        failed = []
        again = decoding.beam_search(self.model, self.test_pairs[0][0], self.dec_cfg)
        if again != self.outputs[0]:
            failed.append("decode_twice: doc 0 decoded differently")
        for cand, ref, got in self.sampled:
            lcs = reference_lcs(cand, ref)
            p, r = lcs / max(len(cand), 1), lcs / max(len(ref), 1)
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            if max(abs(got.precision - p), abs(got.recall - r), abs(got.f1 - f1)) > 1e-12:
                failed.append(f"rouge_l_reference: got {got}, expected lcs {lcs}")
        return failed

    def notes(self):
        head = self.outputs[: self.DIGEST_DOCS]
        digest = hashlib.sha256(json.dumps(head).encode()).hexdigest()
        return {"token_digest": digest, "token_digest_docs": len(head)}


WORKLOADS = {w.name: w for w in (GateTrain, GateDecode, LongTrain)}
