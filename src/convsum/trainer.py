"""Training harness: seeded batch sampling, loss logging, periodic
checkpoints behind a directory lock, and beam-search evaluation."""

from __future__ import annotations

import ctypes
import functools
import os
import platform

import numpy as np

from .checkpoint import load_checkpoint, load_state, save_checkpoint
from .config import RunConfig, build_model, check_arch_compatible
from .decoding import DecodingConfig, beam_search
from .errors import ConfigError, DataError
from .model import Summarizer
from .rouge import RougeScore, mean_scores, rouge_all
from .tokenizer import Vocab, detokenize

LOCK_NAME = "LOCK"
LOG_NAME = "loss.tsv"

# glibc's mallopt parameters (malloc.h) and the values a training process uses
_MALLOC_SETTINGS = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    (-1, -1),  # M_TRIM_THRESHOLD: -1 never hands the free heap top back
    (-2, 64 << 20),  # M_TOP_PAD: grow the heap 64 MiB past each request
)


@functools.cache
def _keep_heap_resident() -> None:
    """Once per process, on glibc: keep freed memory in the heap for reuse.

    A train step frees its graph as backward walks it. By default glibc
    serves large arrays with fresh mmaps and hands the heap top back to the
    system once it is free, so every step faults the same pages in again.
    With these settings the heap only grows, to the largest step's graph,
    and later steps reuse it. Trimming is off, not set to a size: a model
    whose step frees more than any given threshold would hand pages back
    that its next step faults in again. Each setting also turns off glibc's
    adaptive mmap threshold, so they are chosen as one set: top pad alone
    made long steps fault far more. A no-op elsewhere.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)


class DirectoryLock:
    """Exclusive ownership of a checkpoint directory via an O_EXCL lock file
    that holds the owner's pid. A taken lock is never taken over: the error
    says whether its pid still runs, and removing a stale lock is the user's
    call."""

    def __init__(self, directory: str):
        self.path = os.path.join(directory, LOCK_NAME)

    def _holder(self) -> str:
        """What the pid in the lock file says about the run that holds it."""
        try:
            with open(self.path) as f:
                text = f.read().strip()
        except OSError as e:
            return f"lock file unreadable: {e.strerror}"
        if not text:
            return "lock file is empty"
        pid = int(text) if text.isascii() and text.isdigit() else 0
        if pid == 0:
            return f"lock file holds no pid: {text[:32]!r}"
        try:
            os.kill(pid, 0)
        except PermissionError:
            pass  # the process exists under another user
        except (ProcessLookupError, OverflowError):
            return f"pid {pid} is not running; remove the lock file if no run uses the directory"
        return f"pid {pid} is running"

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise DataError(
                f"checkpoint directory is locked by another run: {self.path} ({self._holder()})"
            ) from None
        with os.fdopen(fd, "w") as f:
            f.write(str(os.getpid()))
        return self

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


class Trainer:
    """Owns one model + optimizer, built from `cfg`, and drives training over
    encoded pairs. A resumed run loads the checkpoint's state into them: the
    architecture must match the checkpoint's, the training settings are cfg's."""

    def __init__(
        self,
        cfg: RunConfig,
        vocab: Vocab,
        pairs: list[tuple[np.ndarray, np.ndarray]],
        resume_from: str | None = None,
    ):
        if not pairs:
            raise DataError("trainer: no training pairs")
        _keep_heap_resident()
        self.cfg = cfg
        self.vocab = vocab
        self.pairs = pairs
        if resume_from is not None:
            ckpt = load_checkpoint(resume_from)
            check_arch_compatible(ckpt.run_config, cfg)
            if ckpt.vocab.tokens() != vocab.tokens():
                raise ConfigError("checkpoint vocab differs from the provided vocab")
        self.model, self.opt = build_model(cfg, vocab)
        if resume_from is not None:
            load_state(ckpt, self.model, self.opt)

    @property
    def step(self) -> int:
        return self.opt.step

    def _sample_batch(self):
        idx = self.model.rng.integers(0, len(self.pairs), size=self.cfg.batch_size)
        return [self.pairs[i] for i in idx]

    def train(self, until_step: int | None = None, log=None) -> list[tuple[int, float, float]]:
        """Run steps up to `until_step` (default cfg.steps); returns (step, lr, loss) rows."""
        target = self.cfg.steps if until_step is None else until_step
        rows = []
        while self.opt.step < target:
            loss, lr = self.model.train_step(self._sample_batch(), self.opt)
            row = (self.opt.step, lr, loss)
            rows.append(row)
            if log is not None:
                log.write(f"{row[0]}\t{row[1]:.12e}\t{row[2]:.12e}\n")
        return rows

    def run(self) -> list[tuple[int, float, float]]:
        """Full training per config: lock the checkpoint dir, log every step,
        checkpoint every `checkpoint_every` steps and at the end. A run
        resumed from an earlier checkpoint first drops the log rows past it."""
        os.makedirs(self.cfg.checkpoint_dir, exist_ok=True)
        rows: list[tuple[int, float, float]] = []
        with DirectoryLock(self.cfg.checkpoint_dir):
            log_path = os.path.join(self.cfg.checkpoint_dir, LOG_NAME)
            _truncate_log(log_path, self.opt.step)
            with open(log_path, "a", encoding="utf-8") as log:
                while self.opt.step < self.cfg.steps:
                    next_stop = min(
                        self.cfg.steps,
                        (self.opt.step // self.cfg.checkpoint_every + 1)
                        * self.cfg.checkpoint_every,
                    )
                    rows.extend(self.train(until_step=next_stop, log=log))
                    self.save(os.path.join(self.cfg.checkpoint_dir, f"ckpt-{self.opt.step}.npz"))
        return rows

    def save(self, path: str) -> None:
        save_checkpoint(path, self.model, self.opt, self.cfg)


def _truncate_log(path: str, step: int) -> None:
    """Keep only the complete loss-log rows of steps <= step; rewrites the
    file atomically, and only when a row goes."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except FileNotFoundError:
        return

    def keep(line: str) -> bool:
        head = line.split("\t", 1)[0]
        return line.endswith("\n") and head.isdigit() and int(head) <= step

    kept = [line for line in lines if keep(line)]
    if len(kept) == len(lines):
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.writelines(kept)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def evaluate_model(
    model: Summarizer,
    test_pairs: list[tuple[np.ndarray, list[str]]],
    dec_cfg: DecodingConfig,
    words: bool = False,
) -> dict[str, RougeScore]:
    """Corpus-mean ROUGE of beam-search output against references.

    test_pairs holds (source ids, reference token strings). With words=True
    both sides are detokenized to whitespace words before scoring.
    """
    vocab = model.vocab
    per_doc = []
    for src_ids, ref in test_pairs:
        cand = [vocab.token(i) for i in beam_search(model, src_ids, dec_cfg)]
        if words:
            cand, ref = (detokenize(map(vocab.id, side), vocab).split() for side in (cand, ref))
        per_doc.append(rouge_all(cand, ref))
    return mean_scores(per_doc)
