"""Beam-search generation with a minimum-length mask and a saturating-log
coverage penalty applied at final scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .errors import ContractError

COVERAGE_FLOOR = 1e-10


@dataclass(frozen=True)
class DecodingConfig:
    beam_size: int = 4
    min_length: int = 55
    max_length: int = 150
    coverage_beta: float = 0.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ContractError("beam_size must be >= 1")
        if not 0 < self.min_length <= self.max_length:
            raise ContractError("need 0 < min_length <= max_length")
        if self.coverage_beta < 0.0:
            raise ContractError("coverage_beta must be >= 0")


@dataclass
class Hypothesis:
    """Partial sequence (BOS excluded, EOS stripped) with accumulated score,
    and the step its search ended at: max_length while it is live."""

    tokens: list[int]
    log_prob: float
    coverage: np.ndarray
    finish_step: int


def coverage_penalty(coverage: np.ndarray, beta: float) -> float:
    """beta * sum_j log(min(c_j, 1)); 0 when beta == 0 or all positions covered."""
    coverage = np.asarray(coverage, dtype=np.float64)
    if (coverage < 0).any():
        raise ContractError("coverage_penalty: coverage entries must be >= 0")
    if beta == 0.0:
        return 0.0
    return float(beta * np.log(np.minimum(np.maximum(coverage, COVERAGE_FLOOR), 1.0)).sum())


def _top_candidates(scores: np.ndarray, k: int, tokens: list[list[int]]) -> list[tuple]:
    """The k best (score, row, token) over finite entries of scores (B, V),
    ordered by (-score, tokens[row] + [token]); every tie at the k-th score
    competes on tokens."""
    flat = scores.ravel()
    finite = np.flatnonzero(flat > -np.inf)
    if finite.size > k:
        kth = -np.partition(-flat[finite], k - 1)[k - 1]
        finite = finite[flat[finite] >= kth]
    V = scores.shape[1]
    cands = [(float(flat[j]), j // V, j % V) for j in finite.tolist()]
    cands.sort(key=lambda c: (-c[0], tokens[c[1]], c[2]))
    return cands[:k]


def beam_search(model, src_ids, cfg: DecodingConfig) -> list[int]:
    """Best decoded token-id sequence (EOS stripped) for one source.

    The model must expose encode(src_ids) -> memory, vocab.bos_id /
    vocab.eos_id, and start_decode(memory, src_ids) -> a state with
    step(last_tokens (B,)) -> (probs (B, V), source attention (B, L)) and
    reorder(rows). Live hypotheses are the state's rows. Ties break by
    earlier finish step, then lexicographic token order, which makes
    decoding deterministic. Runs without recording a tape.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    if src_ids.size == 0:
        raise ContractError("beam_search: empty source")
    with no_grad():
        memory = model.encode(src_ids)
        state = model.start_decode(memory, src_ids)
        return _search(state, model.vocab.bos_id, model.vocab.eos_id, src_ids.size, cfg)


def _search(state, bos: int, eos: int, src_len: int, cfg: DecodingConfig) -> list[int]:
    live = [Hypothesis([], 0.0, np.zeros(src_len), cfg.max_length)]
    finished: list[Hypothesis] = []
    last = [bos]

    for step in range(cfg.max_length):
        probs, attn = state.step(last)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.min() < 0.0 or not (np.abs(probs.sum(axis=1) - 1.0) <= 1e-6).all():
            raise ContractError("beam_search: model produced an invalid distribution")
        with np.errstate(divide="ignore"):
            scores = np.log(probs)
        if step < cfg.min_length:
            scores[:, eos] = -np.inf
        scores += np.array([h.log_prob for h in live])[:, None]
        best = _top_candidates(scores, cfg.beam_size, [h.tokens for h in live])
        if not best:
            break
        survivors = []
        next_live = []
        for score, row, tok in best:
            hyp = live[row]
            coverage = hyp.coverage + attn[row]
            if tok == eos:
                finished.append(Hypothesis(list(hyp.tokens), score, coverage, step))
            else:
                next_live.append(Hypothesis(hyp.tokens + [tok], score, coverage, cfg.max_length))
                survivors.append(row)
        live = next_live
        if len(finished) >= cfg.beam_size or not live:
            break
        state.reorder(survivors)
        last = [h.tokens[-1] for h in live]

    pool = finished + live
    pool.sort(key=lambda h: (-(h.log_prob + coverage_penalty(h.coverage, cfg.coverage_beta)),
                             h.finish_step, h.tokens))
    return list(pool[0].tokens)
