"""ROUGE-1/2/L F1 over token sequences, plus the head-vs-tail positional
baseline (score the first or last n source sentences against the summary)."""

from __future__ import annotations

import collections
import re
from dataclasses import astuple, dataclass
from typing import Hashable, Sequence

import numpy as np

from . import kernels
from .errors import ContractError


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, match: float, cand_total: int, ref_total: int) -> "RougeScore":
        p = match / cand_total if cand_total > 0 else 0.0
        r = match / ref_total if ref_total > 0 else 0.0
        f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f1)


def _ngrams(tokens: Sequence[Hashable], n: int) -> collections.Counter:
    return collections.Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


def rouge_n(candidate: Sequence[Hashable], reference: Sequence[Hashable], n: int) -> RougeScore:
    """Clipped n-gram overlap: per distinct n-gram, min(candidate, reference) count."""
    if n < 1:
        raise ContractError("rouge_n: n must be >= 1")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    match = sum(min(c, ref[g]) for g, c in cand.items())
    return RougeScore.from_counts(match, sum(cand.values()), sum(ref.values()))


def rouge_l(candidate: Sequence[Hashable], reference: Sequence[Hashable]) -> RougeScore:
    """Longest-common-subsequence F1."""
    lcs = kernels.lcs_length(candidate, reference)
    return RougeScore.from_counts(float(lcs), len(candidate), len(reference))


def rouge_all(candidate: Sequence[Hashable], reference: Sequence[Hashable]) -> dict[str, RougeScore]:
    return {
        "rouge1": rouge_n(candidate, reference, 1),
        "rouge2": rouge_n(candidate, reference, 2),
        "rougeL": rouge_l(candidate, reference),
    }


def mean_scores(per_doc: list[dict[str, RougeScore]]) -> dict[str, RougeScore]:
    """Component-wise arithmetic mean over documents."""
    if not per_doc:
        raise ContractError("mean_scores: empty document list")
    out = {}
    for key in per_doc[0]:
        columns = zip(*(astuple(d[key]) for d in per_doc))  # precision, recall, f1
        out[key] = RougeScore(*(float(np.mean(c)) for c in columns))
    return out


def format_report(scores: dict[str, RougeScore]) -> str:
    """Key-value lines, 4 decimal places: rouge1_p=..., rouge1_r=..., ..."""
    return "\n".join(f"{key}_{tag}={value:.4f}" for key in sorted(scores)
                     for tag, value in zip(("p", "r", "f1"), astuple(scores[key])))


_SENT_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    return [s for s in (_s.strip() for _s in _SENT_BOUNDARY.split(text)) if s]


def lead_tail_analysis(
    corpus: list[tuple[list[str], str]], direction: str
) -> dict[str, RougeScore]:
    """Mean ROUGE of the first (head) or last (tail) n source sentences against
    each gold summary, n being the summary's own sentence count. Short documents
    use all their sentences. Tokens are whitespace words, lowercased."""
    if direction not in ("head", "tail"):
        raise ContractError(f"direction must be 'head' or 'tail', got {direction!r}")
    if not corpus:
        raise ContractError("lead_tail_analysis: empty corpus")
    per_doc = []
    for sentences, summary in corpus:
        if not summary.strip():
            raise ContractError("lead_tail_analysis: empty summary")
        n = max(1, len(split_sentences(summary)))
        picked = sentences[:n] if direction == "head" else sentences[-n:]
        cand = " ".join(picked).lower().split()
        ref = summary.lower().split()
        per_doc.append(rouge_all(cand, ref))
    return mean_scores(per_doc)
