"""Corpus ingestion: JSONL documents with "source" and "summary" string fields,
and their conversion to id pairs for training and evaluation."""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from .config import RunConfig
from .errors import DataError
from .tokenizer import Vocab, tokenize


def load_jsonl(path: str) -> list[dict]:
    try:
        f = open(path, encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read corpus file {path}: {e}") from e
    docs = []
    with f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path} line {lineno}: invalid JSON ({e.msg})") from e
            if (
                not isinstance(doc, dict)
                or not isinstance(doc.get("source"), str)
                or not isinstance(doc.get("summary"), str)
            ):
                raise DataError(
                    f"{path} line {lineno}: expected string fields 'source' and 'summary'"
                )
            docs.append(doc)
    if not docs:
        raise DataError(f"empty corpus: {path}")
    return docs


def iter_texts(docs: list[dict]) -> Iterator[str]:
    for doc in docs:
        yield doc["source"]
        yield doc["summary"]


def encode_source(text: str, vocab: Vocab, cfg: RunConfig) -> np.ndarray:
    ids = tokenize(text, vocab)
    if not cfg.full_text and len(ids) > cfg.max_source_len:
        ids = ids[: cfg.max_source_len]
    return np.asarray(ids, dtype=np.int64)


def encode_target(text: str, vocab: Vocab) -> np.ndarray:
    pieces = tokenize(text, vocab)[1:]  # drop the leading [CLS]
    return np.asarray([vocab.bos_id] + pieces + [vocab.eos_id], dtype=np.int64)


def encode_pairs(
    docs: list[dict], vocab: Vocab, cfg: RunConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (encode_source(d["source"], vocab, cfg), encode_target(d["summary"], vocab))
        for d in docs
    ]
