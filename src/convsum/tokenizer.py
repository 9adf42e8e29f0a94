"""Subword tokenization: greedy longest-match against a vocabulary with "##"
continuation pieces, plus detokenization and frequency-based vocab building."""

from __future__ import annotations

import collections
import re
from typing import Iterable

from .errors import ContractError, DataError

PAD, UNK, CLS, SEP, BOS, EOS = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "<s>", "</s>"
RESERVED = (PAD, UNK, CLS, SEP, BOS, EOS)
CONT = "##"
_WORD = re.compile(r"[^\W_]+|\S")


class Vocab:
    """Immutable bidirectional token<->id table; reserved tokens pinned to ids 0-5."""

    def __init__(self, tokens: list[str]):
        if not all(isinstance(t, str) for t in tokens):
            raise ContractError("vocab tokens must be strings")
        if tuple(tokens[: len(RESERVED)]) != RESERVED:
            raise ContractError(f"vocab must start with the reserved tokens {RESERVED}")
        if len(set(tokens)) != len(tokens):
            raise ContractError("vocab contains duplicate tokens")
        self._tokens = list(tokens)
        self._ids = {t: i for i, t in enumerate(tokens)}

    pad_id, unk_id, cls_id, sep_id, bos_id, eos_id = 0, 1, 2, 3, 4, 5

    def __len__(self) -> int:
        return len(self._tokens)

    def id(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ContractError(f"token not in vocab: {token!r}") from None

    def token(self, i: int) -> str:
        if not 0 <= i < len(self._tokens):
            raise ContractError(f"id out of vocab range: {i}")
        return self._tokens[i]

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for t in self._tokens:
                f.write(t + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        try:
            with open(path, encoding="utf-8") as f:
                tokens = [line.rstrip("\n") for line in f]
        except OSError as e:
            raise DataError(f"cannot read vocab file {path}: {e}") from e
        if tokens and tokens[-1] == "":
            tokens.pop()
        if not tokens:
            raise DataError(f"empty vocab file: {path}")
        try:
            return cls(tokens)
        except ContractError as e:
            raise DataError(f"vocab file {path}: {e}") from None


def split_words(text: str) -> list[str]:
    """Lowercase, then split: a run of alphanumeric (`str.isalnum`) characters
    is a word, and every other non-space character is a token of its own."""
    return _WORD.findall(text.lower())


def wordpieces(word: str, vocab: Vocab) -> list[int] | None:
    """Ids of the greedy longest-match-first decomposition; None if no full
    decomposition. Each candidate piece costs one dict lookup."""
    lookup = vocab._ids.get
    ids: list[int] = []
    start = 0
    while start < len(word):
        mark = CONT if start else ""
        for end in range(len(word), start, -1):
            i = lookup(mark + word[start:end])
            if i is not None:
                break
        else:
            return None
        ids.append(i)
        start = end
    return ids


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Token ids starting with [CLS]; undecomposable words map to one [UNK]."""
    ids = [vocab.cls_id]
    for word in split_words(text):
        pieces = wordpieces(word, vocab)
        ids.extend([vocab.unk_id] if pieces is None else pieces)
    return ids


def detokenize(ids: Iterable[int], vocab: Vocab) -> str:
    """Merge continuation pieces, drop reserved tokens, join words with spaces."""
    words: list[str] = []
    for i in ids:
        tok = vocab.token(i)
        if tok in RESERVED:
            continue
        if tok.startswith(CONT) and words:
            words[-1] += tok[len(CONT):]
        else:
            words.append(tok[len(CONT):] if tok.startswith(CONT) else tok)
    return " ".join(words)


def build_vocab(corpus: Iterable[str], size: int) -> Vocab:
    """Frequency-based vocab: reserved tokens, the seen character alphabet (both
    word-initial and "##" continuation forms), then the most frequent whole
    words and "##" suffix pieces until `size` entries are reached."""
    if size <= len(RESERVED):
        raise ContractError(f"vocab size must exceed the {len(RESERVED)} reserved tokens")
    word_counts = collections.Counter(w for text in corpus for w in split_words(text))
    if not word_counts:
        raise DataError("build_vocab: empty corpus")

    tokens = list(RESERVED)
    for c in sorted(set().union(*word_counts)):
        tokens.append(c)
        tokens.append(CONT + c)
    if len(tokens) > size:
        raise ContractError(
            f"vocab size {size} is smaller than reserved tokens plus the "
            f"character set ({len(tokens)} entries)"
        )

    present = set(tokens)
    candidates: collections.Counter[str] = collections.Counter()
    for w, n in word_counts.items():
        candidates[w] += n
        for i in range(1, len(w)):
            candidates[CONT + w[i:]] += n
    for tok, _ in sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0])):
        if len(tokens) >= size:
            break
        if tok not in present:
            tokens.append(tok)
            present.add(tok)
    return Vocab(tokens)
