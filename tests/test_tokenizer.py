import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_lead_corpus
from convsum.data import iter_texts
from convsum.errors import ContractError, DataError
from convsum.tokenizer import (
    CONT,
    RESERVED,
    Vocab,
    build_vocab,
    detokenize,
    split_words,
    tokenize,
    wordpieces,
)

TOY_CORPUS = [
    "the cat sat on the mat .",
    "the dog was unable to sit .",
    "cats and dogs play in the garden .",
    "a playful cat sits on a mat .",
]


@pytest.fixture
def vocab():
    return build_vocab(TOY_CORPUS, 120)


def _brute_longest_match(word, pieces_in_vocab):
    """Independent greedy matcher: at each start, scan all lengths and keep the longest."""
    pieces, start = [], 0
    while start < len(word):
        best = None
        for end in range(start + 1, len(word) + 1):
            cand = word[start:end]
            if start > 0:
                cand = CONT + cand
            if cand in pieces_in_vocab:
                best = (end, cand)
        if best is None:
            return None
        pieces.append(best[1])
        start = best[0]
    return pieces


def _reference_split_words(text):
    """The word rule as a character loop: whitespace ends a word, a run of
    `str.isalnum` characters is a word, any other character stands alone."""
    out, buf = [], []
    for ch in text.lower():
        if ch.isspace():
            if buf:
                out.append("".join(buf))
                buf = []
        elif ch.isalnum():
            buf.append(ch)
        else:
            if buf:
                out.append("".join(buf))
                buf = []
            out.append(ch)
    if buf:
        out.append("".join(buf))
    return out


class TestWordRule:
    def test_every_basic_plane_code_point_matches_the_reference(self):
        # each code point between letters and between spaces
        text = "".join(f"a{c}b {c} " for c in map(chr, range(0x10000)))
        assert split_words(text) == _reference_split_words(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_matches_the_reference(self, text):
        assert split_words(text) == _reference_split_words(text)

    @pytest.mark.parametrize("size,vocab_digest,ids_digest", [
        (500, "6ac82ad33d49f0e3", "1f33a7be67a16079"),
        (120, "a378bcabf78969a7", "659094b0f352b482"),  # most words split into "##" pieces
    ])
    def test_vocab_and_ids_of_the_c09_corpus_are_pinned(self, size, vocab_digest, ids_digest):
        # Vocab ids are fixed by the word rule: a checkpoint's vocab and the
        # ids of its corpus stay what they were when it was trained.
        texts = list(iter_texts(make_lead_corpus(500, seed=101)))
        vocab = build_vocab(texts, size)
        ids = [tokenize(t, vocab) for t in texts]
        digest = hashlib.sha256("\n".join(vocab.tokens()).encode()).hexdigest()
        assert digest[:16] == vocab_digest
        assert hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:16] == ids_digest


class TestVocab:
    def test_reserved_ids_pinned(self, vocab):
        assert vocab.token(0) == "[PAD]" and vocab.token(5) == "</s>"
        assert vocab.pad_id == 0 and vocab.eos_id == 5

    def test_must_start_with_reserved(self):
        with pytest.raises(ContractError):
            Vocab(["a", "b"])

    def test_duplicate_rejected(self):
        with pytest.raises(ContractError):
            Vocab(list(RESERVED) + ["x", "x"])

    def test_file_roundtrip_is_byte_identical(self, vocab, tmp_path):
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        vocab.save(str(p1))
        Vocab.load(str(p1)).save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[: len(RESERVED)] == list(RESERVED)

    def test_line_number_is_id(self, vocab, tmp_path):
        p = tmp_path / "v.txt"
        vocab.save(str(p))
        lines = p.read_text().splitlines()
        for i in (0, 3, len(lines) - 1):
            assert vocab.token(i) == lines[i]


class TestTokenize:
    def test_greedy_longest_match_forced(self):
        v = Vocab(list(RESERVED) + ["un", "##able", "able", "u", "##n", "##a", "##b", "##l", "##e"])
        ids = tokenize("unable", v)
        assert [v.token(i) for i in ids] == ["[CLS]", "un", "##able"]

    def test_unknown_character_gives_single_unk(self, vocab):
        ids = tokenize("é", vocab)
        assert ids == [vocab.cls_id, vocab.unk_id]

    def test_always_starts_with_cls_never_empty(self, vocab):
        assert tokenize("", vocab) == [vocab.cls_id]
        assert tokenize("   ", vocab) == [vocab.cls_id]
        assert tokenize("the", vocab)[0] == vocab.cls_id

    def test_lowercase_and_punctuation_split(self):
        assert split_words("The cat, sat!") == ["the", "cat", ",", "sat", "!"]

    def test_greedy_matches_bruteforce_on_corpus(self, vocab):
        words = {w for text in TOY_CORPUS for w in split_words(text)}
        for w in words | {"é", "caté"}:  # and two words with no decomposition
            pieces = _brute_longest_match(w, set(vocab.tokens()))
            want = None if pieces is None else [vocab.id(p) for p in pieces]
            assert wordpieces(w, vocab) == want

    def test_continuation_pieces_marked(self, vocab):
        for text in TOY_CORPUS:
            ids = tokenize(text, vocab)
            for prev, cur in zip(ids, ids[1:]):
                tok = vocab.token(cur)
                if tok.startswith(CONT):
                    assert vocab.token(prev) not in RESERVED


class TestDetokenize:
    def test_merges_continuations(self):
        v = Vocab(list(RESERVED) + ["un", "##able"])
        assert detokenize([v.cls_id, v.id("un"), v.id("##able"), v.eos_id], v) == "unable"

    def test_simple_join(self, vocab):
        ids = tokenize("the cat", vocab)
        assert detokenize(ids, vocab) == "the cat"

    def test_unknown_id_rejected(self, vocab):
        with pytest.raises(ContractError):
            detokenize([len(vocab)], vocab)

    def test_roundtrip_on_covered_corpus_words(self, vocab):
        for text in TOY_CORPUS:
            for w in split_words(text):
                ids = tokenize(w, vocab)
                assert vocab.unk_id not in ids
                assert detokenize(ids, vocab) == w


# Word characters and punctuation; split_words lowercases, so upper-case
# letters are in vocab when their lower-case forms are.
_ALPHABET = "abcdefgxyzABXZ0189.,'-!"


@st.composite
def _vocab_and_text(draw):
    """A vocab built from a random corpus, and a text over that corpus's characters."""
    corpus = draw(st.lists(st.text(_ALPHABET + " ", min_size=1, max_size=30), min_size=1,
                           max_size=4).filter(lambda c: any(split_words(t) for t in c)))
    chars = sorted({c for t in corpus for w in split_words(t) for c in w})
    size = len(RESERVED) + 2 * len(chars) + draw(st.integers(0, 20))
    vocab = build_vocab(corpus, size)
    in_vocab = [c for c in _ALPHABET if c.lower() in chars]
    text = draw(st.text(st.sampled_from(in_vocab + [" ", "\t", "\n"]), max_size=40))
    return vocab, text


@settings(max_examples=200, deadline=None)
@given(_vocab_and_text())
def test_roundtrip_on_in_vocab_text(case):
    """On text whose characters are all in the vocab, tokenize never emits
    [UNK], and detokenize gives back the lower-cased words, punctuation split
    off, joined by single spaces."""
    vocab, text = case
    ids = tokenize(text, vocab)
    assert ids[0] == vocab.cls_id and vocab.unk_id not in ids
    assert detokenize(ids, vocab) == " ".join(split_words(text))


class TestBuildVocab:
    def test_repeated_word_becomes_token(self):
        v = build_vocab(["hello hello hello"], 40)
        assert "hello" in v.tokens()

    def test_all_seen_characters_covered(self, vocab):
        # no corpus word may hit UNK: character fallback guarantees coverage
        for text in TOY_CORPUS:
            assert vocab.unk_id not in tokenize(text, vocab)

    def test_size_cap_respected(self):
        assert len(build_vocab(TOY_CORPUS, 50)) <= 50

    def test_too_small_size_rejected(self):
        with pytest.raises(ContractError):
            build_vocab(["abcdefghijklmnopqrstuvwxyz"], 10)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([], 50)
        with pytest.raises(DataError):
            build_vocab(["   "], 50)

    def test_deterministic(self):
        a = build_vocab(TOY_CORPUS, 80).tokens()
        b = build_vocab(TOY_CORPUS, 80).tokens()
        assert a == b
