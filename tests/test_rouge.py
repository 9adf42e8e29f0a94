import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_lead_corpus
from convsum.errors import ContractError
from convsum.rouge import (
    RougeScore,
    format_report,
    lead_tail_analysis,
    mean_scores,
    rouge_all,
    rouge_l,
    rouge_n,
    split_sentences,
)


class TestRougeN:
    def test_identical_sequences(self):
        s = rouge_n("the cat sat".split(), "the cat sat".split(), 1)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_vocabularies(self):
        s = rouge_n("a b".split(), "c d".split(), 1)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_hand_counted_unigram_example(self):
        s = rouge_n("the cat sat".split(), "the cat".split(), 1)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == 1.0
        assert s.f1 == pytest.approx(0.8)

    def test_clipping_of_repeats(self):
        s = rouge_n(["a", "a", "a"], ["a", "a"], 1)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == 1.0

    def test_bigrams(self):
        s = rouge_n("a b c".split(), "a b d".split(), 2)
        assert s.precision == pytest.approx(1 / 2)
        assert s.recall == pytest.approx(1 / 2)

    def test_empty_ngram_sets_give_zero(self):
        s = rouge_n([], ["a"], 1)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
        s = rouge_n(["a"], ["a"], 2)  # too short for bigrams
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_swap_exchanges_precision_and_recall(self, rng):
        pool = list("abcd")
        for _ in range(25):
            a = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            b = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 8))]
            ab = rouge_n(a, b, 1)
            ba = rouge_n(b, a, 1)
            assert ab.precision == ba.recall and ab.recall == ba.precision
            assert ab.f1 == pytest.approx(ba.f1)

    def test_components_bounded_and_f1_below_max(self, rng):
        pool = list("abc")
        for _ in range(25):
            a = [pool[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
            b = [pool[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
            s = rouge_n(a, b, 1)
            assert 0.0 <= s.precision <= 1.0 and 0.0 <= s.recall <= 1.0
            assert s.f1 <= max(s.precision, s.recall) + 1e-12

    def test_invalid_n(self):
        with pytest.raises(ContractError):
            rouge_n(["a"], ["a"], 0)


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(x in it for x in sub)


def _brute_lcs(a, b):
    for r in range(len(a), 0, -1):
        for comb in itertools.combinations(range(len(a)), r):
            if _is_subsequence([a[i] for i in comb], b):
                return r
    return 0


class TestRougeL:
    def test_identical(self):
        assert rouge_l("x y z".split(), "x y z".split()).f1 == 1.0

    def test_hand_lcs_example(self):
        s = rouge_l("a b c d".split(), "a c d".split())
        assert s.precision == pytest.approx(3 / 4)
        assert s.recall == 1.0
        assert s.f1 == pytest.approx(6 / 7)

    def test_empty_candidate(self):
        s = rouge_l([], "a b".split())
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_matches_bruteforce_up_to_length_10(self, rng):
        pool = list("abcd")
        for _ in range(40):
            a = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 11))]
            b = [pool[i] for i in rng.integers(0, 4, size=rng.integers(1, 11))]
            got = rouge_l(a, b)
            lcs = _brute_lcs(a, b)
            assert got.precision == pytest.approx(lcs / len(a))
            assert got.recall == pytest.approx(lcs / len(b))


class TestReporting:
    def test_mean_scores(self):
        docs = [
            {"rouge1": RougeScore(1.0, 1.0, 1.0)},
            {"rouge1": RougeScore(0.0, 0.5, 0.0)},
        ]
        m = mean_scores(docs)
        assert m["rouge1"].precision == 0.5
        assert m["rouge1"].recall == 0.75

    def test_format_report_four_decimals(self):
        text = format_report({"rouge1": RougeScore(1 / 3, 1.0, 0.5)})
        assert "rouge1_p=0.3333" in text
        assert "rouge1_r=1.0000" in text
        assert "rouge1_f1=0.5000" in text

    def test_rouge_all_keys(self):
        scores = rouge_all("a b".split(), "a b".split())
        assert set(scores) == {"rouge1", "rouge2", "rougeL"}


class TestLeadTail:
    def test_split_sentences(self):
        assert split_sentences("One two. Three four! Five?") == [
            "One two.", "Three four!", "Five?"
        ]

    def test_perfect_head_document(self):
        corpus = [(["the cat sat .", "other text here ."], "the cat sat .")]
        scores = lead_tail_analysis(corpus, "head")
        assert scores["rougeL"].f1 == 1.0

    def test_head_beats_tail_on_lead_biased_corpus(self):
        docs = make_lead_corpus(40, seed=7)
        corpus = [(split_sentences(d["source"]), d["summary"]) for d in docs]
        head = lead_tail_analysis(corpus, "head")
        tail = lead_tail_analysis(corpus, "tail")
        assert head["rougeL"].f1 > tail["rougeL"].f1
        assert head["rouge1"].f1 > tail["rouge1"].f1

    def test_short_document_uses_all_sentences(self):
        corpus = [(["only sentence ."], "a two . sentence summary .")]
        scores = lead_tail_analysis(corpus, "head")
        assert 0.0 <= scores["rouge1"].f1 <= 1.0

    def test_direction_validated(self):
        with pytest.raises(ContractError):
            lead_tail_analysis([(["a ."], "a .")], "middle")

    def test_empty_summary_rejected(self):
        with pytest.raises(ContractError):
            lead_tail_analysis([(["a ."], "  ")], "head")


_tokens = st.lists(st.sampled_from("abcde"), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_tokens, _tokens)
def test_scores_are_bounded_and_swap_symmetric(cand, ref):
    swapped_all = rouge_all(ref, cand)
    for key, s in rouge_all(cand, ref).items():
        swapped = swapped_all[key]
        assert all(0.0 <= x <= 1.0 for x in (s.precision, s.recall, s.f1)), key
        assert (swapped.precision, swapped.recall) == (s.recall, s.precision), key
        assert swapped.f1 == s.f1, key
