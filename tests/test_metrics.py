import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from iurkit.datamodel import Utterance
from iurkit.metrics import (EvalResult, bleu, evaluate, exact_match, rouge_l,
                            rouge_n)


def u(*texts):
    return Utterance.from_texts(list(texts))


class TestExactMatch:
    def test_equal(self):
        assert exact_match(u("a", "b"), u("a", "b"))

    def test_differs(self):
        assert not exact_match(u("a", "b"), u("a", "c"))


class TestBleu:
    def test_identical_is_100(self):
        assert bleu([u("x", "y", "z", "w")], [u("x", "y", "z", "w")]) == \
            pytest.approx(100.0)

    def test_brevity_penalty_fixture(self):
        # every n-gram of the hypothesis appears in the reference, so the
        # score is the brevity penalty alone: 100 * exp(1 - 5/4) = 77.880
        got = bleu([u("a", "b", "c", "d")], [u("a", "b", "c", "d", "e")])
        assert got == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0), abs=0.01)
        assert got == pytest.approx(77.880, abs=0.01)

    def test_no_penalty_when_longer(self):
        got = bleu([u("a", "b", "c", "d", "x")], [u("a", "b", "c", "d")])
        assert got < 100.0
        # unigram precision 4/5, shared higher-order counts; no brevity term
        assert got == pytest.approx(
            100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25, abs=1e-6)

    def test_zero_overlap_near_zero(self):
        got = bleu([u("p", "q")], [u("x", "y")])
        assert 0.0 <= got < 0.01

    def test_corpus_pools_counts(self):
        hyps = [u("a", "b"), u("c", "d")]
        refs = [u("a", "b"), u("x", "y")]
        # pooled unigram precision 2/4; both bigram counts pooled too
        pooled = bleu(hyps, refs, max_n=2)
        assert pooled == pytest.approx(100.0 * math.sqrt(0.5 * 0.5), abs=1e-6)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])
        with pytest.raises(ValueError):
            bleu([u("a")], [])


class TestRouge:
    def test_rouge1_half_overlap(self):
        assert rouge_n([u("a", "b")], [u("a", "c")], 1) == pytest.approx(50.0)

    def test_rouge2_fixture(self):
        # shared bigrams: ("a","b") only; hyp has 2 bigrams, ref has 2
        got = rouge_n([u("a", "b", "c")], [u("a", "b", "d")], 2)
        assert got == pytest.approx(50.0)

    def test_rouge_l_subsequence(self):
        # LCS("a b c d", "a c d b") has length 3: p = 3/4, r = 3/4
        got = rouge_l([u("a", "b", "c", "d")], [u("a", "c", "d", "b")])
        assert got == pytest.approx(75.0)

    def test_sentence_averaged(self):
        hyps = [u("a"), u("x")]
        refs = [u("a"), u("y")]
        assert rouge_n(hyps, refs, 1) == pytest.approx(50.0)
        assert rouge_l(hyps, refs) == pytest.approx(50.0)

    def test_identical_is_100(self):
        assert rouge_l([u("m", "n")], [u("m", "n")]) == pytest.approx(100.0)


class TestEvaluate:
    @pytest.mark.parametrize("n_hyps, n_refs", [(2, 1), (0, 0)])
    def test_corpus_error_names_both_counts(self, n_hyps, n_refs):
        with pytest.raises(ValueError, match=f"; got {n_hyps} and {n_refs}$"):
            evaluate([u("a")] * n_hyps, [u("a")] * n_refs)

    def test_result_fields(self):
        res = evaluate([u("a", "b")], [u("a", "b")])
        assert res.em == 1.0 and res.count == 1
        assert res.bleu[4] == pytest.approx(100.0)
        assert res.rouge_l == pytest.approx(100.0)

    def test_json_round_trip(self):
        res = evaluate([u("a", "b")], [u("a", "c")])
        obj = json.loads(res.to_json())
        assert obj["em"] == 0.0
        assert set(obj["bleu"]) == {"1", "2", "3", "4"}

    def test_table_lists_all_metrics(self):
        res = evaluate([u("a")], [u("a")])
        table = res.table()
        for name in ("EM", "BLEU-4", "ROUGE-1", "ROUGE-L"):
            assert name in table

    @given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6),
                    min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_perfect_hypotheses_max_all_metrics(self, sents):
        us = [Utterance.from_texts(s) for s in sents]
        res = evaluate(us, us)
        assert res.em == 1.0
        assert res.bleu[4] == pytest.approx(100.0)
        assert res.rouge_l == pytest.approx(100.0)

    @given(st.permutations(range(4)))
    def test_corpus_order_invariant(self, order):
        hyps = [u("a", "b"), u("c"), u("d", "e", "f"), u("g")]
        refs = [u("a", "x"), u("c"), u("d", "f"), u("h")]
        base = evaluate(hyps, refs)
        perm = evaluate([hyps[i] for i in order], [refs[i] for i in order])
        assert perm.em == pytest.approx(base.em)
        assert perm.bleu[4] == pytest.approx(base.bleu[4])
        assert perm.rouge_l == pytest.approx(base.rouge_l)
