import json
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iurkit.datamodel import Dialogue, Utterance, build_input_sequence
from iurkit.querygen import PronounLexicon, build_query
import iurkit.rewrite as rewrite_module
from iurkit.rewrite import apply_edits, cells_to_spans, resolve_conflicts
from iurkit.supervision import (OPS, AddedSpan, EditMatrix, EditOp, aggregate_report,
                                build_edit_matrix, diff_spans, lcs_align,
                                locate_in_context)

def brute_force_lcs_len(a, b):
    """Exhaustive enumeration over all subsequences of the shorter sequence."""
    short, long = (a, b) if len(a) <= len(b) else (b, a)

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(x in it for x in sub)

    for k in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), k):
            if is_subseq([short[i] for i in idxs], long):
                return k
    return 0


class TestLcsAlign:
    def test_identical(self):
        assert lcs_align("xyz", "xyz") == [(0, 0), (1, 1), (2, 2)]

    def test_classic_fixture(self):
        # expected length 4, frozen from the exhaustive-enumeration oracle
        pairs = lcs_align(list("ABCBDAB"), list("BDCABA"))
        assert len(pairs) == 4
        assert len(pairs) == brute_force_lcs_len("ABCBDAB", "BDCABA")

    def test_empty(self):
        assert lcs_align([], "abc") == []
        assert lcs_align("abc", []) == []

    @given(st.text(alphabet="abcd", max_size=10), st.text(alphabet="abcd", max_size=10))
    @settings(max_examples=200)
    def test_matches_brute_force(self, a, b):
        pairs = lcs_align(list(a), list(b))
        assert len(pairs) == brute_force_lcs_len(a, b)

    @given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=12))
    def test_monotone_and_equal(self, a, b):
        pairs = lcs_align(list(a), list(b))
        for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
            assert i1 < i2 and j1 < j2
        for i, j in pairs:
            assert a[i] == b[j]


def zh_dialogue(histories, inc, rew=None, eid="x"):
    hs = tuple(Utterance.from_text(h, speaker_turn=i) for i, h in enumerate(histories))
    n = len(hs)
    return Dialogue(hs, Utterance.from_text(inc, speaker_turn=n),
                    Utterance.from_text(rew, speaker_turn=n) if rew else None, eid)


@pytest.fixture
def table1():
    return zh_dialogue(["史密斯需要在附近找一家昂贵的餐馆。", "史密斯关心菜肴的类型吗？"],
                       "不，他不关心。", "不，史密斯不关心菜肴的类型。", "t1")


def flat_parse(utterance):
    from iurkit.querygen import DependencyParse
    n = len(utterance)
    return DependencyParse(tuple([0] + [1] * (n - 1)),
                           tuple(["root"] + ["dep"] * (n - 1)),
                           tuple(utterance.texts()))


def prepared(dialogue, lexicon=None):
    lex = lexicon or PronounLexicon.default("zh")
    query = build_query(dialogue.incomplete, lex, flat_parse(dialogue.incomplete),
                        unify=True)
    return build_input_sequence(query, dialogue)


class TestDiffSpans:
    def test_table1_spans(self, table1):
        inc, rew = table1.incomplete, table1.rewritten
        spans, deletions = diff_spans(inc, rew)
        assert deletions == []
        assert len(spans) == 2
        sub, ins = spans
        assert sub.cols == (2, 3)  # 他 -> 史密斯
        assert list(sub.tokens) == ["史", "密", "斯"]
        assert ins.cols == (6, 6)        # 菜肴的类型 before 。
        assert list(ins.tokens) == ["菜", "肴", "的", "类", "型"]

    def test_identical_no_spans(self):
        u = Utterance.from_text("考口语啊")
        spans, deletions = diff_spans(u, u)
        assert spans == [] and deletions == []

    def test_table9_example2_front_insert(self):
        inc = Utterance.from_text("考口语啊")
        rew = Utterance.from_text("雅思第一项考口语啊")
        spans, _ = diff_spans(inc, rew)
        (span,) = spans
        assert span.cols == (0, 0)
        assert list(span.tokens) == ["雅", "思", "第", "一", "项"]

    def test_end_insert_goes_to_sentinel(self):
        inc = Utterance.from_text("不想保留")
        rew = Utterance.from_text("不想保留意见")
        spans, _ = diff_spans(inc, rew)
        (span,) = spans
        assert span.cols == (4, 4)  # sentinel column

    def test_pure_deletion_reported(self):
        inc = Utterance.from_text("abc")
        rew = Utterance.from_text("ac")
        inc = Utterance.from_texts(["a", "b", "c"])
        rew = Utterance.from_texts(["a", "c"])
        spans, deletions = diff_spans(inc, rew)
        assert spans == []
        assert deletions == [(1, 2)]


class TestLocateInContext:
    def test_latest_utterance_wins(self, table1):
        inp = prepared(table1)
        rows = locate_in_context(["史", "密", "斯"], inp)
        # both u1 and u2 contain 史密斯; u2 (the later turn) must win
        assert rows == inp.history_turns[1][0:1] + (inp.history_turns[1][0] + 3,)

    def test_absent_span(self, table1):
        assert locate_in_context(["汉"], prepared(table1)) is None

    def test_never_searches_query_region(self, table1):
        inp = prepared(table1)
        # "不" occurs in the query; the located row must be in history, but
        # 不 does not occur in history at all here
        assert locate_in_context(["不"], inp) is None

    def test_empty_span_raises(self, table1):
        with pytest.raises(ValueError):
            locate_in_context([], prepared(table1))

    def test_no_match_across_utterance_boundary(self):
        d = zh_dialogue(["左边", "右边"], "他说")
        inp = prepared(d)
        assert locate_in_context(["边", "右"], inp) is None


class TestEditMatrix:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EditMatrix.from_cells(2, 2, frozenset({(2, 0, EditOp.SUBSTITUTE)}))

    def test_rejects_substitute_on_sentinel(self):
        with pytest.raises(ValueError):
            EditMatrix.from_cells(2, 2, frozenset({(0, 1, EditOp.SUBSTITUTE)}))

    def test_json_round_trip(self):
        m = EditMatrix.from_cells(3, 4, frozenset({(0, 1, EditOp.SUBSTITUTE),
                                                   (2, 3, EditOp.PRE_INSERT)}))
        assert EditMatrix.from_json(m.to_json()) == m

    # cells of a 5 x 4 matrix; column 3 is the sentinel
    cell_sets = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 3),
                                  st.sampled_from(list(EditOp))), max_size=12)

    @given(cell_sets)
    @settings(max_examples=100)
    def test_masks_and_json_hold_the_cells(self, drawn):
        both = {(1, 2, EditOp.SUBSTITUTE), (1, 2, EditOp.PRE_INSERT)}
        cells = {(r, c, op) for r, c, op in drawn
                 if not (op is EditOp.SUBSTITUTE and c == 3)} | both
        m = EditMatrix.from_cells(5, 4, cells)
        assert m.cells == cells
        assert EditMatrix.from_json(m.to_json()).cells == cells
        for op in EditOp:
            expected = np.zeros((5, 4), dtype=bool)
            for r, c, o in cells:
                expected[r, c] |= o is op
            assert np.array_equal(m.mask(op), expected)

    @given(st.integers(-6, 9), st.integers(-6, 9), st.sampled_from(list(EditOp)))
    def test_rejects_cells_off_the_matrix(self, r, c, op):
        valid = 0 <= r < 5 and 0 <= c < 4 and not (op is EditOp.SUBSTITUTE and c == 3)
        if valid:
            assert EditMatrix.from_cells(5, 4, {(r, c, op)}).cells == {(r, c, op)}
        else:
            with pytest.raises(ValueError):
                EditMatrix.from_cells(5, 4, {(r, c, op)})
            with pytest.raises(ValueError):
                EditMatrix.from_json(json.dumps({"rows": 5, "cols": 4,
                                                 "cells": [[r, c, op.value]]}))

    def test_json_format(self):
        m = EditMatrix.from_cells(3, 4, {(2, 3, EditOp.PRE_INSERT), (0, 1, EditOp.SUBSTITUTE),
                                         (0, 1, EditOp.PRE_INSERT)})
        assert m.to_json() == ('{"rows": 3, "cols": 4, '
                               '"cells": [[0, 1, "I"], [0, 1, "S"], [2, 3, "I"]]}')

    def test_masks_are_read_only_copies(self):
        source = np.zeros((len(OPS), 2, 3), dtype=bool)
        m = EditMatrix(source)
        source[:, 0, 0] = True
        assert m.cells == frozenset()
        for op in EditOp:
            with pytest.raises(ValueError):
                m.mask(op)[0, 0] = True

    def test_rejects_mismatched_masks(self):
        with pytest.raises(ValueError, match="shape"):
            EditMatrix([np.zeros((2, 3)), np.zeros((2, 4))])
        labels = np.zeros((len(OPS), 2, 2))
        labels[OPS.index(EditOp.SUBSTITUTE)] = np.eye(2)
        with pytest.raises(ValueError, match="sentinel"):
            EditMatrix(labels)

    @pytest.mark.parametrize("shape", [(2, 3), (len(OPS) + 1, 2, 3), (1, 2, 3),
                                       (len(OPS), 1, 2, 3)])
    def test_rejects_labels_off_the_operation_axis(self, shape):
        with pytest.raises(ValueError, match=rf"\({len(OPS)}, rows, cols\)"):
            EditMatrix(np.zeros(shape, dtype=bool))

    def test_mask_is_a_read_only_view_of_labels(self):
        cells = {(0, 1, EditOp.SUBSTITUTE), (1, 2, EditOp.PRE_INSERT)}
        m = EditMatrix.from_cells(2, 3, cells)
        assert m.labels.shape == (len(OPS), 2, 3) and not m.labels.flags.writeable
        for o, op in enumerate(OPS):
            assert np.shares_memory(m.mask(op), m.labels)
            assert np.array_equal(m.mask(op), m.labels[o])
            assert not m.mask(op).flags.writeable
        assert m.cells == cells


class TestBuildEditMatrix:
    def test_table1_cell_blocks(self, table1):
        inp = prepared(table1)
        matrix, report = build_edit_matrix(table1, inp)
        assert report.fully_expressible
        subs = {(r, c) for r, c, op in matrix.cells if op is EditOp.SUBSTITUTE}
        ins = {(r, c) for r, c, op in matrix.cells if op is EditOp.PRE_INSERT}
        # 史密斯: 3 rows x 1 col; 菜肴的类型: 5 rows x 1 col
        assert len(subs) == 3 and {c for _, c in subs} == {2}
        assert len(ins) == 5 and {c for _, c in ins} == {6}
        rows = sorted(r for r, _ in subs)
        assert rows == list(range(rows[0], rows[0] + 3))

    def test_identity_pair_empty_matrix(self):
        d = zh_dialogue(["历史"], "考口语啊", "考口语啊")
        inp = prepared(d)
        matrix, report = build_edit_matrix(d, inp)
        assert matrix.cells == frozenset()
        assert report.fully_expressible

    def test_novel_word_flagged_partial(self):
        d = zh_dialogue(["历史"], "考口语", "考新口语")
        matrix, report = build_edit_matrix(d, prepared(d))
        assert not report.fully_expressible
        assert report.skipped_spans == ["新"]
        assert matrix.cells == frozenset()

    @pytest.mark.parametrize("histories, inc, rew, want", [
        (["史密斯需要在附近找一家昂贵的餐馆。", "史密斯关心菜肴的类型吗？"],
         "不，他不关心。", "不，史密斯不关心菜肴的类型。", True),
        (["历史"], "考口语", "考新口语", False),  # a skipped span
        (["历史"], "考口语", "考语", False),  # a deletion
    ], ids=["full", "skipped-span", "deletion"])
    def test_fully_expressible_is_nothing_skipped_or_deleted(
            self, monkeypatch, histories, inc, rew, want):
        def spans(*args):
            raise AssertionError("the report decoded a gold matrix")

        monkeypatch.setattr(rewrite_module, "_spans", spans)
        d = zh_dialogue(histories, inc, rew)
        _, report = build_edit_matrix(d, prepared(d))
        assert report.fully_expressible is want
        assert report.fully_expressible is (not report.skipped_spans
                                            and not report.deletions)
        assert report.to_dict()["fully_expressible"] is want
        assert aggregate_report([report])["full"] == int(want)

    def test_missing_gold_raises(self):
        d = zh_dialogue(["历史"], "考口语")
        with pytest.raises(ValueError, match="gold|rewritten"):
            build_edit_matrix(d, prepared(d))

    def test_round_trip_table1(self, table1):
        inp = prepared(table1)
        matrix, _ = build_edit_matrix(table1, inp)
        spans = resolve_conflicts(cells_to_spans(matrix))
        out = apply_edits(table1.incomplete, spans, inp)
        assert out.texts() == table1.rewritten.texts()

    def test_rows_exclude_query_region(self, table1):
        inp = prepared(table1)
        matrix, _ = build_edit_matrix(table1, inp)
        for r, c, op in matrix.cells:
            assert inp.history_range[0] <= r < inp.history_range[1]


def _utterances(lengths, alphabet="ab"):
    return [Utterance.from_texts(t) for n in lengths for t in product(alphabet, repeat=n)]


def test_gold_matrix_decodes_to_rewrite_when_nothing_skipped_or_deleted():
    """Every dialogue over {a, b} with 1-2 history turns of 1-2 tokens, an
    incomplete utterance of 0-3 tokens and a rewrite of 0-4: whenever
    nothing is skipped or deleted, the gold matrix decodes back to the
    rewrite exactly, which is what ``fully_expressible`` relies on."""
    turns = _utterances([1, 2])
    histories = [(h,) for h in turns] + list(product(turns, repeat=2))
    query = Utterance.from_texts(["q"])
    total = full = 0
    for history, incomplete in product(histories, _utterances(range(4))):
        dialogue = Dialogue(history, incomplete)
        inp = build_input_sequence(query, dialogue)
        for rewritten in _utterances(range(5)):
            d = Dialogue(history, incomplete, rewritten)
            matrix, report = build_edit_matrix(d, inp)
            total += 1
            if not report.fully_expressible:
                continue
            full += 1
            out = apply_edits(incomplete, resolve_conflicts(cells_to_spans(matrix)), inp)
            assert out.texts() == rewritten.texts(), (history, incomplete, rewritten)
    assert (total, full) == (19530, 6662)
