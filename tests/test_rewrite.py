import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iurkit.datamodel import Dialogue, Utterance, build_input_sequence
from iurkit.querygen import DependencyParse, PronounLexicon, build_query
from iurkit.rewrite import (Diagnostics, EditSpan, apply_edits, cells_to_spans,
                            decode, decode_labels, merge_matrices,
                            resolve_conflicts, rewrite)
from iurkit.scoring import (ScoreGrid, TrainExample, build_vocab, init_model,
                            score_all)
from iurkit.supervision import EditMatrix, EditOp, build_edit_matrix
from synthetic import PRONOUNS, make_corpus

def zh_dialogue(histories, inc, rew=None, eid="x"):
    hs = tuple(Utterance.from_text(h, speaker_turn=i) for i, h in enumerate(histories))
    n = len(hs)
    return Dialogue(hs, Utterance.from_text(inc, speaker_turn=n),
                    Utterance.from_text(rew, speaker_turn=n) if rew else None, eid)


def flat_parse(utterance):
    n = len(utterance)
    return DependencyParse(tuple([0] + [1] * (n - 1)),
                           tuple(["root"] + ["dep"] * (n - 1)),
                           tuple(utterance.texts()))


def prepared(dialogue):
    lex = PronounLexicon.default("zh")
    query = build_query(dialogue.incomplete, lex, flat_parse(dialogue.incomplete),
                        unify=True)
    return build_input_sequence(query, dialogue)


class TestDecodeLabels:
    def test_threshold_fixture(self):
        grid = ScoreGrid(EditOp.PRE_INSERT, [[0.2, -0.3], [0.05, 0.1]])
        m = decode_labels(grid, 0.1)
        assert {(r, c) for r, c, _ in m.cells} == {(0, 0), (1, 1)}

    def test_lower_threshold_adds_cells(self):
        grid = ScoreGrid(EditOp.PRE_INSERT, [[0.2, -0.3], [0.05, 0.1]])
        m = decode_labels(grid, 0.05)
        assert {(r, c) for r, c, _ in m.cells} == {(0, 0), (1, 0), (1, 1)}

    def test_threshold_is_inclusive(self):
        grid = ScoreGrid(EditOp.SUBSTITUTE, [[0.1, 0.0]])
        m = decode_labels(grid, 0.1)
        assert (0, 0, EditOp.SUBSTITUTE) in m.cells

    def test_substitute_dropped_on_sentinel_column(self):
        grid = ScoreGrid(EditOp.SUBSTITUTE, [[0.5, 0.5]])
        m = decode_labels(grid, 0.1)
        assert {(r, c) for r, c, _ in m.cells} == {(0, 0)}

    def test_insert_allowed_on_sentinel_column(self):
        grid = ScoreGrid(EditOp.PRE_INSERT, [[0.5, 0.5]])
        m = decode_labels(grid, 0.1)
        assert {(r, c) for r, c, _ in m.cells} == {(0, 0), (0, 1)}

    @given(st.lists(st.lists(st.floats(-1, 1, allow_nan=False), min_size=3,
                             max_size=3), min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_monotone_in_theta(self, rows):
        grid = ScoreGrid(EditOp.PRE_INSERT, rows)
        strict = decode_labels(grid, 0.5).cells
        loose = decode_labels(grid, 0.1).cells
        assert strict <= loose


class TestMergeMatrices:
    def test_union(self):
        a = EditMatrix.from_cells(2, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))
        b = EditMatrix.from_cells(2, 2, frozenset({(1, 1, EditOp.PRE_INSERT)}))
        m = merge_matrices([a, b])
        assert m.cells == a.cells | b.cells


class TestDecode:
    @given(st.data(), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60)
    def test_one_matrix_equals_merged_labels(self, data, n_rows, n_cols):
        # values equal to theta are labeled; Substitute scores on the
        # sentinel (last) column are drawn like any other cell
        theta = 0.1
        value = st.one_of(st.just(theta), st.floats(-1, 1, allow_nan=False))
        grids = {op: ScoreGrid(op, data.draw(st.lists(
                     st.lists(value, min_size=n_cols, max_size=n_cols),
                     min_size=n_rows, max_size=n_rows)))
                 for op in EditOp}
        dialogue = Dialogue((Utterance.from_texts(["h"] * (n_rows - 1)),),
                            Utterance.from_texts(["i"] * (n_cols - 1), 1))
        inp = build_input_sequence(Utterance.from_texts(["q"]), dialogue)
        matrix, _, _ = decode(grids, inp, dialogue.incomplete, theta)
        assert matrix == merge_matrices([decode_labels(g, theta) for g in grids.values()])


def oracle_components(cells):
    """Breadth-first 4-connected components with bounding boxes."""
    todo = set(cells)
    boxes = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        queue = deque([seed])
        while queue:
            r, c = queue.popleft()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in todo:
                    todo.discard(nb)
                    comp.add(nb)
                    queue.append(nb)
        rows = (min(r for r, _ in comp), max(r for r, _ in comp) + 1)
        cols = (min(c for _, c in comp), max(c for _, c in comp) + 1)
        filled = len(comp) == (rows[1] - rows[0]) * (cols[1] - cols[0])
        boxes.append((rows, cols, filled))
    return sorted(boxes)


class TestCellsToSpans:
    def test_single_rectangle(self):
        cells = frozenset({(r, c, EditOp.SUBSTITUTE)
                           for r in (3, 4, 5) for c in (1,)})
        m = EditMatrix.from_cells(8, 4, cells)
        (span,) = cells_to_spans(m)
        assert span.source_rows == (3, 6)
        assert span.cols == (1, 2)
        assert span.op is EditOp.SUBSTITUTE
        assert span.filled

    def test_two_separate_components(self):
        cells = frozenset({(0, 0, EditOp.SUBSTITUTE), (2, 2, EditOp.SUBSTITUTE)})
        m = EditMatrix.from_cells(4, 4, cells)
        spans = cells_to_spans(m)
        assert len(spans) == 2

    def test_ragged_component_flagged(self):
        # an L shape: bounding box kept but marked unfilled
        cells = frozenset({(0, 0, EditOp.SUBSTITUTE), (1, 0, EditOp.SUBSTITUTE),
                           (1, 1, EditOp.SUBSTITUTE)})
        m = EditMatrix.from_cells(3, 3, cells)
        (span,) = cells_to_spans(m)
        assert span.source_rows == (0, 2)
        assert span.cols == (0, 2)
        assert not span.filled

    def test_insert_column_runs(self):
        cells = frozenset({(1, 2, EditOp.PRE_INSERT), (2, 2, EditOp.PRE_INSERT),
                           (5, 2, EditOp.PRE_INSERT)})
        m = EditMatrix.from_cells(7, 4, cells)
        spans = cells_to_spans(m)
        assert [(s.source_rows, s.cols) for s in spans] == \
            [((1, 3), (2, 2)), ((5, 6), (2, 2))]
        assert {s.op for s in spans} == {EditOp.PRE_INSERT}

    def test_scores_are_component_means(self):
        values = np.zeros((3, 3))
        values[0, 0], values[1, 0] = 0.4, 0.8
        grids = {EditOp.SUBSTITUTE: ScoreGrid(EditOp.SUBSTITUTE, values)}
        cells = frozenset({(0, 0, EditOp.SUBSTITUTE), (1, 0, EditOp.SUBSTITUTE)})
        (span,) = cells_to_spans(EditMatrix.from_cells(3, 3, cells), grids)
        assert span.score == pytest.approx(0.6)

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=14))
    @settings(max_examples=120)
    def test_matches_flood_fill_oracle(self, cells):
        m = EditMatrix.from_cells(6, 6, frozenset({(r, c, EditOp.SUBSTITUTE)
                                                   for r, c in cells}))
        spans = cells_to_spans(m)
        got = sorted((s.source_rows, s.cols, s.filled) for s in spans)
        assert got == oracle_components(cells)


def span(rows, cols, score=0.0):
    return EditSpan(rows, cols, score)


def clash(a, b):
    """The conflict rule stated case by case on column intervals."""
    (a0, a1), (b0, b1) = a, b
    if a0 == a1 and b0 == b1:
        return a0 == b0          # duplicate inserts
    if a0 == a1:
        return b0 < a0 < b1      # insert strictly inside a replace
    if b0 == b1:
        return a0 < b0 < a1
    return a0 < b1 and b0 < a1   # overlapping replaces


@st.composite
def span_lists(draw, n_rows, n_cols):
    spans = []
    for _ in range(draw(st.integers(0, 8))):
        r0 = draw(st.integers(0, n_rows - 1))
        a = draw(st.integers(0, n_cols))
        spans.append(span((r0, draw(st.integers(r0 + 1, n_rows))),
                          (a, draw(st.integers(a, n_cols))),
                          draw(st.sampled_from([0.1, 0.2, 0.3]))))
    return spans


class TestResolveConflicts:
    def test_overlapping_replaces_keep_best(self):
        a = span((0, 2), (1, 3), 0.9)
        b = span((4, 5), (2, 4), 0.4)
        assert resolve_conflicts([a, b]) == [a]

    def test_tie_prefers_lower_source_row(self):
        a = span((3, 4), (1, 2), 0.5)
        b = span((1, 2), (1, 2), 0.5)
        assert resolve_conflicts([a, b]) == [b]

    def test_disjoint_replaces_both_kept(self):
        a = span((0, 1), (0, 1), 0.2)
        b = span((2, 3), (2, 3), 0.1)
        assert set(resolve_conflicts([a, b])) == {a, b}

    def test_duplicate_inserts_keep_best(self):
        a = span((0, 1), (2, 2), 0.3)
        b = span((4, 6), (2, 2), 0.8)
        assert resolve_conflicts([a, b]) == [b]

    def test_interior_insert_dropped(self):
        rep = span((0, 1), (1, 4), 0.9)
        inside = span((2, 3), (2, 2), 0.5)
        assert resolve_conflicts([rep, inside]) == [rep]

    def test_boundary_insert_kept(self):
        rep = span((0, 1), (1, 4), 0.9)
        before = span((2, 3), (1, 1), 0.5)
        after = span((3, 4), (4, 4), 0.5)
        kept = resolve_conflicts([rep, before, after])
        assert set(kept) == {rep, before, after}

    def test_output_sorted_by_column(self):
        a = span((0, 1), (5, 5), 0.1)
        b = span((0, 1), (1, 2), 0.1)
        assert resolve_conflicts([a, b]) == [b, a]

    @given(st.data())
    @settings(max_examples=300)
    def test_kept_spans_conflict_free_and_applicable(self, data):
        d = zh_dialogue(["史密斯需要在附近找一家昂贵的餐馆。"], "不，他不关心。")
        inp = prepared(d)
        spans = data.draw(span_lists(inp.context_length, len(d.incomplete)))
        kept = resolve_conflicts(spans)
        for i, s in enumerate(kept):
            assert not any(clash(s.cols, t.cols) for t in kept[i + 1:])
        # every dropped span lost to a kept one
        for s in spans:
            assert s in kept or any(clash(s.cols, k.cols) for k in kept)
        apply_edits(d.incomplete, kept, inp)


class TestApplyEdits:
    def test_no_spans_copies_input(self):
        d = zh_dialogue(["历史"], "考口语")
        out = apply_edits(d.incomplete, [], prepared(d))
        assert out.texts() == d.incomplete.texts()

    def test_coref_and_end_insert(self):
        # the worked running example: pronoun swapped for a name from the
        # newer history turn, a noun phrase appended before the period
        d = zh_dialogue(["史密斯需要在附近找一家昂贵的餐馆。", "史密斯关心菜肴的类型吗？"],
                        "不，他不关心。", "不，史密斯不关心菜肴的类型。")
        inp = prepared(d)
        base = inp.history_turns[1][0]
        spans = [span((base, base + 3), (2, 3)),
                 span((base + 5, base + 10), (6, 6))]
        out = apply_edits(d.incomplete, spans, inp)
        assert out.text() == "不，史密斯不关心菜肴的类型。"

    def test_sentinel_insert_restores_trailing_phrase(self):
        # dropped object recovered from the first history turn and appended
        d = zh_dialogue(["帮我找一下西安到商洛的顺风车", "哪的"],
                        "能不能找到", "能不能找到西安到商洛的顺风车")
        inp = prepared(d)
        base = inp.history_turns[0][0]
        spans = [span((base + 5, base + 14),
                      (len(d.incomplete), len(d.incomplete)))]
        out = apply_edits(d.incomplete, spans, inp)
        assert out.text() == "能不能找到西安到商洛的顺风车"

    def test_front_insert(self):
        d = zh_dialogue(["雅思第一项是什么"], "考口语啊", "雅思第一项考口语啊")
        inp = prepared(d)
        base = inp.history_turns[0][0]
        spans = [span((base, base + 5), (0, 0))]
        out = apply_edits(d.incomplete, spans, inp)
        assert out.text() == "雅思第一项考口语啊"

    def test_rows_outside_context_rejected(self):
        d = zh_dialogue(["历史"], "考口语")
        inp = prepared(d)
        bad = [span((inp.context_length, inp.context_length + 1), (0, 1))]
        with pytest.raises(ValueError, match="context"):
            apply_edits(d.incomplete, bad, inp)

    def test_columns_outside_utterance_rejected(self):
        d = zh_dialogue(["历史"], "考口语")
        inp = prepared(d)
        bad = [span((0, 1), (4, 4))]
        with pytest.raises(ValueError, match="columns"):
            apply_edits(d.incomplete, bad, inp)

    @pytest.mark.parametrize("cols", [
        [(0, 2), (1, 3)],   # overlapping replaces
        [(1, 1), (1, 1)],   # duplicate inserts
        [(0, 3), (1, 1)],   # insert strictly inside a replace
    ])
    def test_conflicting_spans_rejected(self, cols):
        d = zh_dialogue(["历史"], "考口语")
        inp = prepared(d)
        base = inp.history_turns[0][0]
        spans = [span((base, base + 1), c) for c in cols]
        with pytest.raises(ValueError, match="conflicting"):
            apply_edits(d.incomplete, spans, inp)


class TestRewritePipeline:
    def test_untrained_model_copies(self):
        d = zh_dialogue(["史密斯关心菜肴的类型吗？"], "不，他不关心。")
        lex = PronounLexicon.default("zh")
        inp = prepared(d)
        model = init_model(build_vocab([inp]), 8, 4, seed=0)
        # zero every head so all scores are 0, below the threshold
        for head in model.head.per_op.values():
            head.wq[:] = 0.0
            head.wk[:] = 0.0
        out, diag = rewrite(d, model, theta=0.1, lexicon=lex)
        assert out.texts() == d.incomplete.texts()
        assert diag.spans == []
        assert diag.query_texts[2] == "[UNK]"

    def test_diagnostics_json_precise_mode(self):
        d = zh_dialogue(["历史"], "不，他不关心。")
        lex = PronounLexicon.default("zh")
        inp = prepared(d)
        model = init_model(build_vocab([inp]), 8, 4, seed=0)
        _, diag = rewrite(d, model, theta=0.1, lexicon=lex)
        obj = json.loads(diag.to_json(precise=True))
        grid = obj["grids"]["S"]
        assert isinstance(grid[0][0], str)
        # 16 significant digits round-trip a double to within one ulp
        assert float(grid[0][0]) == pytest.approx(
            float(diag.grids[EditOp.SUBSTITUTE].values[0][0]), rel=1e-15)

    def test_diagnostics_span_keys(self):
        diag = Diagnostics(spans=[span((0, 2), (1, 3), 0.5), span((4, 5), (3, 3), 0.25)])
        obj = json.loads(diag.to_json(with_grids=False))
        assert obj["spans"] == [
            {"op": "S", "rows": [0, 2], "cols": [1, 3], "score": 0.5, "filled": True},
            {"op": "I", "rows": [4, 5], "cols": [3, 3], "score": 0.25, "filled": True}]

    def test_supervision_round_trip_corpus(self):
        # gold matrices decoded back through the span machinery must
        # reproduce every synthetic rewritten utterance
        lex = PronounLexicon.from_surface_forms(PRONOUNS)
        for ex in make_corpus(40, seed=2):
            q = build_query(ex.dialogue.incomplete, lex, ex.parse, unify=True)
            inp = build_input_sequence(q, ex.dialogue)
            matrix, report = build_edit_matrix(ex.dialogue, inp)
            assert report.fully_expressible, ex.dialogue.example_id
            spans = resolve_conflicts(cells_to_spans(matrix))
            out = apply_edits(ex.dialogue.incomplete, spans, inp)
            assert out.texts() == ex.dialogue.rewritten.texts()
