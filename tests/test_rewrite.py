import copy
import json
import types
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from iurkit.datamodel import Dialogue, Utterance, build_input_sequence
from iurkit.querygen import DependencyParse, PronounLexicon, build_query
from iurkit.rewrite import (Diagnostics, EditSpan, _components, _label, _spans,
                            apply_edits, cells_to_spans, decode_labels, merge_matrices,
                            resolve_conflicts, rewrite, rewrite_batch)
from iurkit.scoring import (ScoreGrid, TrainExample, build_vocab, init_model,
                            load_model, params_items, save_model, score_all, train_em)
from iurkit.supervision import OPS, EditMatrix, EditOp, build_edit_matrix
from synthetic import PRONOUNS, make_corpus


def test_package_attribute_rewrite_is_the_module():
    """The package exports no ``rewrite`` function that would hide the
    submodule, so ``import iurkit.rewrite as m`` binds the module."""
    import iurkit.rewrite as module
    assert isinstance(module, types.ModuleType)
    assert module.rewrite is rewrite


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
        matrix = Diagnostics(np.stack([grids[op].values for op in OPS]), theta=theta).matrix
        assert matrix == merge_matrices([decode_labels(g, theta) for g in grids.values()])


def grid_input(n_rows, n_cols):
    """An incomplete utterance and an input whose grids are n_rows x n_cols."""
    dialogue = Dialogue((Utterance.from_texts(["h"] * (n_rows - 1)),),
                        Utterance.from_texts(["i"] * (n_cols - 1), 1))
    return dialogue.incomplete, build_input_sequence(Utterance.from_texts(["q"]), dialogue)


# Per-example decoding as it ran before a chunk was decoded at once: one
# threshold and one 2-D labeling per grid. Kept as the reference that the
# chunk decoder must equal bit for bit.
REFERENCE_STRUCTURE = {
    EditOp.SUBSTITUTE: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    EditOp.PRE_INSERT: np.array([[0, 1, 0], [0, 1, 0], [0, 1, 0]], dtype=bool),
}


def reference_threshold(grid, theta):
    labels = np.asarray(grid.values) >= theta
    if grid.op is EditOp.SUBSTITUTE:
        labels[:, -1:] = False
    return labels


def reference_cells_to_spans(matrix, grids):
    spans = []
    for op, structure in REFERENCE_STRUCTURE.items():
        mask = matrix.mask(op)
        if not mask.any():
            continue
        values = np.asarray(grids[op].values)
        labels, _ = ndimage.label(mask, structure=structure)
        for rs, cs in ndimage.find_objects(labels):
            member = mask[rs, cs]
            score = float(np.mean(values[rs, cs][member]))
            cols = (cs.start, cs.stop if op is EditOp.SUBSTITUTE else cs.start)
            spans.append(EditSpan((rs.start, rs.stop), cols, score, bool(member.all())))
    return spans


def padded_chunk(cells):
    """Per-input ``(2, rows, cols)`` scores in ``OPS`` order as one zero
    padded (2, B, R, C) chunk, the layout ``_forward`` writes, and the shapes."""
    shapes = [c.shape[1:] for c in cells]
    values = np.zeros((2, len(cells), max(r for r, _ in shapes), max(c for _, c in shapes)))
    for b, (c, (rows, cols)) in enumerate(zip(cells, shapes)):
        values[:, b, :rows, :cols] = c
    return values, shapes


def assert_chunk_decodes_as_each_input(cells, theta):
    """The chunk decoder of ``rewrite_batch`` (one threshold, one labeling
    per operation) gives each input the labels, proposed spans, surviving
    spans and output of the reference decoder run on that input alone."""
    values, shapes = padded_chunk(cells)
    labels = _label(values, shapes, theta)
    proposed = _spans(labels, values)
    assert len(proposed) == len(cells)
    for b, (rows, cols) in enumerate(shapes):
        grids = {op: ScoreGrid(op, values[o, b, :rows, :cols]) for o, op in enumerate(OPS)}
        matrix = EditMatrix(np.stack([reference_threshold(grids[op], theta) for op in OPS]))
        for op in EditOp:
            mask = labels[OPS.index(op)]
            assert np.array_equal(mask[b, :rows, :cols], matrix.mask(op))
            assert not mask[b, rows:].any() and not mask[b, :, cols:].any()
        want = reference_cells_to_spans(matrix, grids)
        assert proposed[b] == want  # EditSpan equality compares score and filled with ==
        kept = resolve_conflicts(proposed[b])
        assert kept == resolve_conflicts(want)
        incomplete, inp = grid_input(rows, cols)
        assert apply_edits(incomplete, kept, inp) == \
            apply_edits(incomplete, resolve_conflicts(want), inp)


@st.composite
def score_chunks(draw):
    theta = draw(st.sampled_from([-0.5, 0.0, 0.1, 0.3]))
    value = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, theta, 0.3, 1.0]),
                      st.floats(-1, 1, allow_nan=False))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        cells.append(np.array(draw(st.lists(value, min_size=2 * rows * cols,
                                            max_size=2 * rows * cols))).reshape(2, rows, cols))
    return cells, theta


def cells_of(rows, cols, fill=-1.0, insert=(), substitute=()):
    """(2, rows, cols) scores in ``OPS`` order: ``fill`` everywhere but
    at the ``(row, col, value)`` entries of each operation."""
    c = np.full((2, rows, cols), fill)
    for o, entries in enumerate((insert, substitute)):
        for r, col, v in entries:
            c[o, r, col] = v
    return c


def test_one_operation_axis(tmp_path):
    """``OPS`` orders every operation axis: the heads of an initialized,
    loaded or copied model, and the label rows ``_label`` returns. A lone
    operation's grid decodes to cells of that operation only."""
    model = init_model(build_vocab([]), 8, 4, seed=0)
    save_model(tmp_path / "m.bin", model)
    loaded, _ = load_model(tmp_path / "m.bin")
    heads = [f"head.{op.value}.{k}" for op in OPS for k in ("wq", "bq", "wk", "bk")]
    assert heads[0] == "head.I.wq" and heads[-1] == "head.S.bk"
    for m in (model, loaded, copy.deepcopy(model)):
        assert [n for n, _ in params_items(m) if n.startswith("head.")] == heads
        assert list(m.head.per_op) == list(OPS)

    labels = _label(np.ones((len(OPS), 2, 3, 4)), [(3, 4), (2, 3)], 0.5)
    for o, op in enumerate(OPS):
        want = np.zeros((2, 3, 4), dtype=bool)
        want[0], want[1, :2, :3] = True, True
        if o == OPS.index(EditOp.SUBSTITUTE):  # each input's own sentinel column
            want[0, :, 3] = want[1, :, 2] = False
        assert np.array_equal(labels[o], want), op

    values = np.array([[0.5, -1.0, 0.2], [0.0, 0.3, 0.9]])
    assert decode_labels(ScoreGrid(EditOp.SUBSTITUTE, values), 0.1) == \
        EditMatrix.from_cells(2, 3, [(0, 0, "S"), (1, 1, "S")])
    assert decode_labels(ScoreGrid(EditOp.PRE_INSERT, values), 0.1) == \
        EditMatrix.from_cells(2, 3, [(0, 0, "I"), (0, 2, "I"), (1, 1, "I"), (1, 2, "I")])


class TestChunkDecode:
    @given(score_chunks())
    @settings(max_examples=300, deadline=None)
    def test_chunk_equals_per_input_reference(self, chunk):
        assert_chunk_decodes_as_each_input(*chunk)

    @pytest.mark.parametrize("cells, theta", [
        # the zero padding of the smaller input passes a threshold <= 0
        ([cells_of(2, 2), cells_of(4, 3, insert=[(3, 0, 0.5)])], 0.0),
        ([cells_of(1, 1), cells_of(3, 4)], -0.5),
        # Substitute above theta on the shorter input's own sentinel column
        ([cells_of(3, 2, substitute=[(0, 1, 0.5), (1, 1, 0.5), (1, 0, 0.4)]),
          cells_of(3, 4, substitute=[(2, 3, 0.9)])], 0.1),
        # an L whose box holds a cell of another component: its score is
        # the mean over both
        ([cells_of(3, 4, substitute=[(0, 0, 0.2), (1, 0, 0.3), (2, 0, 0.4), (2, 1, 0.5),
                                     (2, 2, 0.6), (0, 2, 0.9)])], 0.1),
        # the last row of one input and the first of the next both labeled
        ([cells_of(2, 2, insert=[(1, 0, 0.5)], substitute=[(1, 0, 0.5)]),
          cells_of(2, 2, insert=[(0, 0, 0.7)], substitute=[(0, 0, 0.7)])], 0.1),
        # inputs with no labeled cell between labeled ones
        ([cells_of(2, 3, insert=[(0, 1, 0.5), (1, 1, 0.7)]), cells_of(4, 2),
          cells_of(3, 3, substitute=[(1, 1, 0.2)]), cells_of(1, 1)], 0.1),
        # a theta below nearly every score: almost every cell of large
        # grids labeled, the decoder's worst case
        ([np.random.default_rng(0).uniform(-1, 1, (2, 30, 14)),
          np.random.default_rng(1).uniform(-1, 1, (2, 25, 9))], -0.95),
    ], ids=["theta-zero", "theta-negative", "short-sentinel", "unfilled-box", "adjacent-inputs",
         "empty-inputs", "dense-theta"])
    def test_named_cases(self, cells, theta):
        assert_chunk_decodes_as_each_input(cells, theta)

    def test_unfilled_box_scores_every_labeled_cell_in_it(self):
        values, shapes = padded_chunk([cells_of(
            3, 4, substitute=[(0, 0, 0.2), (1, 0, 0.3), (2, 0, 0.4), (2, 1, 0.5),
                              (2, 2, 0.6), (0, 2, 0.9)])])
        (spans,) = _spans(_label(values, shapes, 0.1), values)
        l_shape, other = sorted(spans, key=lambda s: s.cols)
        assert (l_shape.source_rows, l_shape.cols, l_shape.filled) == ((0, 3), (0, 3), False)
        assert l_shape.score == float(np.mean([0.2, 0.9, 0.3, 0.4, 0.5, 0.6]))
        assert (other.source_rows, other.cols, other.filled) == ((0, 1), (2, 3), True)


def reference_components(mask, op):
    """``ndimage.label`` and ``find_objects`` of each input's (R, C) grid of
    a (B, R, C) mask as ``_components`` boxes: ``(b, r0, r1, c0, c1)``."""
    boxes = []
    for b, grid in enumerate(mask):
        labels, _ = ndimage.label(grid, structure=REFERENCE_STRUCTURE[op])
        boxes.extend((b, rs.start, rs.stop, cs.start, cs.stop)
                     for rs, cs in ndimage.find_objects(labels))
    return boxes


class TestComponents:
    """``_components`` finds the components, bounding boxes and order of
    ``ndimage.label`` and ``find_objects`` for both connectivities."""

    @pytest.mark.parametrize("rows, cols", [(3, 4), (4, 3)])
    @pytest.mark.parametrize("op", list(EditOp))
    def test_every_small_mask(self, rows, cols, op):
        # all 4096 masks at once: a batch of them also checks that no
        # component joins two inputs
        bits = np.arange(2 ** (rows * cols))[:, None] >> np.arange(rows * cols) & 1
        masks = bits.astype(bool).reshape(-1, rows, cols)
        assert _components(masks, op is EditOp.SUBSTITUTE) == reference_components(masks, op)

    @given(st.data(), st.integers(1, 3), st.integers(1, 30), st.integers(1, 14),
           st.sampled_from(list(EditOp)))
    @settings(max_examples=300, deadline=None)
    def test_any_density(self, data, batch, rows, cols, op):
        shape = (batch, rows, cols)
        kind = data.draw(st.sampled_from(["random", "all", "checkerboard"]))
        if kind == "all":
            mask = np.ones(shape, dtype=bool)
        elif kind == "checkerboard":
            mask = np.indices(shape).sum(axis=0) % 2 == data.draw(st.integers(0, 1))
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            mask = rng.random(shape) < data.draw(st.floats(0, 1))
        assert _components(mask, op is EditOp.SUBSTITUTE) == reference_components(mask, op)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("caller", ["rewrite_batch", "rewrite", "decode", "train_em"])
def test_non_finite_theta_raises(caller, theta):
    d = zh_dialogue(["史密斯需要在附近找一家昂贵的餐馆。"], "不，他不关心。", "不，史密斯不关心。")
    lex = PronounLexicon.default("zh")
    inp = prepared(d)
    model = init_model(build_vocab([inp]), 8, 4, seed=0)
    call = {
        "rewrite_batch": lambda: next(rewrite_batch([d], model, theta, lex)),
        "rewrite": lambda: rewrite(d, model, theta, lex),
        "decode": lambda: Diagnostics(score_all(inp, model), theta=theta).matrix,
        "train_em": lambda: train_em(
            model, [TrainExample(inp, build_edit_matrix(d, inp)[0], "x", d)], theta),
    }[caller]
    with pytest.raises(ValueError, match=r"^theta must be finite, got "):
        call()


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
        assert diag.query.tokens[2] == "[UNK]"

    def test_diagnostics_json_numbers_round_trip(self):
        """to_json writes every grid cell and span score as a JSON number
        that parses back to exactly the scored double."""
        d = zh_dialogue(["历史"], "不，他不关心。")
        lex = PronounLexicon.default("zh")
        inp = prepared(d)
        model = init_model(build_vocab([inp]), 8, 4, seed=0)
        _, diag = rewrite(d, model, theta=0.1, lexicon=lex)
        obj = json.loads(diag.to_json())
        for op, grid in zip(OPS, diag.scores):
            cells = obj["grids"][op.value]
            assert all(type(v) is float for row in cells for v in row)
            assert np.array_equal(np.array(cells, dtype=np.float64), grid)
        assert [s["score"] for s in obj["spans"]] == [s.score for s in diag.spans]

    @pytest.mark.parametrize("n_parses", [2, 6])
    def test_batch_parse_count_mismatch_raises_before_any_result(self, n_parses):
        dialogues = [zh_dialogue(["历史"], "不，他不关心。", eid=str(i)) for i in range(5)]
        model = init_model(build_vocab([prepared(dialogues[0])]), 8, 4, seed=0)
        parses = [flat_parse(dialogues[0].incomplete)] * n_parses
        batch = rewrite_batch(dialogues, model, 0.1, PronounLexicon.default("zh"), parses)
        with pytest.raises(ValueError, match=f"^{n_parses} parses for 5 dialogues$"):
            next(batch)

    def test_empty_diagnostics(self):
        diag = Diagnostics()
        assert diag.matrix is None
        assert diag.to_json() == ('{"query": [], "input": [], "matrix": null, '
                                  '"spans": [], "grids": {}}')

    def test_diagnostics_span_keys(self):
        diag = Diagnostics(spans=[span((0, 2), (1, 3), 0.5), span((4, 5), (3, 3), 0.25)])
        obj = json.loads(diag.to_json())
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
