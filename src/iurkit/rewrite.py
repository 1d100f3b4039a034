"""Decoding: scores -> labeled cells -> edit spans -> rewritten text."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .datamodel import Dialogue, InputSequence, Utterance, build_input_sequence
from .querygen import DependencyParse, QueryTemplate, build_query
from .scoring import TrainExample, _score_chunks
from .supervision import OPS, EditMatrix, EditOp, op_of

@dataclass(frozen=True, slots=True)
class EditSpan:
    """Copy context rows ``source_rows`` over the half-open interval ``cols``
    of incomplete columns. An empty interval ``(c, c)`` inserts before
    column ``c`` (the sentinel column means end-of-utterance)."""

    source_rows: tuple[int, int]
    cols: tuple[int, int]
    score: float = 0.0
    filled: bool = True  # False when cells did not fill their bounding box

    def __post_init__(self):
        if self.source_rows[0] >= self.source_rows[1]:
            raise ValueError("source row interval must be non-empty")
        if not 0 <= self.cols[0] <= self.cols[1]:
            raise ValueError(f"bad column interval {self.cols}")

    @property
    def op(self) -> EditOp:
        return op_of(self.cols)


def _conflict(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Two column intervals cannot both be applied: they are equal, or they
    overlap (an insert conflicts with a replace only strictly inside it)."""
    return a == b or (a[0] < b[1] and b[0] < a[1])


def _label(values: np.ndarray, shapes, theta: float) -> np.ndarray:
    """Label 1 iff s >= theta for padded scores (n_ops, B, R, C) in ``OPS``
    order, of which input b fills the top-left ``shapes[b]``. Padding is
    never labeled, and neither is a Substitute cell on an input's own
    sentinel (last) column: the matrix invariant reserves it for Pre-Insert."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    labels = values >= theta
    sub = OPS.index(EditOp.SUBSTITUTE)
    for b, (rows, cols) in enumerate(shapes):
        labels[:, b, rows:] = False
        labels[:, b, :, cols:] = False
        labels[sub, b, :, cols - 1] = False
    return labels


def _matrix(scores: np.ndarray, theta: float) -> EditMatrix:
    """The edit matrix of the cells ``_label`` keeps in one input's
    ``scores`` (n_ops, rows, cols) in ``OPS`` order."""
    return EditMatrix(_label(scores[:, None], [scores.shape[1:]], theta)[:, 0])


def _stacked(grids, shape, fill: float) -> np.ndarray:
    """``grids`` (op -> ScoreGrid of ``shape``) as one (n_ops, rows, cols)
    array in ``OPS`` order; an operation without a grid scores ``fill``."""
    return np.stack([grids[op].values if op in grids else np.full(shape, fill)
                     for op in OPS])


def decode_labels(grid, theta: float) -> EditMatrix:
    """Threshold one score grid into an edit matrix of its operation."""
    return _matrix(_stacked({grid.op: grid}, grid.values.shape, -np.inf), theta)


def merge_matrices(matrices: Sequence[EditMatrix]) -> EditMatrix:
    """Union matrices of identical dimensions into one."""
    return EditMatrix(np.logical_or.reduce([m.labels for m in matrices]))


def _components(mask: np.ndarray, rectangles: bool
                ) -> list[tuple[int, int, int, int, int]]:
    """Bounding boxes ``(b, r0, r1, c0, c1)``, half-open, of the connected
    components of labeled cells in a (B, R, C) mask, input by input. Cells
    of one input connect to the cells above and below them, and with
    ``rectangles`` also to those left and right of them (4-connectivity,
    as Substitute); without it components are column runs (as
    Pre-Insert). Components come in the raster order of their first cell,
    the order in which a raster-scan labeling numbers them.

    One pass over the labeled cells in raster order grows runs: along a
    row with ``rectangles``, else down a column, where a run is already a
    component. A union-find then joins the row runs of adjacent rows of
    one input whose column intervals overlap. The cost grows with the
    number of labeled cells, not with the size of the mask."""
    cells = mask.ravel().nonzero()[0].tolist()  # np.flatnonzero, less overhead
    if not cells:
        return []
    n_rows, n_cols = mask.shape[1:]
    size = n_rows * n_cols
    # a cell grows the run whose last cell is one step before it, unless
    # it starts a row (along rows) or its input's grid (down columns)
    step, wrap = (1, n_cols) if rectangles else (n_cols, size)
    runs: list[list[int]] = []  # [first, last] flat cell, in order of first
    ends: dict[int, list[int]] = {}  # last cell -> its run
    for i in cells:
        run = ends.pop(i - step, None) if i % wrap >= step else None
        if run is None:
            run = [i, i]
            runs.append(run)
        run[1] = i
        ends[i] = run
    parent = list(range(len(runs)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    if rectangles:
        by_row: dict[int, list[int]] = {}  # row -> its runs, left to right
        for k, (first, _) in enumerate(runs):
            by_row.setdefault(first // n_cols, []).append(k)
        for row, here in by_row.items():
            above = by_row.get(row - 1, []) if row % n_rows else []
            i = j = 0
            while i < len(above) and j < len(here):
                (a0, a1), (b0, b1) = runs[above[i]], runs[here[j]]
                a0, a1 = a0 + n_cols, a1 + n_cols  # moved down to this row
                if a0 <= b1 and b0 <= a1:
                    parent[find(above[i])] = find(here[j])
                if a1 <= b1:
                    i += 1
                else:
                    j += 1
    # root -> [b, r0, r1, c0, c1], entered at each component's first run
    boxes: dict[int, list[int]] = {}
    for k, (first, last) in enumerate(runs):
        b, (r0, c0) = first // size, divmod(first % size, n_cols)
        r1, c1 = divmod(last % size, n_cols)
        box = boxes.setdefault(find(k), [b, r0, r1 + 1, c0, c1 + 1])
        box[2:] = r1 + 1, min(box[3], c0), max(box[4], c1 + 1)
    return [tuple(box) for box in boxes.values()]


def _spans(labels: np.ndarray, values: np.ndarray) -> list[list[EditSpan]]:
    """Each input's spans from labeled cells and their scores, both
    (n_ops, B, R, C) in ``OPS`` order, with one ``_components`` per
    operation for the whole batch; see ``cells_to_spans``. A batch with
    no labeled cell has no spans and does no span work."""
    spans: list[list[EditSpan]] = [[] for _ in range(labels.shape[1])]
    if not labels.any():
        return spans
    for op in (EditOp.SUBSTITUTE, EditOp.PRE_INSERT):
        mask, scores = labels[OPS.index(op)], values[OPS.index(op)]
        rectangles = op is EditOp.SUBSTITUTE
        for b, r0, r1, c0, c1 in _components(mask, rectangles):
            member = mask[b, r0:r1, c0:c1]
            cells = scores[b, r0:r1, c0:c1][member]
            score = float(cells.sum() / cells.size)  # np.mean's own sum and division
            cols = (c0, c1 if rectangles else c0)
            spans[b].append(EditSpan((r0, r1), cols, score, bool(member.all())))
    return spans


def cells_to_spans(matrix: EditMatrix, grids=None) -> list[EditSpan]:
    """Group labeled cells into spans.

    Substitute cells become maximal rectangles via 4-connected components
    plus bounding boxes; components that do not fill their box keep the box
    and are flagged ``filled=False``. Pre-Insert cells become maximal row
    runs per column. A span's score is the mean over the labeled cells of
    its box, taken from ``grids`` (op -> ScoreGrid) when given, else 0.
    """
    values = _stacked(grids or {}, matrix.labels.shape[1:], 0.0)
    (spans,) = _spans(matrix.labels[:, None], values[:, None])
    return spans


def resolve_conflicts(spans: Sequence[EditSpan]) -> list[EditSpan]:
    """Drop conflicting spans (see ``_conflict``), keeping the highest mean
    score; replaces take precedence over inserts, and ties go to the lower
    source row. The survivors are returned in column order."""
    kept: list[EditSpan] = []
    for s in sorted(spans, key=lambda s: (s.cols[0] == s.cols[1], -s.score,
                                          s.source_rows[0])):
        if not any(_conflict(s.cols, k.cols) for k in kept):
            kept.append(s)
    return sorted(kept, key=lambda s: s.cols)


def apply_edits(incomplete: Utterance, spans: Sequence[EditSpan],
                input: InputSequence) -> Utterance:
    """Emit the rewritten utterance: walking the spans in column order, copy
    the tokens before each span, then its source rows, then skip its
    columns. Conflicting spans are rejected, not resolved; without spans
    the result is ``incomplete`` itself."""
    if not spans:
        return incomplete
    ctx, n = input.context_length, len(incomplete)
    for s in spans:
        if not (0 <= s.source_rows[0] and s.source_rows[1] <= ctx):
            raise ValueError(f"span rows {s.source_rows} outside context region")
        if s.cols[1] > n:
            raise ValueError(f"span columns {s.cols} outside the utterance")
    spans = sorted(spans, key=lambda s: s.cols)
    for s, t in zip(spans, spans[1:]):  # in column order, a conflict has an adjacent one
        if _conflict(s.cols, t.cols):
            raise ValueError(f"conflicting spans at columns {s.cols} and {t.cols}")
    words = incomplete.texts()
    out: list[str] = []
    j = 0
    for s in spans:
        out.extend(words[j:s.cols[0]])
        out.extend(input.tokens[s.source_rows[0]:s.source_rows[1]])
        j = s.cols[1]
    out.extend(words[j:])
    return Utterance(tuple(out), incomplete.speaker_turn)


def _decode_chunks(items: Iterable[tuple[InputSequence, Optional[str]]], model,
                   theta: float) -> Iterator[tuple[np.ndarray, list[EditSpan]]]:
    """Each input's scores and surviving spans, in order: ``_score_chunks``,
    then one threshold and one labeling per operation for each chunk."""
    for values, shapes, scores in _score_chunks(items, model):
        proposed = _spans(_label(values, shapes, theta), values)
        yield from zip(scores, map(resolve_conflicts, proposed))


@dataclass
class Diagnostics:
    """Every intermediate of one rewrite. ``matrix`` is built from ``scores``
    (a view of its chunk's; see ``_score_chunks``) and ``theta`` on first read."""

    scores: Optional[np.ndarray] = None
    spans: list[EditSpan] = field(default_factory=list)
    theta: float = 0.0
    query: Optional[QueryTemplate] = None
    input: Optional[InputSequence] = None

    @cached_property
    def matrix(self) -> Optional[EditMatrix]:
        return None if self.scores is None else _matrix(self.scores, self.theta)

    def to_json(self) -> str:
        obj = {
            "query": self.query.texts() if self.query is not None else [],
            "input": self.input.texts() if self.input is not None else [],
            "matrix": json.loads(self.matrix.to_json()) if self.matrix else None,
            "spans": [{"op": s.op.value, "rows": list(s.source_rows),
                       "cols": list(s.cols),
                       "score": s.score, "filled": s.filled}
                      for s in self.spans],
            "grids": {} if self.scores is None else
                     {op.value: s.tolist() for op, s in zip(OPS, self.scores)},
        }
        return json.dumps(obj, ensure_ascii=False)


def example_error(dialogue: Dialogue, exc: ValueError) -> ValueError:
    """``exc`` with the id of the example it arose from in front."""
    return ValueError(f"example {dialogue.example_id!r}: {exc}")


def rewrite_batch(records: Iterable[tuple[Dialogue, Optional[DependencyParse]]],
                  model, theta: float, lexicon, *, unify: bool = True
                  ) -> Iterator[tuple[Utterance, Diagnostics]]:
    """Full inference pipeline for any number of ``(dialogue, parse)``
    records, read from any iterable as scoring reaches them, yielding each
    dialogue's ``(output, diagnostics)`` in order.

    query construction -> input assembly -> encode -> per-op scoring ->
    threshold decode -> span extraction -> conflict resolution -> edit
    application. Queries and inputs are built as scoring reaches them, so
    only one chunk's are held at a time, and each chunk is decoded at
    once. Each dialogue's diagnostics carry every intermediate. The
    results equal ``rewrite`` of each dialogue, and a ValueError names the
    example it arose from.
    """
    built = deque()  # (dialogue, query, input) awaiting their scores

    def inputs():
        for dialogue, parse in records:
            try:
                query = build_query(dialogue.incomplete, lexicon, parse, unify)
                built.append((dialogue, query, build_input_sequence(query, dialogue)))
            except ValueError as exc:
                raise example_error(dialogue, exc) from exc
            yield built[-1][2], dialogue.example_id

    for scores, spans in _decode_chunks(inputs(), model, theta):
        dialogue, query, input_seq = built.popleft()
        try:
            output = apply_edits(dialogue.incomplete, spans, input_seq)
        except ValueError as exc:
            raise example_error(dialogue, exc) from exc
        yield output, Diagnostics(scores, spans, theta, query, input_seq)


def rewrite(dialogue: Dialogue, model, theta: float, lexicon, parse=None,
            unify: bool = True) -> tuple[Utterance, Diagnostics]:
    """``rewrite_batch`` of one dialogue."""
    return next(rewrite_batch([(dialogue, parse)], model, theta, lexicon, unify=unify))


def train_em(model, examples: Sequence[TrainExample], theta: float) -> float:
    """Exact match of the rewrites of ``examples`` decoded at ``theta`` from
    their assembled inputs, as ``rewrite_batch`` decodes them; ValueError on
    an empty set, or on an example without a dialogue and its rewrite, before
    anything is scored. Training never calls it: see ``scoring.train``."""
    if not examples:
        raise ValueError("no dev example")
    for ex in examples:
        if ex.dialogue is None or ex.dialogue.rewritten is None:
            raise ValueError(f"example {ex.example_id!r} has no gold rewrite")
    decoded = _decode_chunks([(ex.input, ex.example_id) for ex in examples],
                             model, theta)
    return sum(apply_edits(ex.dialogue.incomplete, spans, ex.input).texts()
               == ex.dialogue.rewritten.texts()
               for ex, (_, spans) in zip(examples, decoded)) / len(examples)
