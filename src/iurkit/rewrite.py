"""Decoding: score grids -> labeled cells -> edit spans -> rewritten text."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import ndimage

from .datamodel import Dialogue, InputSequence, Utterance, build_input_sequence
from .querygen import build_query
from .scoring import score_batch
from .supervision import EditMatrix, EditOp, op_of

# Substitute cells form rectangles (4-connected components); Pre-Insert
# cells form row runs within one column (vertical neighbours only).
_CONNECTIVITY = {
    EditOp.SUBSTITUTE: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    EditOp.PRE_INSERT: np.array([[0, 1, 0], [0, 1, 0], [0, 1, 0]], dtype=bool),
}


@dataclass(frozen=True)
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


def _threshold(grid, theta: float) -> np.ndarray:
    """Label 1 iff s >= theta. Substitute labels on the sentinel column are
    discarded: the matrix invariant reserves that column for Pre-Insert."""
    labels = np.asarray(grid.values) >= theta
    if grid.op is EditOp.SUBSTITUTE:
        labels[:, -1:] = False
    return labels


def decode_labels(grid, theta: float) -> EditMatrix:
    """Threshold one score grid into an edit matrix of its operation."""
    labels = _threshold(grid, theta)
    return EditMatrix({op: labels if op is grid.op else np.zeros_like(labels)
                       for op in EditOp})


def merge_matrices(matrices: Sequence[EditMatrix]) -> EditMatrix:
    """Union matrices of identical dimensions into one, per operation."""
    return EditMatrix({op: reduce(np.logical_or, [m.mask(op) for m in matrices]) for op in EditOp})


def cells_to_spans(matrix: EditMatrix, grids=None) -> list[EditSpan]:
    """Group labeled cells into spans.

    Substitute cells become maximal rectangles via 4-connected components
    plus bounding boxes; components that do not fill their box keep the box
    and are flagged ``filled=False``. Pre-Insert cells become maximal row
    runs per column. A span's score is the mean over the labeled cells of
    its box, taken from ``grids`` (op -> ScoreGrid) when given.
    """
    spans: list[EditSpan] = []
    for op, structure in _CONNECTIVITY.items():
        mask = matrix.mask(op)
        if not mask.any():
            continue
        values = np.asarray(grids[op].values) if grids and op in grids else None
        labels, _ = ndimage.label(mask, structure=structure)
        for rs, cs in ndimage.find_objects(labels):
            member = mask[rs, cs]
            score = float(np.mean(values[rs, cs][member])) if values is not None else 0.0
            cols = (cs.start, cs.stop if op is EditOp.SUBSTITUTE else cs.start)
            spans.append(EditSpan((rs.start, rs.stop), cols, score, bool(member.all())))
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
    columns. Conflicting spans are rejected, not resolved."""
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


def decode(grids, input: InputSequence, incomplete: Utterance, theta: float
           ) -> tuple[EditMatrix, list[EditSpan], Utterance]:
    """Score grids (op -> ScoreGrid, one per operation) to the labeled
    matrix, the surviving edit spans and the rewritten utterance."""
    matrix = EditMatrix({op: _threshold(grids[op], theta) for op in EditOp})
    spans = resolve_conflicts(cells_to_spans(matrix, grids))
    return matrix, spans, apply_edits(incomplete, spans, input)


@dataclass
class Diagnostics:
    query_texts: list[str] = field(default_factory=list)
    input_texts: list[str] = field(default_factory=list)
    grids: dict = field(default_factory=dict)
    matrix: Optional[EditMatrix] = None
    spans: list[EditSpan] = field(default_factory=list)

    def to_json(self) -> str:
        obj = {
            "query": self.query_texts,
            "input": self.input_texts,
            "matrix": json.loads(self.matrix.to_json()) if self.matrix else None,
            "spans": [{"op": s.op.value, "rows": list(s.source_rows),
                       "cols": list(s.cols),
                       "score": s.score, "filled": s.filled}
                      for s in self.spans],
            "grids": {op.value: np.asarray(g.values).tolist()
                      for op, g in self.grids.items()},
        }
        return json.dumps(obj, ensure_ascii=False)


def example_error(dialogue: Dialogue, exc: ValueError) -> ValueError:
    """``exc`` with the id of the example it arose from in front."""
    return ValueError(f"example {dialogue.example_id!r}: {exc}")


def rewrite_batch(dialogues: Sequence[Dialogue], model, theta: float, lexicon,
                  parses: Optional[Sequence] = None, unify: bool = True
                  ) -> Iterator[tuple[Utterance, Diagnostics]]:
    """Full inference pipeline for any number of dialogues (``parses`` by
    position), yielding each one's ``(output, diagnostics)`` in order.

    query construction -> input assembly -> encode -> per-op scoring ->
    threshold decode -> span extraction -> conflict resolution -> edit
    application. Queries and inputs are built as ``score_batch`` takes
    them, so only one chunk's are held at a time. Each dialogue's
    diagnostics carry every intermediate. The results equal ``rewrite``
    of each dialogue, and a ValueError names the example it arose from.
    A ``parses`` of another length than ``dialogues`` raises before any
    result.
    """
    if parses is not None and len(parses) != len(dialogues):
        raise ValueError(f"{len(parses)} parses for {len(dialogues)} dialogues")
    built = deque()  # (dialogue, query, input) awaiting their grids

    def inputs():
        for dialogue, parse in zip(dialogues, repeat(None) if parses is None else parses):
            try:
                query = build_query(dialogue.incomplete, lexicon, parse, unify)
                built.append((dialogue, query, build_input_sequence(query, dialogue)))
            except ValueError as exc:
                raise example_error(dialogue, exc) from exc
            yield built[-1][2]

    for grids in score_batch(inputs(), model, (d.example_id for d in dialogues)):
        dialogue, query, input_seq = built.popleft()
        try:
            matrix, spans, output = decode(grids, input_seq, dialogue.incomplete, theta)
        except ValueError as exc:
            raise example_error(dialogue, exc) from exc
        yield output, Diagnostics(
            query_texts=query.texts(), input_texts=input_seq.texts(),
            grids=grids, matrix=matrix, spans=spans)


def rewrite(dialogue: Dialogue, model, theta: float, lexicon, parse=None,
            unify: bool = True) -> tuple[Utterance, Diagnostics]:
    """``rewrite_batch`` of one dialogue."""
    return next(rewrite_batch([dialogue], model, theta, lexicon, [parse], unify))
