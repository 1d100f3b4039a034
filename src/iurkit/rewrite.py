"""Decoding: score grids -> labeled cells -> edit spans -> rewritten text."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .datamodel import Dialogue, InputSequence, Utterance, build_input_sequence
from .querygen import build_query
from .scoring import score_all
from .supervision import EditMatrix, EditOp

# 4-connectivity for rectangle extraction
_STRUCTURE = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class EditSpan:
    op: EditOp
    source_rows: tuple[int, int]
    target: tuple[str, Union[tuple[int, int], int]]  # ("replace", interval) | ("insert", col)
    score: float = 0.0
    filled: bool = True  # False when cells did not fill their bounding box

    def __post_init__(self):
        if self.source_rows[0] >= self.source_rows[1]:
            raise ValueError("source row interval must be non-empty")


def decode_labels(grid, theta: float) -> EditMatrix:
    """Threshold one score grid into an edit matrix (label 1 iff s >= theta).

    Substitute labels landing on the sentinel column are discarded: the
    matrix invariant reserves that column for Pre-Insert.
    """
    values = np.asarray(grid.values)
    n_rows, n_cols = values.shape
    rs, cs = np.nonzero(values >= theta)
    cells = set()
    for r, c in zip(rs.tolist(), cs.tolist()):
        if grid.op is EditOp.SUBSTITUTE and c == n_cols - 1:
            continue
        cells.add((r, c, grid.op))
    return EditMatrix(n_rows, n_cols, frozenset(cells))


def merge_matrices(matrices: Sequence[EditMatrix]) -> EditMatrix:
    """Union per-op matrices of identical dimensions into one."""
    first = matrices[0]
    cells = frozenset().union(*(m.cells for m in matrices))
    return EditMatrix(first.n_rows, first.n_cols, cells)


def _mean_score(grids, op: EditOp, cells: list[tuple[int, int]]) -> float:
    if not grids or op not in grids:
        return 0.0
    vals = np.asarray(grids[op].values)
    return float(np.mean([vals[r, c] for r, c in cells]))


def cells_to_spans(matrix: EditMatrix, grids=None) -> list[EditSpan]:
    """Group labeled cells into spans.

    Substitute cells become maximal rectangles via 4-connected components
    plus bounding boxes; components that do not fill their box keep the box
    and are flagged ``filled=False``. Pre-Insert cells become maximal row
    runs per column. ``grids`` (op -> ScoreGrid) supplies cell scores.
    """
    spans: list[EditSpan] = []
    sub = matrix.mask(EditOp.SUBSTITUTE)
    if sub.any():
        labels, count = ndimage.label(sub, structure=_STRUCTURE)
        for sl in ndimage.find_objects(labels):
            rows = (sl[0].start, sl[0].stop)
            cols = (sl[1].start, sl[1].stop)
            member = [(r, c) for r in range(*rows) for c in range(*cols) if sub[r, c]]
            filled = len(member) == (rows[1] - rows[0]) * (cols[1] - cols[0])
            spans.append(EditSpan(EditOp.SUBSTITUTE, rows, ("replace", cols),
                                  _mean_score(grids, EditOp.SUBSTITUTE, member), filled))
    by_col: dict[int, list[int]] = {}
    for r, c in matrix.cells_of(EditOp.PRE_INSERT):
        by_col.setdefault(c, []).append(r)
    for c in sorted(by_col):
        rows = sorted(by_col[c])
        run_start = rows[0]
        prev = rows[0]
        for r in rows[1:] + [None]:
            if r is not None and r == prev + 1:
                prev = r
                continue
            member = [(rr, c) for rr in range(run_start, prev + 1)]
            spans.append(EditSpan(EditOp.PRE_INSERT, (run_start, prev + 1), ("insert", c),
                                  _mean_score(grids, EditOp.PRE_INSERT, member)))
            if r is not None:
                run_start = prev = r
    return spans


def resolve_conflicts(spans: Sequence[EditSpan]) -> list[EditSpan]:
    """Drop conflicting spans, keeping the highest mean score.

    Overlapping Replace intervals and duplicate inserts at one column are
    resolved by score (ties: lower source row). Inserts strictly inside a
    surviving Replace interval are dropped; boundary inserts are kept.
    """
    order = lambda s: (-s.score, s.source_rows[0])
    replaces = sorted((s for s in spans if s.target[0] == "replace"), key=order)
    kept_replace: list[EditSpan] = []
    for s in replaces:
        a, b = s.target[1]
        if all(b <= k.target[1][0] or k.target[1][1] <= a for k in kept_replace):
            kept_replace.append(s)
    best_insert: dict[int, EditSpan] = {}
    for s in sorted((s for s in spans if s.target[0] == "insert"), key=order):
        best_insert.setdefault(s.target[1], s)
    kept_insert = []
    for col, s in best_insert.items():
        interior = any(k.target[1][0] < col < k.target[1][1] for k in kept_replace)
        if not interior:
            kept_insert.append(s)
    out = kept_replace + kept_insert
    out.sort(key=lambda s: (s.target[1] if s.target[0] == "insert" else s.target[1][0],
                            s.target[0]))
    return out


def apply_edits(incomplete: Utterance, spans: Sequence[EditSpan],
                input: InputSequence) -> Utterance:
    """Emit the rewritten utterance column by column.

    At column j any insert-before span fires first, then a Replace interval
    starting at j emits its source rows and skips the interval, otherwise
    the original token is copied. The sentinel column takes inserts only.
    """
    ctx = input.context_length
    for s in spans:
        if not (0 <= s.source_rows[0] and s.source_rows[1] <= ctx):
            raise ValueError(f"span rows {s.source_rows} outside context region")
    inserts = {s.target[1]: s for s in spans if s.target[0] == "insert"}
    replaces = {s.target[1][0]: s for s in spans if s.target[0] == "replace"}
    texts = input.texts()
    out: list[str] = []
    n = len(incomplete)
    j = 0
    while j <= n:
        if j in inserts:
            out.extend(texts[r] for r in range(*inserts[j].source_rows))
        if j == n:
            break
        if j in replaces:
            s = replaces[j]
            out.extend(texts[r] for r in range(*s.source_rows))
            j = s.target[1][1]
        else:
            out.append(incomplete.tokens[j].text)
            j += 1
    return Utterance.from_texts(out, incomplete.speaker_turn)


def decode(grids, input: InputSequence, incomplete: Utterance, theta: float
           ) -> tuple[EditMatrix, list[EditSpan], Utterance]:
    """Score grids (op -> ScoreGrid) to the labeled matrix, the surviving
    edit spans and the rewritten utterance."""
    matrix = merge_matrices([decode_labels(g, theta) for g in grids.values()])
    spans = resolve_conflicts(cells_to_spans(matrix, grids))
    return matrix, spans, apply_edits(incomplete, spans, input)


@dataclass
class Diagnostics:
    query_texts: list[str] = field(default_factory=list)
    input_texts: list[str] = field(default_factory=list)
    grids: dict = field(default_factory=dict)
    matrix: Optional[EditMatrix] = None
    spans: list[EditSpan] = field(default_factory=list)

    def to_json(self, with_grids: bool = True, precise: bool = False) -> str:
        def fmt(v: float):
            return format(v, ".16g") if precise else v

        obj = {
            "query": self.query_texts,
            "input": self.input_texts,
            "matrix": json.loads(self.matrix.to_json()) if self.matrix else None,
            "spans": [{"op": s.op.value, "rows": list(s.source_rows),
                       "target": [s.target[0],
                                  list(s.target[1]) if s.target[0] == "replace"
                                  else s.target[1]],
                       "score": fmt(s.score), "filled": s.filled}
                      for s in self.spans],
        }
        if with_grids:
            obj["grids"] = {op.value: [[fmt(float(v)) for v in row]
                                       for row in np.asarray(g.values).tolist()]
                            for op, g in self.grids.items()}
        return json.dumps(obj, ensure_ascii=False)


def rewrite(dialogue: Dialogue, model, theta: float, lexicon, parse=None,
            unify: bool = True) -> tuple[Utterance, Diagnostics]:
    """Full inference pipeline for one dialogue.

    query construction -> input assembly -> encode -> per-op scoring ->
    threshold decode -> span extraction -> conflict resolution -> edit
    application. The returned diagnostics carry every intermediate.
    """
    query = build_query(dialogue.incomplete, lexicon, parse, unify)
    input_seq = build_input_sequence(query, dialogue)
    grids = score_all(input_seq, model, example_id=dialogue.example_id)
    matrix, spans, output = decode(grids, input_seq, dialogue.incomplete, theta)
    diag = Diagnostics(query_texts=query.texts(), input_texts=input_seq.texts(),
                       grids=grids, matrix=matrix, spans=spans)
    return output, diag
