"""Distant supervision: gold edit-operation matrices from rewrite pairs.

An LCS alignment between the incomplete and rewritten utterances yields
added spans; each span found verbatim in the dialogue history becomes a
block of Substitute or Pre-Insert cells over (context row, incomplete
column) pairs. The two-operation scheme cannot express pure deletions,
which are reported rather than encoded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .datamodel import Dialogue, InputSequence, Utterance


class EditOp(Enum):
    SUBSTITUTE = "S"
    PRE_INSERT = "I"


# The one order of the operation axis: the model's stacked heads and their
# tensors in the model file, score and label arrays, and the loss sum.
OPS = (EditOp.PRE_INSERT, EditOp.SUBSTITUTE)


@dataclass(frozen=True, eq=False)
class EditMatrix:
    """One read-only bool array ``labels``, (n_ops, rows, cols) in ``OPS``
    order over context rows x incomplete columns, True at each operation's
    cells. Only Pre-Insert labels the last, end-of-utterance column."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=bool)
        if labels.ndim != 3 or len(labels) != len(OPS):
            raise ValueError(f"labels must be shaped ({len(OPS)}, rows, cols), "
                             f"got {labels.shape}")
        if labels[OPS.index(EditOp.SUBSTITUTE), :, -1:].any():
            raise ValueError("Substitute cells may not target the sentinel column")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_cells(cls, n_rows: int, n_cols: int, cells: Iterable) -> "EditMatrix":
        """From ``(row, col, op)`` triples; ``op`` is an EditOp or its value."""
        labels = np.zeros((len(OPS), n_rows, n_cols), dtype=bool)
        for r, c, op in cells:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"cell ({r},{c}) out of range")
            labels[OPS.index(EditOp(op)), r, c] = True
        return cls(labels)

    @property
    def cells(self) -> frozenset[tuple[int, int, EditOp]]:
        return frozenset((r, c, OPS[o]) for o, r, c in np.argwhere(self.labels).tolist())

    def mask(self, op: EditOp) -> np.ndarray:
        """The read-only view of ``labels`` for ``op``, True at its cells."""
        return self.labels[OPS.index(op)]

    def __eq__(self, other) -> bool:
        return isinstance(other, EditMatrix) and np.array_equal(self.labels, other.labels)

    def to_json(self) -> str:
        _, rows, cols = self.labels.shape
        return json.dumps({"rows": rows, "cols": cols,
                           "cells": sorted([r, c, op.value] for r, c, op in self.cells)})

    @classmethod
    def from_json(cls, text: str) -> "EditMatrix":
        obj = json.loads(text)
        return cls.from_cells(obj["rows"], obj["cols"], obj["cells"])


def op_of(cols: tuple[int, int]) -> EditOp:
    """Substitute over a non-empty column interval, Pre-Insert for an empty one."""
    return EditOp.SUBSTITUTE if cols[0] < cols[1] else EditOp.PRE_INSERT


@dataclass(frozen=True, slots=True)
class AddedSpan:
    """A run of rewritten tokens absent from the incomplete utterance.

    ``cols`` is the half-open interval of incomplete columns the tokens
    take the place of; an empty interval ``(c, c)`` inserts them before
    column ``c`` (the sentinel column means end-of-utterance).
    """

    tokens: tuple[str, ...]
    cols: tuple[int, int]

    def __post_init__(self):
        if not 0 <= self.cols[0] <= self.cols[1]:
            raise ValueError(f"bad column interval {self.cols}")


def lcs_align(xs: Sequence[str], ys: Sequence[str]) -> list[tuple[int, int]]:
    """Maximum monotone matching of equal tokens between two sequences.

    Standard DP with a fixed backtrace tie-break (match > up > left) so
    co-optimal alignments resolve deterministically.
    """
    n, m = len(xs), len(ys)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row, prev = dp[i], dp[i - 1]
        xi = xs[i - 1]
        for j in range(1, m + 1):
            if xi == ys[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    pairs: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        if xs[i - 1] == ys[j - 1] and dp[i][j] == dp[i - 1][j - 1] + 1:
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def diff_spans(incomplete: Utterance, rewritten: Utterance
               ) -> tuple[list[AddedSpan], list[tuple[int, int]]]:
    """Turn LCS-alignment gaps into added spans plus unexpressible deletions.

    Returns (spans, deleted_intervals); a deleted interval is a run of
    incomplete tokens skipped by the alignment with no rewritten tokens
    taking their place.
    """
    spans: list[AddedSpan] = []
    deletions: list[tuple[int, int]] = []
    boundaries = lcs_align(incomplete.texts(), rewritten.texts())
    boundaries.append((len(incomplete), len(rewritten)))
    prev_i, prev_j = 0, 0
    for ai, aj in boundaries:
        gap_inc = (prev_i, ai)
        gap_rew = rewritten.tokens[prev_j:aj]
        if gap_rew:
            spans.append(AddedSpan(tuple(gap_rew), gap_inc))
        elif gap_inc[0] < gap_inc[1]:
            deletions.append(gap_inc)
        prev_i, prev_j = ai + 1, aj + 1
    return spans, deletions


def locate_in_context(span: Sequence[str], input: InputSequence) -> Optional[tuple[int, int]]:
    """Find an exact contiguous match of ``span`` in the history region.

    Utterances are scanned latest to earliest, left to right within each
    utterance; matches never cross utterance boundaries and the query
    region is never searched. Returns an absolute row interval or None.
    """
    needle = list(span)
    if not needle:
        raise ValueError("span must be non-empty")
    all_texts = input.texts()
    k = len(needle)
    for start, stop in reversed(input.history_turns):
        for r in range(start, stop - k + 1):
            if all_texts[r:r + k] == needle:
                return (r, r + k)
    return None


@dataclass
class SupervisionReport:
    """What ``build_edit_matrix`` found for one example."""

    example_id: str
    skipped_spans: list[str]
    deletions: list[tuple[int, int]]

    @property
    def fully_expressible(self) -> bool:
        """Nothing skipped or deleted, in which case the gold matrix decodes
        back to the rewritten utterance exactly. ``diff_spans`` cuts the
        utterance at LCS-matched tokens, so any two gaps are at least one
        matched column apart: Substitute rectangles never touch
        4-connectedly, no two Pre-Insert stripes share a column, and no
        stripe falls strictly inside a Substitute interval. So
        ``cells_to_spans`` returns exactly one filled span per located gap,
        ``resolve_conflicts`` drops none, and ``apply_edits`` writes the
        matched tokens plus the located ones, which is the rewrite."""
        return not self.skipped_spans and not self.deletions

    def to_dict(self) -> dict:
        return {"example_id": self.example_id,
                "fully_expressible": self.fully_expressible,
                "skipped_spans": self.skipped_spans,
                "deletions": [list(d) for d in self.deletions]}


def aggregate_report(reports: Sequence[SupervisionReport]) -> dict:
    full = sum(r.fully_expressible for r in reports)
    # "failed" (a gold matrix that does not decode back) cannot happen; it
    # stays for a stable report format
    return {"full": full, "partial": len(reports) - full, "failed": 0,
            "examples": [r.to_dict() for r in reports
                         if not r.fully_expressible]}


def build_edit_matrix(dialogue: Dialogue, input: InputSequence,
                      diff: Optional[tuple[list[AddedSpan], list[tuple[int, int]]]] = None
                      ) -> tuple[EditMatrix, SupervisionReport]:
    """Gold matrix for one (incomplete, rewritten, history) triple.

    A span over a non-empty column interval yields a full Substitute
    rectangle (row interval x column interval); an empty interval yields a
    Pre-Insert column stripe. The report notes spans not found in history
    and deletions. ``diff`` is the pair's ``diff_spans``, computed when not
    given.
    """
    if dialogue.rewritten is None:
        raise ValueError("cannot build supervision without a gold rewritten utterance")
    spans, deletions = diff or diff_spans(dialogue.incomplete, dialogue.rewritten)
    skipped = []
    labels = np.zeros((len(OPS), input.context_length, input.incomplete_length + 1), bool)
    for span in spans:
        rows = locate_in_context(span.tokens, input)
        if rows is None:
            skipped.append("".join(span.tokens))
            continue
        a, b = span.cols
        labels[OPS.index(op_of(span.cols)), rows[0]:rows[1], a:max(b, a + 1)] = True
    return EditMatrix(labels), SupervisionReport(dialogue.example_id, skipped,
                                                list(deletions))
