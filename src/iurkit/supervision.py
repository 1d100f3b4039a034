"""Distant supervision: gold edit-operation matrices from rewrite pairs.

An LCS alignment between the incomplete and rewritten utterances yields
added spans; each span found verbatim in the dialogue history becomes a
block of Substitute or Pre-Insert cells over (context row, incomplete
column) pairs. The two-operation scheme cannot express pure deletions,
which are reported rather than encoded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .datamodel import Dialogue, InputSequence, Token, Utterance


class EditOp(Enum):
    SUBSTITUTE = "S"
    PRE_INSERT = "I"


@dataclass(frozen=True)
class EditMatrix:
    """Sparse labeled cells over context rows x incomplete columns.

    ``n_cols`` includes the sentinel column (index ``n_cols - 1``), used by
    Pre-Insert to express insertion at the end of the incomplete utterance.
    """

    n_rows: int
    n_cols: int
    cells: frozenset[tuple[int, int, EditOp]]

    def __post_init__(self):
        for r, c, op in self.cells:
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValueError(f"cell ({r},{c}) out of range")
            if op is EditOp.SUBSTITUTE and c == self.n_cols - 1:
                raise ValueError("Substitute cells may not target the sentinel column")

    def cells_of(self, op: EditOp) -> set[tuple[int, int]]:
        return {(r, c) for r, c, o in self.cells if o is op}

    def mask(self, op: EditOp) -> np.ndarray:
        """Dense (n_rows, n_cols) bool array, True at the cells of ``op``."""
        out = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        for r, c, o in self.cells:
            if o is op:
                out[r, c] = True
        return out

    def to_json(self) -> str:
        triples = sorted((r, c, op.value) for r, c, op in self.cells)
        return json.dumps({"rows": self.n_rows, "cols": self.n_cols,
                           "cells": [list(t) for t in triples]})

    @classmethod
    def from_json(cls, text: str) -> "EditMatrix":
        obj = json.loads(text)
        cells = frozenset((r, c, EditOp(op)) for r, c, op in obj["cells"])
        return cls(obj["rows"], obj["cols"], cells)


@dataclass(frozen=True)
class AddedSpan:
    """A run of rewritten tokens absent from the incomplete utterance.

    ``anchor`` is either ("replace", (col_start, col_stop)) for a non-empty
    incomplete interval being substituted, or ("insert", col) for insertion
    before that column (the sentinel column means end-of-utterance).
    """

    tokens: tuple[Token, ...]
    anchor: tuple[str, Union[tuple[int, int], int]]

    def __post_init__(self):
        kind, where = self.anchor
        if kind == "replace":
            if where[0] >= where[1]:
                raise ValueError("replace interval must be non-empty")
        elif kind != "insert":
            raise ValueError(f"unknown anchor kind {kind!r}")


def _texts(seq) -> list[str]:
    return [t.text if isinstance(t, Token) else t for t in seq]


def lcs_align(a: Sequence, b: Sequence) -> list[tuple[int, int]]:
    """Maximum monotone matching of equal tokens between two sequences.

    Standard DP with a fixed backtrace tie-break (match > up > left) so
    co-optimal alignments resolve deterministically.
    """
    xs, ys = _texts(a), _texts(b)
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


def diff_spans(incomplete: Utterance, rewritten: Utterance,
               alignment: Sequence[tuple[int, int]]
               ) -> tuple[list[AddedSpan], list[tuple[int, int]]]:
    """Turn alignment gaps into added spans plus unexpressible deletions.

    Returns (spans, deleted_intervals); a deleted interval is a run of
    incomplete tokens skipped by the alignment with no rewritten tokens
    taking their place.
    """
    spans: list[AddedSpan] = []
    deletions: list[tuple[int, int]] = []
    boundaries = list(alignment) + [(len(incomplete), len(rewritten))]
    prev_i, prev_j = 0, 0
    for ai, aj in boundaries:
        gap_inc = (prev_i, ai)
        gap_rew = rewritten.tokens[prev_j:aj]
        if gap_rew:
            if gap_inc[0] < gap_inc[1]:
                anchor = ("replace", gap_inc)
            elif ai < len(incomplete):
                anchor = ("insert", ai)
            else:
                anchor = ("insert", len(incomplete))  # sentinel column
            spans.append(AddedSpan(tuple(gap_rew), anchor))
        elif gap_inc[0] < gap_inc[1]:
            deletions.append(gap_inc)
        prev_i, prev_j = ai + 1, aj + 1
    return spans, deletions


def locate_in_context(span: Sequence, input: InputSequence) -> Optional[tuple[int, int]]:
    """Find an exact contiguous match of ``span`` in the history region.

    Utterances are scanned latest to earliest, left to right within each
    utterance; matches never cross utterance boundaries and the query
    region is never searched. Returns an absolute row interval or None.
    """
    needle = _texts(span)
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
    example_id: str = ""
    fully_expressible: bool = False
    skipped_spans: list[str] = field(default_factory=list)
    deletions: list[tuple[int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"example_id": self.example_id,
                "fully_expressible": self.fully_expressible,
                "skipped_spans": self.skipped_spans,
                "deletions": [list(d) for d in self.deletions]}


def aggregate_report(reports: Sequence[SupervisionReport]) -> dict:
    full = sum(r.fully_expressible for r in reports)
    partial = sum((not r.fully_expressible)
                  and (r.skipped_spans or r.deletions) for r in reports)
    failed = len(reports) - full - partial
    return {"full": full, "partial": partial, "failed": failed,
            "examples": [r.to_dict() for r in reports
                         if not r.fully_expressible]}


def build_edit_matrix(dialogue: Dialogue, input: InputSequence
                      ) -> tuple[EditMatrix, SupervisionReport]:
    """Gold matrix for one (incomplete, rewritten, history) triple.

    Replace spans yield full Substitute rectangles (row interval x column
    interval); insert spans yield Pre-Insert column stripes. The report
    notes spans not found in history, deletions, and whether applying the
    gold matrix reproduces the rewritten utterance token-exactly.
    """
    if dialogue.rewritten is None:
        raise ValueError("cannot build supervision without a gold rewritten utterance")
    alignment = lcs_align(dialogue.incomplete.tokens, dialogue.rewritten.tokens)
    spans, deletions = diff_spans(dialogue.incomplete, dialogue.rewritten, alignment)
    report = SupervisionReport(example_id=dialogue.example_id,
                               deletions=list(deletions))
    cells: set[tuple[int, int, EditOp]] = set()
    for span in spans:
        rows = locate_in_context(span.tokens, input)
        if rows is None:
            report.skipped_spans.append("".join(_texts(span.tokens)))
            continue
        kind, where = span.anchor
        if kind == "replace":
            for r in range(*rows):
                for c in range(*where):
                    cells.add((r, c, EditOp.SUBSTITUTE))
        else:
            for r in range(*rows):
                cells.add((r, where, EditOp.PRE_INSERT))
    matrix = EditMatrix(n_rows=input.context_length,
                        n_cols=input.incomplete_length + 1,
                        cells=frozenset(cells))
    report.fully_expressible = (not report.skipped_spans and not deletions
                                and _round_trips(dialogue, input, matrix))
    return matrix, report


def _round_trips(dialogue: Dialogue, input: InputSequence, matrix: EditMatrix) -> bool:
    from .rewrite import apply_edits, cells_to_spans, resolve_conflicts

    spans = resolve_conflicts(cells_to_spans(matrix))
    try:
        out = apply_edits(dialogue.incomplete, spans, input)
    except ValueError:
        return False
    return out.texts() == dialogue.rewritten.texts()
