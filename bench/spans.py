"""In-memory span tracing around the public calls of each layer.

The traced run drives the same inputs and model as ``iurkit train`` and
``iurkit rewrite`` through the modules' public functions, one stage at a
time, and opens a span around each call. Spans live in memory until the
run ends; a layer's self time is its spans' duration minus the time their
direct child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from iurkit.cli import RunConfig
from iurkit.datamodel import Dialogue, build_input_sequence, load_dialogues
from iurkit.querygen import DependencyParse, PronounLexicon, build_query
from iurkit.rewrite import (apply_edits, cells_to_spans, decode_labels,
                            merge_matrices, resolve_conflicts)
from iurkit.scoring import (AdamState, ModelParams, TrainExample, _adam_step,
                            build_vocab, encode, grad, init_model, project,
                            save_model, score_grid)
from iurkit.supervision import build_edit_matrix

NAME, PARENT, EXAMPLE, START, END = range(5)


class Tracer:
    """Spans as ``[name, parent index, example id, start ns, end ns]``.

    ``with tracer.span(name, example_id):`` opens a span whose parent is
    the innermost span still open. Single-threaded use only.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, example_id: str | None = None) -> "Tracer":
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, parent, example_id, perf_counter_ns(), 0])
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.spans[self._open.pop()][END] = perf_counter_ns()

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        totals: dict[str, int] = defaultdict(int)
        for s, child in zip(self.spans, covered):
            totals[s[NAME]] += s[END] - s[START] - child
        return dict(totals)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "example_id",
                                            "start_ns", "end_ns"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def train(tr: Tracer, config_path: Path, model_out: Path) -> dict[str, int]:
    """``iurkit train --config config_path`` one public call at a time.

    Mirrors the CLI: lexicon queries with the parse of the same index,
    then Adam over batches shuffled by ``(seed, epoch)``; the saved model
    must be byte-identical to the CLI's. Returns the work counts.
    """
    cfg = RunConfig.from_file(config_path)
    with tr.span("datamodel.load"):
        dialogues = load_dialogues(cfg.data, cfg.data_format)
    with tr.span("querygen.read"):
        lexicon = cfg.load_lexicon()
        parses = cfg.load_parses()
    dataset, full = [], 0
    for dlg, parse in zip(dialogues, parses, strict=True):
        eid = dlg.example_id
        with tr.span("querygen.query", eid):
            query = build_query(dlg.incomplete, lexicon, parse, cfg.unify)
        with tr.span("datamodel.assemble", eid):
            inp = build_input_sequence(query, dlg)
        with tr.span("supervision.matrix", eid):
            gold, report = build_edit_matrix(dlg, inp)
        full += report.fully_expressible
        dataset.append(TrainExample(inp, gold, eid, dlg))
    with tr.span("scoring.init"):
        model = init_model(build_vocab(ex.input for ex in dataset), d_model=cfg.d_model,
                           d_head=cfg.d_head, seed=cfg.seed, mixer=cfg.mixer)
    tcfg = cfg.train_config()
    state = AdamState.for_model(model)
    steps = 0
    for epoch in range(tcfg.epochs):
        order = np.random.default_rng([tcfg.seed, epoch]).permutation(len(dataset))
        for b0 in range(0, len(order), tcfg.batch_size):
            batch = [dataset[i] for i in order[b0:b0 + tcfg.batch_size]]
            with tr.span("scoring.grad"):
                _, grads = grad(model, batch)
            with tr.span("scoring.adam"):  # no public per-step call exists
                _adam_step(model, grads, state, tcfg)
            steps += 1
        state.epochs_done = epoch + 1
    with tr.span("scoring.save_model"):
        save_model(model_out, model, state)
    return {"examples": len(dataset), "full": full, "steps": steps,
            "grad_examples": len(dataset) * tcfg.epochs}


@dataclass
class RewriteCounts:
    """Work and discard counts taken at the decode boundaries."""

    examples: int = 0
    tokens: int = 0
    context_rows: int = 0
    grid_cells: int = 0
    cells_kept: int = 0
    spans_proposed: int = 0
    spans_kept: int = 0
    noops: int = 0
    outputs: list[list[str]] = field(default_factory=list)


def rewrite(tr: Tracer, dialogues: list[Dialogue], parses: list[DependencyParse],
            lexicon: PronounLexicon, model: ModelParams, theta: float) -> RewriteCounts:
    """``iurkit.rewrite.rewrite`` for every dialogue, one public call at a time."""
    counts = RewriteCounts()
    for dlg, parse in zip(dialogues, parses, strict=True):
        eid = dlg.example_id
        with tr.span("rewrite.example", eid):
            with tr.span("querygen.query", eid):
                query = build_query(dlg.incomplete, lexicon, parse, True)
            with tr.span("datamodel.assemble", eid):
                inp = build_input_sequence(query, dlg)
            with tr.span("scoring.encode", eid):
                h = encode(inp, model.encoder, eid)
            grids = {}
            for op in model.head.per_op:
                with tr.span("scoring.project", eid):
                    q, k = project(h, model.head, op)
                with tr.span("scoring.grid", eid):
                    rows = np.arange(inp.context_length)
                    cols = np.array([*range(*inp.incomplete_range), inp.sentinel_index])
                    grids[op] = score_grid(q[rows], k[cols], rows, cols, op)
            with tr.span("rewrite.threshold", eid):
                matrix = merge_matrices([decode_labels(g, theta) for g in grids.values()])
            with tr.span("rewrite.spans", eid):
                proposed = cells_to_spans(matrix, grids)
            with tr.span("rewrite.resolve", eid):
                spans = resolve_conflicts(proposed)
            with tr.span("rewrite.apply", eid):
                out = apply_edits(dlg.incomplete, spans, inp)
        counts.examples += 1
        counts.tokens += len(inp.tokens)
        counts.context_rows += inp.context_length
        counts.grid_cells += sum(g.values.size for g in grids.values())
        counts.cells_kept += sum(int(np.count_nonzero(g.values >= theta))
                                 for g in grids.values())
        counts.spans_proposed += len(proposed)
        counts.spans_kept += len(spans)
        counts.noops += out.texts() == dlg.incomplete.texts()
        counts.outputs.append(out.texts())
    return counts
