"""Command-line surface: build-supervision, make-query, train, rewrite,
evaluate, inspect-matrix.

Configuration comes from a key = value file (``#`` comments) plus flag
overrides; flags win. Exit codes: 0 success, 1 user error, 2 internal
invariant violation. Set IURKIT_LOG to control log verbosity.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import click

from .datamodel import (DataFormat, Dialogue, Utterance, build_input_sequence,
                        load_dialogues, read_lines)
from .metrics import evaluate as evaluate_corpus
from .querygen import (DependencyParse, PronounLexicon, QueryTemplate,
                       build_query, read_conllu)
from .rewrite import example_error, rewrite, rewrite_batch
from .scoring import (INFERENCE_CHUNK, AdamState, ModelParams, TrainConfig,
                      TrainExample, build_vocab, init_model, load_model, read_ctxvec,
                      save_model, train, with_imported_vectors)
from .supervision import (AddedSpan, SupervisionReport, aggregate_report,
                          build_edit_matrix, diff_spans)

log = logging.getLogger("iurkit")

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}
_CHOICES = {"format": ("jsonl", "tsv"), "lang": ("zh", "en"),
            "query_mode": ("lexicon", "gold")}


@dataclass
class RunConfig:
    data: str = ""
    lexicon: str = ""
    parses: str = ""
    model: str = "model.iurkit"
    out: str = "out"
    format: str = "jsonl"  # jsonl | tsv
    lang: str = "en"       # zh | en; picks default lexicon + output separator
    d_model: int = 32
    d_head: int = 16
    mixer: bool = False
    lr: float = 1e-5
    batch_size: int = 16
    epochs: int = 1
    theta: float = 0.1  # presets: 0.1 (short-context), 0.05 (long-context)
    seed: int = 0
    unify: bool = True
    query_mode: str = "lexicon"  # lexicon | gold (gold uses training targets)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(read_lines(path), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                cfg.set(key, value.strip("\"'"))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        return cfg

    def set(self, key: str, value: str) -> None:
        if key not in {f.name for f in fields(self)}:
            raise ValueError(f"unknown config key {key!r}")
        current = getattr(self, key)
        if isinstance(current, bool):
            if value.lower() not in _TRUE | _FALSE:
                raise ValueError(f"config key {key!r}: expected true/false, yes/no, "
                                 f"on/off or 1/0, got {value!r}")
            value = value.lower() in _TRUE
        elif isinstance(current, (int, float)):
            try:
                number = type(current)(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise ValueError(f"config key {key!r}: expected a finite "
                                 f"{type(current).__name__}, got {value!r}")
            value = number
        elif key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"config key {key!r}: expected one of "
                             f"{', '.join(_CHOICES[key])}, got {value!r}")
        setattr(self, key, value)

    @property
    def data_format(self) -> DataFormat:
        return DataFormat.CANONICAL_JSONL if self.format == "jsonl" else DataFormat.TAB_SEPARATED

    @property
    def separator(self) -> str:
        return "" if self.lang == "zh" else " "

    def train_config(self) -> TrainConfig:
        return TrainConfig(learning_rate=self.lr, batch_size=self.batch_size,
                           epochs=self.epochs, seed=self.seed)

    def load_lexicon(self) -> PronounLexicon:
        if self.lexicon:
            return PronounLexicon.from_file(self.lexicon)
        return PronounLexicon.default(self.lang)

    def load_parses(self) -> list[DependencyParse]:
        return read_conllu(self.parses) if self.parses else []

    def load_inputs(self) -> tuple[PronounLexicon,
                                   list[tuple[Dialogue, Optional[DependencyParse]]]]:
        """The lexicon, and every dialogue of ``data`` with its parse, by
        position; all parses are None without a parses file."""
        dialogues = load_dialogues(self.data, self.data_format)
        lexicon = self.load_lexicon()
        parses = self.load_parses() if self.parses else [None] * len(dialogues)
        if len(parses) != len(dialogues):
            raise ValueError(f"{self.parses}: {len(parses)} parse sentences for "
                             f"{len(dialogues)} dialogues")
        return lexicon, list(zip(dialogues, parses))


class UserError(click.ClickException):
    pass


def _load_config(config_path: Optional[str], **overrides) -> RunConfig:
    cfg = RunConfig.from_file(config_path) if config_path else RunConfig()
    for key, value in overrides.items():
        if value is not None:
            cfg.set(key, str(value))
    return cfg


def _query_for(dialogue: Dialogue, parse: Optional[DependencyParse],
               lexicon: PronounLexicon, cfg: RunConfig,
               gold_spans: Optional[list[AddedSpan]] = None) -> QueryTemplate:
    """The query of ``dialogue``; ``gold_spans``, the gold rewrite's added
    spans when given, fix the substituted intervals."""
    gold = None if gold_spans is None else [s.cols for s in gold_spans
                                            if s.cols[0] < s.cols[1]]
    try:
        return build_query(dialogue.incomplete, lexicon, parse, cfg.unify,
                           gold_replace_intervals=gold)
    except ValueError as exc:
        raise example_error(dialogue, exc) from exc


def _prepare(cfg: RunConfig) -> tuple[list[TrainExample], list[SupervisionReport]]:
    """Training examples with their gold matrices, and each matrix's report."""
    lexicon, inputs = cfg.load_inputs()
    use_gold = cfg.query_mode == "gold"
    examples, reports = [], []
    for dlg, parse in inputs:
        if dlg.rewritten is None:
            raise UserError(f"example {dlg.example_id!r} has no gold rewritten utterance")
        diff = diff_spans(dlg.incomplete, dlg.rewritten)
        query = _query_for(dlg, parse, lexicon, cfg, diff[0] if use_gold else None)
        inp = build_input_sequence(query, dlg)
        gold, report = build_edit_matrix(dlg, inp, diff)
        examples.append(TrainExample(input=inp, gold=gold,
                                     example_id=dlg.example_id, dialogue=dlg))
        reports.append(report)
    return examples, reports


def _write_jsonl(out_path: str, records: list[dict]) -> None:
    """One JSON object per line to ``out_path`` ('-' = stdout)."""
    with (nullcontext(sys.stdout) if out_path == "-"
          else open(out_path, "w", encoding="utf-8")) as sink:
        for rec in records:
            sink.write(json.dumps(rec, ensure_ascii=False) + "\n")


def config_option(fn):
    return click.option("--config", "config_path", type=click.Path(exists=True),
                        default=None, help="key = value configuration file")(fn)


@click.group()
def cli():
    """Incomplete-utterance rewriting toolkit."""
    logging.basicConfig(level=os.environ.get("IURKIT_LOG", "WARNING").upper())


@cli.command("build-supervision")
@config_option
@click.option("--data", default=None, type=click.Path(exists=True))
@click.option("--out", default=None, help="output directory")
def cmd_build_supervision(config_path, data, out):
    """Write per-example edit matrices and an aggregate report."""
    cfg = _load_config(config_path, data=data, out=out)
    examples, reports = _prepare(cfg)
    for ex in examples:  # each id names a file in matrices/
        if ex.example_id in ("", ".", "..") or any(c in ex.example_id for c in "/\\\0"):
            raise UserError(f"example {ex.example_id!r}: id cannot be a file name")
    out_dir = Path(cfg.out)
    (out_dir / "matrices").mkdir(parents=True, exist_ok=True)
    for ex in examples:
        (out_dir / "matrices" / f"{ex.example_id}.json").write_text(
            ex.gold.to_json(), encoding="utf-8")
    agg = aggregate_report(reports)
    (out_dir / "report.json").write_text(json.dumps(agg, ensure_ascii=False),
                                         encoding="utf-8")
    click.echo(f"full={agg['full']} partial={agg['partial']} failed={agg['failed']}")
    if agg["full"] == 0:
        raise UserError("no fully-expressible example in the corpus")


@cli.command("make-query")
@config_option
@click.option("--data", default=None, type=click.Path(exists=True))
@click.option("--out", "out_path", default="-", help="output JSONL ('-' = stdout)")
@click.option("--unify/--no-unify", default=None)
def cmd_make_query(config_path, data, out_path, unify):
    """Emit each example's fused query template for inspection."""
    cfg = _load_config(config_path, data=data, unify=unify)
    lexicon, inputs = cfg.load_inputs()
    results = []
    for dlg, parse in inputs:
        query = _query_for(dlg, parse, lexicon, cfg)
        results.append({"id": dlg.example_id,
                        "incomplete": dlg.incomplete.text(cfg.separator),
                        "query": query.text(cfg.separator),
                        "kind": query.kind_summary.value})
    _write_jsonl(out_path, results)


@cli.command("train")
@config_option
@click.option("--data", default=None, type=click.Path(exists=True))
@click.option("--model", "model_path", default=None)
@click.option("--seed", default=None, type=int)
@click.option("--epochs", default=None, type=int)
@click.option("--resume", is_flag=True, help="continue from a saved checkpoint")
def cmd_train(config_path, data, model_path, seed, epochs, resume):
    """Train the scoring network and persist the model + a JSON log."""
    cfg = _load_config(config_path, data=data, model=model_path, seed=seed,
                       epochs=epochs)
    train_cfg = cfg.train_config()  # a key out of range fails before data is read
    dataset, _ = _prepare(cfg)
    if not dataset:
        raise UserError(f"{cfg.data}: no dialogue to train on")
    if resume:
        model, opt_state = load_model(cfg.model)
        if opt_state is None:
            raise UserError(f"{cfg.model}: checkpoint carries no optimizer state")
    else:
        vocab = build_vocab(ex.input for ex in dataset)
        model = init_model(vocab, cfg.d_model, cfg.d_head, seed=cfg.seed,
                           mixer=cfg.mixer)
        opt_state = None
    tlog, opt_state = train(dataset, train_cfg, model, opt_state=opt_state)
    save_model(cfg.model, model, opt_state)
    Path(cfg.model + ".log.json").write_text(tlog.to_json(), encoding="utf-8")
    if tlog.epoch_losses:
        click.echo(f"final loss {tlog.epoch_losses[-1]:.6f} "
                   f"after {opt_state.epochs_done} epochs")


def _load_model_for_inference(cfg: RunConfig, vectors: Optional[str]) -> ModelParams:
    if not Path(cfg.model).exists():
        raise UserError(f"model file not found: {cfg.model}")
    model, _ = load_model(cfg.model)
    if vectors:
        d_model, records = read_ctxvec(vectors)
        if d_model != model.encoder.d_model:
            raise UserError(f"{vectors}: d_model {d_model} does not match model "
                            f"{model.encoder.d_model}")
        model = with_imported_vectors(model, records)
    return model


@cli.command("rewrite")
@config_option
@click.option("--data", default=None, type=click.Path(exists=True))
@click.option("--model", "model_path", default=None)
@click.option("--theta", default=None, type=float)
@click.option("--unify/--no-unify", default=None)
@click.option("--vectors", default=None, type=click.Path(exists=True),
              help="imported contextual-vector sidecar (.ctxvec)")
@click.option("--out", "out_path", default="-", help="output JSONL ('-' = stdout)")
def cmd_rewrite(config_path, data, model_path, theta, unify, vectors, out_path):
    """Rewrite every dialogue in the input JSONL."""
    cfg = _load_config(config_path, data=data, model=model_path, theta=theta,
                       unify=unify)
    model = _load_model_for_inference(cfg, vectors)
    lexicon, inputs = cfg.load_inputs()
    start = time.perf_counter()
    batch = rewrite_batch(inputs, model, cfg.theta, lexicon, unify=cfg.unify)
    results = [{"id": dlg.example_id, "rewritten": out.text(cfg.separator)}
               for (dlg, _), (out, _) in zip(inputs, batch)]
    _write_jsonl(out_path, results)
    log.info("rewrote %d dialogues in %d chunks of up to %d in %.3f s", len(inputs),
             math.ceil(len(inputs) / INFERENCE_CHUNK), INFERENCE_CHUNK,
             time.perf_counter() - start)


@cli.command("evaluate")
@click.argument("hyp", type=click.Path(exists=True))
@click.argument("ref", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True, help="print JSON instead of a table")
def cmd_evaluate(hyp, ref, as_json):
    """Score a hypothesis file against a reference file (one utterance per line)."""

    def read(path):
        return [Utterance.from_text(line) for line in read_lines(path)]

    hyps, refs = read(hyp), read(ref)
    if len(hyps) != len(refs):
        raise UserError(f"line counts differ: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise UserError("empty corpus")
    result = evaluate_corpus(hyps, refs)
    click.echo(result.to_json() if as_json else result.table())


@cli.command("inspect-matrix")
@config_option
@click.argument("example_id")
@click.option("--data", default=None, type=click.Path(exists=True))
@click.option("--model", "model_path", default=None)
@click.option("--theta", default=None, type=float)
@click.option("--vectors", default=None, type=click.Path(exists=True))
def cmd_inspect_matrix(config_path, example_id, data, model_path, theta, vectors):
    """Dump decoding diagnostics (grids, labels, spans) for one example."""
    cfg = _load_config(config_path, data=data, model=model_path, theta=theta)
    model = _load_model_for_inference(cfg, vectors)
    lexicon, inputs = cfg.load_inputs()
    for dlg, parse in inputs:
        if dlg.example_id == example_id:
            _, diag = rewrite(dlg, model, cfg.theta, lexicon, parse, cfg.unify)
            click.echo(diag.to_json())
            return
    raise UserError(f"example id {example_id!r} not found in {cfg.data}")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except MemoryError as exc:
        click.echo(f"error: out of memory ({exc})", err=True)
        return 1
    except click.Abort:
        return 1
    except Exception as exc:  # internal invariant violation
        click.echo(f"internal error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
