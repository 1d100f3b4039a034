"""Seeded end-to-end and per-layer benchmark of iurkit.

    python3 bench/run.py --workload short-embed --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. Each invocation is one fresh,
single-threaded process (BLAS is pinned to one thread) that generates its
corpus from ``--seed``, drives the program, checks its outputs and prints
one JSON result as the last line of standard output. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced run. The exit code is 0 only when every correctness check
passed. NOTES.md says what each metric and workload is for.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # BLAS reads its thread count when numpy loads, so pin it before any
    # import that loads numpy.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

_NEEDED = (ROOT / "src" / "iurkit" / "__init__.py", ROOT / "tests" / "synthetic.py")
if not all(p.is_file() for p in _NEEDED):
    print("bench: run from the root of an iurkit source checkout; missing "
          + ", ".join(str(p.relative_to(ROOT)) for p in _NEEDED if not p.is_file()),
          file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
from corpus import (DEV_STREAM, QUALITY_STREAM, TRAIN_STREAM,  # noqa: E402
                    full_fraction, make_split, write_split)
from iurkit.cli import main as iurkit_main  # noqa: E402
from iurkit.datamodel import (DataFormat, TokenizeMode, Utterance,  # noqa: E402
                              build_input_sequence, load_dialogues)
from iurkit.metrics import evaluate  # noqa: E402
from iurkit.querygen import PronounLexicon, build_query, read_conllu  # noqa: E402
from iurkit.rewrite import rewrite  # noqa: E402
from iurkit.scoring import encode, load_model, read_ctxvec, write_ctxvec  # noqa: E402

FIXED_SEED = 0  # seed of the reference model and of the quality split

# Model settings shared by every workload (d_model and d_head are the CLI
# defaults; lr 0.01 reaches a usable model within a few epochs).
MODEL_KEYS = {"lang": "en", "d_model": 32, "d_head": 16, "lr": 0.01,
              "batch_size": 16, "seed": 0}

LOOP_STREAM = 3  # random stream of the closed loop's call order

MIN_PASSES = 3
WARMUP_CALLS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str       # "short" | "long" (see corpus.py)
    mixer: bool
    theta: float      # decode threshold preset
    n_train: int
    epochs: int
    n_dev: int        # dialogues of the closed loop, from the workload seed;
                      # 200 leave 10 dialogues beyond the latency p95
    n_cli: int        # the first n_cli of them are what iurkit rewrite is timed on
    n_ref: int        # training split of the fixed-seed reference model
    ref_epochs: int
    n_quality: int    # held-out dialogues scored for quality, fixed seed


WORKLOADS = {w.name: w for w in (
    Workload("short-embed", "short", mixer=False, theta=0.1,
             n_train=16, epochs=2, n_dev=1000, n_cli=50,
             n_ref=1000, ref_epochs=5, n_quality=2000),
    Workload("long-mixer", "long", mixer=True, theta=0.05,
             n_train=16, epochs=2, n_dev=200, n_cli=20,
             n_ref=150, ref_epochs=8, n_quality=600),
)}


class Ops:
    """Operations attempted and failed, per phase, plus failed checks."""

    def __init__(self) -> None:
        self.phases: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def count(self, phase: str, attempted: int, failed: int = 0) -> None:
        a_f = self.phases.setdefault(phase, [0, 0])
        a_f[0] += attempted
        a_f[1] += failed

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


class Files:
    """Everything one run writes, under a private work directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.splits: dict[str, dict[str, Path]] = {}
        self.model = root / "model.bin"
        self.setup_model = root / "setup.bin"
        self.traced_model = root / "traced.bin"
        self.ref_model = root / "ref.bin"
        self.dev_ctxvec = root / "dev.ctxvec"
        self.cli_hyp = root / "cli_hyp.jsonl"
        self.hyp = root / "hyp.jsonl"
        self.quality_hyp = root / "quality_hyp.jsonl"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path: Path, split: dict[str, Path], model: Path,
                 w: Workload, epochs: int) -> Path:
    keys = {**MODEL_KEYS, "data": split["data"], "parses": split["parses"],
            "lexicon": split["lexicon"], "model": model, "mixer": w.mixer,
            "theta": w.theta, "epochs": epochs}
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return path


class CheckFailed(Exception):
    """A check failed after which the run cannot go on."""


def run_cli(argv: list[str], ops: Ops, phase: str) -> float:
    """Wall seconds of one ``iurkit`` command; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = iurkit_main([str(a) for a in argv])
        wall = perf_counter() - t0
    ops.count(phase, 1, rc != 0)
    if not ops.check(rc == 0, f"{phase}: iurkit {argv[0]} exited {rc}"):
        raise CheckFailed(ops.failures[-1])
    return wall


def read_hyp(path: Path, dialogues, ops: Ops, phase: str) -> list[list[str]]:
    """Rewrites from CLI output; one record per dialogue, ids in input order."""
    recs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    ops.check([r["id"] for r in recs] == [d.example_id for d in dialogues],
              f"{phase}: {path.name} does not hold one record per dialogue in input order")
    return [r["rewritten"].split() for r in recs]


def load_inputs(split: dict[str, Path]):
    return (load_dialogues(split["data"], DataFormat.CANONICAL_JSONL),
            read_conllu(split["parses"]),
            PronounLexicon.from_file(split["lexicon"], TokenizeMode.WHITESPACE_PUNCT))


def write_ctxvec_for(split: dict[str, Path], model_path: Path, out: Path) -> None:
    """Contextual vectors of every input of ``split`` from the model's own
    encoder, as an imported-vector sidecar."""
    model, _ = load_model(model_path)
    dialogues, parses, lexicon = load_inputs(split)
    records = {}
    for dlg, parse in zip(dialogues, parses, strict=True):
        inp = build_input_sequence(build_query(dlg.incomplete, lexicon, parse, True), dlg)
        records[dlg.example_id] = encode(inp, model.encoder, dlg.example_id)
    write_ctxvec(out, model.encoder.d_model, records)


def check_guard(key: str, digest: str, ops: Ops) -> None:
    """The reference model must hash the same in every run of the same
    sources in this checkout (``key`` carries the source digest)."""
    path = WORK / "guards.json"
    guards = json.loads(path.read_text()) if path.exists() else {}
    if key in guards:
        ops.check(guards[key] == digest,
                  f"guard: reference model of {key} hashes {digest[:12]}, "
                  f"an earlier run of this checkout got {guards[key][:12]}")
    else:
        guards[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(guards, indent=1, sort_keys=True))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# set-up shared by both modes


def generate(w: Workload, seed: int, files: Files, ops: Ops, info: dict) -> None:
    """Write every split and record its seed.

    ``train`` and ``dev`` come from the workload seed; ``ref`` (training
    split of the reference model) and ``quality`` from the fixed seed.
    ``cli`` is the first ``n_cli`` dialogues of ``dev``.
    """
    plan = {"train": (w.n_train, seed, TRAIN_STREAM),
            "dev": (w.n_dev, seed, DEV_STREAM),
            "ref": (w.n_ref, FIXED_SEED, TRAIN_STREAM),
            "quality": (w.n_quality, FIXED_SEED, QUALITY_STREAM)}
    for name, (n, s, stream) in plan.items():
        examples = make_split(w.corpus, n, s, stream)
        files.splits[name] = write_split(examples, files.root, name)
        if name == "dev":
            files.splits["cli"] = write_split(examples[:w.n_cli], files.root, "cli")
    for name in ("train", "ref"):
        frac = full_fraction(files.splits[name])
        ops.check(frac == 1.0, f"generate: supervision.full_frac of the {name} "
                               f"split is {frac}, the corpus is built to be 1")
    info["seeds"] = {name: [s, stream] for name, (_, s, stream) in plan.items()}


def reference_model(w: Workload, files: Files, ops: Ops, info: dict) -> None:
    """Train the fixed-seed model every rewrite in the run uses and check
    its hash against earlier runs.

    A model trained on the workload seed would make decode work, and so
    latency, vary from seed to seed; the fixed-seed model leaves only the
    dev dialogues to vary.
    """
    cfg = write_config(files.root / "ref.ini", files.splits["ref"], files.ref_model, w,
                       w.ref_epochs)
    run_cli(["train", "--config", cfg], ops, "reference")
    digest = sha256(files.ref_model)
    info["ref_model_sha256"] = digest
    check_guard(f"{info['stamp']['source_sha256'][:16]}:{w.name}:{w.n_ref}x{w.ref_epochs}",
                digest, ops)


def quality(w: Workload, files: Files, ops: Ops) -> dict[str, float]:
    """Held-out quality of the reference model through the workload's
    rewrite path, on the fixed-seed quality split."""
    split = files.splits["quality"]
    cfg = write_config(files.root / "quality.ini", split, files.ref_model, w, w.ref_epochs)
    run_cli(["rewrite", "--config", cfg, "--out", files.quality_hyp], ops, "quality")
    dialogues, _, _ = load_inputs(split)
    hyps = read_hyp(files.quality_hyp, dialogues, ops, "quality")
    mode = TokenizeMode.WHITESPACE_PUNCT
    result = evaluate([Utterance.from_text(" ".join(h), mode) for h in hyps],
                      [d.rewritten for d in dialogues])
    return {"dev_em": result.em, "dev_bleu4": result.bleu[4], "dev_rouge_l": result.rouge_l}


def configs(w: Workload, files: Files) -> tuple[Path, Path, Path]:
    """Config of the timed training (workload seed) and of rewriting the
    dev and cli splits with the reference model."""
    return (write_config(files.root / "train.ini", files.splits["train"], files.model,
                         w, w.epochs),
            write_config(files.root / "dev.ini", files.splits["dev"], files.ref_model,
                         w, w.ref_epochs),
            write_config(files.root / "cli.ini", files.splits["cli"], files.ref_model,
                         w, w.ref_epochs))


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics, tracing off


def end_to_end(w: Workload, seed: int, seconds: float, files: Files, ops: Ops,
               info: dict) -> dict[str, tuple[float, str]]:
    """Rounds of set-up, rewrite command, train command and closed-loop
    calls until ``seconds`` have passed and the closed loop has made
    ``MIN_PASSES`` passes. Interleaving spreads every
    metric's samples over the whole run, so a slow spell on a shared host
    does not land on one metric only.

    ``setup_s`` is the median of its samples. The throughputs and
    latencies come from the fastest sample of each kind: on a shared host
    other tenants only ever slow a sample down, and the fastest of many
    is the least disturbed (see NOTES.md, "Noise")."""
    generate(w, seed, files, ops, info)
    reference_model(w, files, ops, info)
    train_cfg, _, cli_cfg = configs(w, files)
    hashes, outputs = [], []

    def setup_once() -> float:
        return run_cli(["train", "--config", train_cfg, "--epochs", 0,
                        "--model", files.setup_model], ops, "setup")

    def rewrite_once() -> float:
        wall = run_cli(["rewrite", "--config", cli_cfg, "--out", files.cli_hyp], ops,
                       "rewrite")
        outputs.append(files.cli_hyp.read_bytes())
        return wall

    def train_once() -> float:
        wall = run_cli(["train", "--config", train_cfg], ops, "train")
        hashes.append(sha256(files.model))
        return wall

    loop = ClosedLoop(w, seed, files, ops)
    samples = {"setup": [], "rewrite": [], "train": [], "latency": []}
    deadline = perf_counter() + seconds
    while len(samples["latency"]) < MIN_PASSES or perf_counter() < deadline:
        for name, fn in (("setup", setup_once), ("rewrite", rewrite_once), ("train", train_once),
                         ("latency", loop.one_pass)):
            gc.collect()
            samples[name].append(fn())
    ops.check(len(set(hashes)) == 1, "train: repeated training gave different models")
    ops.check(len(set(outputs)) == 1, "rewrite: repeated runs gave different output")
    cli_out = read_hyp(files.cli_hyp, loop.dialogues[:w.n_cli], ops, "rewrite")
    ops.check(loop.first_outputs[:w.n_cli] == cli_out,
              "latency: library rewrite() output differs from iurkit rewrite")

    metrics = {
        "setup_s": (statistics.median(samples["setup"]), "s"),
        "train_ex_per_s": (w.n_train * w.epochs / min(samples["train"]), "ex/s"),
        "rewrite_ex_per_s": (w.n_cli / min(samples["rewrite"]), "ex/s"),
        "rewrite_p50_ms": (loop.percentile(50) / 1e6, "ms"),
        "rewrite_p95_ms": (loop.percentile(95) / 1e6, "ms"),
    }
    metrics.update({k: (v, "ratio" if k == "dev_em" else "%")
                    for k, v in quality(w, files, ops).items()})
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info["samples"] = {"rounds": len(samples["setup"]),
                       "train_examples_per_run": w.n_train * w.epochs,
                       "rewrite_dialogues_per_run": w.n_cli,
                       "latency_calls": sum(map(len, loop.latency_ns)),
                       "latency_dialogues": len(loop.items), "latency_warmup": WARMUP_CALLS,
                       "quality_dialogues": w.n_quality,
                       **{f"{k}_s": v for k, v in samples.items()}}
    info["train_model_sha256"] = hashes[0]
    return metrics


def percentile(samples: list[int], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class ClosedLoop:
    """One caller making one ``rewrite()`` per dev dialogue and waiting for
    each reply.

    Every pass calls each dialogue once, in a new seeded order, so a
    garbage collection or other periodic pause does not fall on the same
    dialogue in every pass. A dialogue's latency is the fastest of its
    calls, and the percentiles are taken over dialogues: the tail then
    shows the inputs that cost most, not the moments a shared host
    stalled or slowed the process.
    """

    def __init__(self, w: Workload, seed: int, files: Files, ops: Ops) -> None:
        self.w, self.ops = w, ops
        self.rng = np.random.default_rng([seed, LOOP_STREAM])
        self.model, _ = load_model(files.ref_model)
        self.dialogues, parses, self.lexicon = load_inputs(files.splits["dev"])
        self.items = list(zip(self.dialogues, parses, strict=True))
        self.latency_ns: list[list[int]] = [[] for _ in self.items]
        self.first_outputs: list[list[str] | None] = [None] * len(self.items)
        for dlg, parse in self.items[:WARMUP_CALLS]:
            rewrite(dlg, self.model, w.theta, self.lexicon, parse)

    def one_pass(self) -> float:
        """Call every dialogue once; returns the pass's wall seconds."""
        done = 0
        t_pass = perf_counter()
        for i in self.rng.permutation(len(self.items)).tolist():
            dlg, parse = self.items[i]
            t0 = perf_counter_ns()
            try:
                res, _ = rewrite(dlg, self.model, self.w.theta, self.lexicon, parse)
            except ValueError as exc:
                self.ops.count("latency", 1, 1)
                self.ops.check(False, f"latency: rewrite of {dlg.example_id!r} failed: {exc}")
                continue
            self.latency_ns[i].append(perf_counter_ns() - t0)
            if self.first_outputs[i] is None:
                self.first_outputs[i] = res.texts()
            done += 1
        wall = perf_counter() - t_pass
        self.ops.count("latency", done)
        return wall

    def percentile(self, q: int) -> float:
        """q-th percentile over dialogues of each dialogue's fastest call, ns."""
        return percentile([min(v) for v in self.latency_ns if v], q)


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from a separate traced run


def traced(w: Workload, seed: int, seconds: float, files: Files, ops: Ops,
           info: dict) -> dict[str, tuple[float, str]]:
    """The inputs and models of the end-to-end run, driven one public call
    at a time with spans around each call.

    Training: ``iurkit train`` on the train split, then the same training
    stage by stage; the two saved models must be byte-identical.
    Rewriting: ``iurkit rewrite`` on the dev split with the reference
    model, then untraced ``rewrite()`` passes alternating with traced
    stage-by-stage passes until ``seconds`` have passed; the traced output
    must equal the CLI's, and the gap between the passes is the tracing
    overhead. A sidecar of the dev split's contextual vectors is written
    from the reference model and read back, so the imported-vector reader
    is timed at both context lengths.
    """
    generate(w, seed, files, ops, info)
    reference_model(w, files, ops, info)
    write_ctxvec_for(files.splits["dev"], files.ref_model, files.dev_ctxvec)
    train_cfg, dev_cfg, _ = configs(w, files)
    run_cli(["train", "--config", train_cfg], ops, "train")
    run_cli(["rewrite", "--config", dev_cfg, "--out", files.hyp], ops, "rewrite")

    tr = spans.Tracer()
    work = spans.train(tr, train_cfg, files.traced_model)
    ops.count("traced-train", 1)
    ops.check(sha256(files.traced_model) == sha256(files.model),
              "trace: stage-by-stage training saved a different model than iurkit train")

    with tr.span("scoring.load_model"):
        model, _ = load_model(files.ref_model)
    with tr.span("scoring.read_ctxvec"):
        read_ctxvec(files.dev_ctxvec)
    with tr.span("datamodel.load"):
        dialogues = load_dialogues(files.splits["dev"]["data"], DataFormat.CANONICAL_JSONL)
    with tr.span("querygen.read"):
        parses = read_conllu(files.splits["dev"]["parses"])
        lexicon = PronounLexicon.from_file(files.splits["dev"]["lexicon"],
                                           TokenizeMode.WHITESPACE_PUNCT)
    cli_out = read_hyp(files.hyp, dialogues, ops, "rewrite")

    items = list(zip(dialogues, parses, strict=True))
    for dlg, parse in items[:WARMUP_CALLS]:
        rewrite(dlg, model, w.theta, lexicon, parse)
    untraced_ns, traced_ns, counts = [], [], None
    deadline = perf_counter() + seconds
    while len(traced_ns) < MIN_PASSES or perf_counter() < deadline:
        gc.collect()
        t0 = perf_counter_ns()
        for dlg, parse in items:
            rewrite(dlg, model, w.theta, lexicon, parse)
        untraced_ns.append(perf_counter_ns() - t0)
        gc.collect()
        first = len(tr.spans)
        pass_counts = spans.rewrite(tr, dialogues, parses, lexicon, model, w.theta)
        traced_ns.append(sum(s[spans.END] - s[spans.START] for s in tr.spans[first:]
                             if s[spans.NAME] == "rewrite.example"))
        counts = counts or pass_counts
        ops.count("traced-rewrite", 2 * len(items))
    ops.check(counts.outputs == cli_out,
              "trace: stage-by-stage rewrite output differs from iurkit rewrite")

    with tr.span("metrics.evaluate"):
        evaluate([Utterance.from_texts(t) for t in counts.outputs],
                 [d.rewritten for d in dialogues])
    tr.write(WORK / "traces" / f"{w.name}-seed{seed}.jsonl")
    info["samples"] = {"traced_passes": len(traced_ns), "dialogues_per_pass": len(items),
                       "train_examples": work["examples"], "adam_steps": work["steps"],
                       "untraced_pass_ms": [t / 1e6 for t in untraced_ns],
                       "traced_pass_ms": [t / 1e6 for t in traced_ns]}
    return per_layer(tr, work, counts, len(traced_ns), untraced_ns, traced_ns,
                     n_loaded=work["examples"] + len(dialogues))


def per_layer(tr, work: dict, counts, passes: int, untraced_ns, traced_ns,
              n_loaded: int) -> dict[str, tuple[float, str]]:
    own = tr.self_ns()
    n_rw = counts.examples * passes
    n_prep = work["examples"] + n_rw  # query and assemble run in both paths

    def us(name, base):
        return own[name] / 1e3 / base, "us"

    def ms(name, base=1):
        return own[name] / 1e6 / base, "ms"

    return {
        "datamodel.load_us": us("datamodel.load", n_loaded),
        "querygen.read_ms": ms("querygen.read", 2),
        "querygen.query_us": us("querygen.query", n_prep),
        "datamodel.assemble_us": us("datamodel.assemble", n_prep),
        "supervision.matrix_us": us("supervision.matrix", work["examples"]),
        "scoring.init_ms": ms("scoring.init"),
        "scoring.grad_us": us("scoring.grad", work["grad_examples"]),
        "scoring.adam_us": us("scoring.adam", work["steps"]),
        "scoring.save_model_ms": ms("scoring.save_model"),
        "scoring.load_model_ms": ms("scoring.load_model"),
        "scoring.read_ctxvec_ms": ms("scoring.read_ctxvec"),
        "scoring.encode_us": us("scoring.encode", n_rw),
        "scoring.project_us": us("scoring.project", n_rw),
        "scoring.grid_us": us("scoring.grid", n_rw),
        "rewrite.threshold_us": us("rewrite.threshold", n_rw),
        "rewrite.spans_us": us("rewrite.spans", n_rw),
        "rewrite.resolve_us": us("rewrite.resolve", n_rw),
        "rewrite.apply_us": us("rewrite.apply", n_rw),
        "metrics.evaluate_ms": ms("metrics.evaluate"),
        "trace.overhead_pct": (100 * (statistics.median(traced_ns)
                                      / statistics.median(untraced_ns) - 1), "%"),
        "datamodel.tokens_per_input": (counts.tokens / counts.examples, "tokens"),
        "datamodel.context_rows": (counts.context_rows / counts.examples, "rows"),
        "scoring.grid_cells": (counts.grid_cells / counts.examples, "cells"),
        "scoring.steps": (work["steps"], "count"),
        "rewrite.examples": (counts.examples, "count"),
        "rewrite.cells_kept_frac": (counts.cells_kept / counts.grid_cells, "ratio"),
        "rewrite.spans_proposed": (counts.spans_proposed / counts.examples, "count"),
        "rewrite.spans_kept_frac": (counts.spans_kept / max(counts.spans_proposed, 1), "ratio"),
        "rewrite.noop_frac": (counts.noops / counts.examples, "ratio"),
        "supervision.examples": (work["examples"], "count"),
        "supervision.full_frac": (work["full"] / work["examples"], "ratio"),
    }


# ---------------------------------------------------------------------------
# environment stamp and entry point


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    out: dict[str, int] = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": _git_commit(), "source_sha256": _source_sha256()}


def execute(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the result object and the run's info record."""
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    files = Files(Path(tempfile.mkdtemp(prefix=f"{w.name}-seed{seed}-", dir=WORK)))
    ops = Ops()
    info = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "stamp": stamp()}
    try:
        metrics = (traced if trace else end_to_end)(w, seed, seconds, files, ops, info)
    except CheckFailed:
        metrics = {}
    finally:
        shutil.rmtree(files.root, ignore_errors=True)
    info["phases"] = {p: {"attempted": a, "failed": f} for p, (a, f) in ops.phases.items()}
    info["failures"] = ops.failures
    result = {"correct": not ops.failures, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the measured phases")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from the traced run")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind normally so the run's work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, info = execute(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
