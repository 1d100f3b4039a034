"""Acceptance gate: the nine criteria the package must meet, one printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -s``)."""

import copy
import math
import time
from itertools import combinations

import numpy as np
import pytest

from iurkit.cli import main
from iurkit.datamodel import Utterance, build_input_sequence
from iurkit.metrics import bleu, evaluate
from iurkit.querygen import PronounLexicon, build_query
from iurkit.rewrite import (apply_edits, cells_to_spans, resolve_conflicts, rewrite,
                            train_em)
from iurkit.scoring import (TrainConfig, TrainExample, build_vocab,
                            circle_loss, encode, grad, init_model, load_model,
                            params_items, read_ctxvec, rope_rotate, save_model,
                            train, with_imported_vectors, write_ctxvec)
from iurkit.supervision import OPS, EditMatrix, EditOp, build_edit_matrix, lcs_align
from synthetic import PRONOUNS, make_corpus, write_corpus_files

EN_LEX = PronounLexicon.from_surface_forms(PRONOUNS)


def report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def prepare(ex):
    query = build_query(ex.dialogue.incomplete, EN_LEX, ex.parse, unify=True)
    inp = build_input_sequence(query, ex.dialogue)
    matrix, rep = build_edit_matrix(ex.dialogue, inp)
    return TrainExample(inp, matrix, ex.dialogue.example_id, ex.dialogue), rep


def test_1_round_trip_supervision():
    t0 = time.perf_counter()
    ok = True
    for ex in make_corpus(500, seed=1):
        prepared, rep = prepare(ex)
        if not rep.fully_expressible:
            ok = False
            break
        spans = resolve_conflicts(cells_to_spans(prepared.gold))
        out = apply_edits(ex.dialogue.incomplete, spans, prepared.input)
        if out.texts() != ex.dialogue.rewritten.texts():
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(1, "round-trip supervision, 500 dialogues",
           ok and elapsed < 10.0)


def brute_force_lcs_len(a, b):
    short, long = (a, b) if len(a) <= len(b) else (b, a)

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(x in it for x in sub)

    for k in range(len(short), 0, -1):
        for idxs in combinations(range(len(short)), k):
            if is_subseq([short[i] for i in idxs], long):
                return k
    return 0


def test_2_lcs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = len(lcs_align(list("ABCBDAB"), list("BDCABA"))) == 4
    for _ in range(1000):
        a = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 11))]
        b = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 11))]
        if len(lcs_align(a, b)) != brute_force_lcs_len(a, b):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(2, "LCS vs exhaustive enumeration, 1000 pairs",
           ok and elapsed < 5.0)


def test_3_rope_relative_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for d in (2, 8, 64):
        n = 3334  # three dims and ~10k draws overall
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(n, d))
        i = rng.integers(0, 1024, size=n)
        j = i + rng.integers(-512, 513, size=n)
        j = np.clip(j, 0, None)
        lhs = np.sum(rope_rotate(q, i) * rope_rotate(k, j), axis=1)
        rhs = np.sum(q * rope_rotate(k, j - i), axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(3, f"rotary relative-position identity (worst |err| {worst:.2e})",
           worst <= 1e-9)


def test_4_gradient_check():
    t0 = time.perf_counter()
    batch = [prepare(e)[0] for e in make_corpus(3, seed=4)]
    vocab = build_vocab([e.input for e in batch])
    model = init_model(vocab, d_model=8, d_head=4, seed=0)
    analytic = dict(params_items(model.views(grad(model, batch)[1])))
    worst = 0.0
    h = 1e-4
    for name, p in params_items(model):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = grad(model, batch)[0]
            p[idx] = orig - h
            lm = grad(model, batch)[0]
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(analytic[name][idx] - fd) / max(abs(fd), 1e-6))
    elapsed = time.perf_counter() - t0
    report(4, f"gradient check (worst rel err {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-5 and elapsed < 30.0)


def test_5_overfit_harness():
    t0 = time.perf_counter()
    data = [prepare(e)[0] for e in make_corpus(50, seed=42)]
    vocab = build_vocab([e.input for e in data])
    model = init_model(vocab, d_model=16, d_head=8, seed=0)
    state, start, em = None, 0, 0.0
    while start < 500:
        epochs = min(start + 25, 500)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=epochs, seed=0)
        _, state = train(data, cfg, model, opt_state=state)
        start = epochs
        em = train_em(model, data, theta=0.1)
        if em >= 0.90:
            break
    elapsed = time.perf_counter() - t0
    report(5, f"overfit harness (train EM {em:.2f} at epoch {start}, {elapsed:.0f}s)",
           em >= 0.90 and elapsed < 120.0)


def test_6_circle_loss_fixtures():
    gold = EditMatrix.from_cells(1, 2, frozenset({(0, 0, EditOp.SUBSTITUTE)}))

    def scores(s_pos, s_other=-50.0):
        v = np.full((len(OPS), 1, 2), -50.0)
        v[OPS.index(EditOp.SUBSTITUTE)] = [[s_pos, s_other]]
        return v

    ok = abs(circle_loss(scores(0.0), gold) - math.log(2.0)) <= 1e-12
    rng = np.random.default_rng(6)
    for _ in range(1000):
        s = float(rng.uniform(-5, 5))
        d = float(rng.uniform(1e-3, 1.0))
        # raising a positive score lowers the loss; raising a negative raises it
        if not circle_loss(scores(s + d), gold) < circle_loss(scores(s), gold):
            ok = False
            break
        neg_lo = circle_loss(scores(0.0, s), gold)
        neg_hi = circle_loss(scores(0.0, s + d), gold)
        if not neg_hi > neg_lo:
            ok = False
            break
    report(6, "circle-loss ln 2 fixture + 1000 monotone perturbations", ok)


def test_7_metric_fixtures():
    us = [Utterance.from_texts(list(t)) for t in
          (("a", "b", "c"), ("d", "e"), ("f", "g", "h", "i"))]
    res = evaluate(us, us)
    ok = (res.em == 1.0 and abs(res.bleu[4] - 100.0) < 1e-9
          and abs(res.rouge_l - 100.0) < 1e-9)
    got = bleu([Utterance.from_texts(["a", "b", "c", "d"])],
               [Utterance.from_texts(["a", "b", "c", "d", "e"])])
    ok = ok and abs(got - 77.880) <= 0.01
    report(7, f"metric fixtures (short-hypothesis BLEU {got:.3f})", ok)


def test_8_imported_vectors_beat_copy_baseline(tmp_path):
    examples = make_corpus(100, seed=8)
    data = [prepare(e)[0] for e in examples]
    vocab = build_vocab([e.input for e in data])
    model = init_model(vocab, d_model=16, d_head=8, seed=0)
    state, start = None, 0
    while start < 400:
        epochs = start + 50
        cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=epochs, seed=0)
        _, state = train(data, cfg, model, opt_state=state)
        start = epochs
        if train_em(model, data, theta=0.1) >= 0.5:
            break
    records = {ex.example_id: encode(ex.input, model.encoder) for ex in data}
    sidecar = tmp_path / "vectors.ctxvec"
    write_ctxvec(sidecar, model.encoder.d_model, records)
    _, loaded = read_ctxvec(sidecar)
    imported = with_imported_vectors(model, loaded)
    hyps, refs, copies = [], [], []
    for ex in examples:
        out, _ = rewrite(ex.dialogue, imported, theta=0.1, lexicon=EN_LEX,
                         parse=ex.parse)
        hyps.append(out)
        refs.append(ex.dialogue.rewritten)
        copies.append(ex.dialogue.incomplete)
    em_model = evaluate(hyps, refs).em
    em_copy = evaluate(copies, refs).em
    report(8, f"imported-vector rewrite EM {em_model:.2f} vs copy baseline "
              f"{em_copy:.2f}", em_model > em_copy)


def test_9_cmd_train_determinism(tmp_path):
    root = tmp_path
    write_corpus_files(make_corpus(12, seed=9), root / "data.jsonl",
                       root / "parses.conllu", root / "lexicon.txt")
    blobs = []
    for i in range(2):
        model_path = root / f"run{i}.bin"
        rc = main(["train", "--data", str(root / "data.jsonl"),
                   "--config", str(_config(root)),
                   "--model", str(model_path)])
        assert rc == 0
        blobs.append(model_path.read_bytes())
    report(9, "byte-identical model files from two cmd_train runs",
           blobs[0] == blobs[1])


def _config(root):
    p = root / "config.ini"
    if not p.exists():
        p.write_text(f"lexicon = {root / 'lexicon.txt'}\n"
                     f"parses = {root / 'parses.conllu'}\n"
                     "lang = en\nd_model = 8\nd_head = 4\n"
                     "lr = 0.001\nbatch_size = 4\nepochs = 10\nseed = 3\n")
    return p
