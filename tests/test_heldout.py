"""Held-out quality on a corpus whose edits its tokens reveal
(``synthetic.make_learnable_example``): the gate for changes that alter
float bits or outputs, which must keep EM per class within these bounds."""

import hashlib
import json
import time

import numpy as np

from iurkit.datamodel import COREF_TOKEN, ELLIP_TOKEN, build_input_sequence
from iurkit.querygen import PronounLexicon, build_query
from iurkit.rewrite import train_em
from iurkit.scoring import TrainConfig, TrainExample, build_vocab, init_model, train
from iurkit.supervision import build_edit_matrix
from synthetic import ENTITIES, PRONOUNS, VOCAB, make_learnable_example

LEX = PronounLexicon.from_surface_forms(PRONOUNS)
CLASSES = ("coref", "prepend", "append")

# The lowest EM per class over seeds 0-3 of this recipe (1000 training and
# 600 held-out examples, 15 epochs; seed s draws the data from streams
# [s, 0] and [s, 1] and seeds the init and the shuffle), measured when the
# test was added. The test runs seed 0.
#   coref 0.932 0.949 0.938 0.856; prepend 0.044 0.047 0.029 0.027;
#   append 0.331 0.541 0.294 0.265.
EM_FLOOR = {"coref": 0.85, "prepend": 0.02, "append": 0.26}
# The same for ``distractors=True``, where an earlier turn names 1-2 other
# entities:
#   coref 0.778 0.219 0.739 0.817; prepend 0.066 0.013 0.063 0.064;
#   append 0.223 0.344 0.322 0.275.
DISTRACTOR_EM_FLOOR = {"coref": 0.21, "prepend": 0.01, "append": 0.22}
# sha256 of the default draws of seeds 0-3, streams 0 (1000) and 1 (600)
DEFAULT_DRAWS_SHA256 = "9796f54b51576466d75b49ca6609f130192115acf118d6080823c905e2df4243"
THETA = 0.05  # the decode threshold of the recipe


def prepare(ex):
    query = build_query(ex.dialogue.incomplete, LEX, ex.parse, unify=True)
    inp = build_input_sequence(query, ex.dialogue)
    matrix, rep = build_edit_matrix(ex.dialogue, inp)
    assert rep.fully_expressible, ex.dialogue.example_id
    return TrainExample(inp, matrix, ex.dialogue.example_id, ex.dialogue)


def corpus(seed, stream, n, distractors=False):
    rng = np.random.default_rng([seed, stream])
    return [make_learnable_example(rng, f"{stream}-{i}", distractors) for i in range(n)]


def check_kinds(examples):
    kinds = [e.kind for e in examples]
    assert 0.4 < kinds.count("coref") / len(kinds) < 0.6
    assert min(kinds.count(k) for k in CLASSES) > 60


def check_example(ex):
    """One marker, where the span goes; the span is entity words only, and
    the example is fully expressible. Returns the span and the prepared
    example."""
    d = ex.dialogue
    span = [t for t in d.rewritten.texts() if t not in d.incomplete.texts()]
    assert span and set(span) <= set(ENTITIES)
    assert not set(ENTITIES) & {t for t in d.incomplete.texts() if t not in PRONOUNS}
    query = build_query(d.incomplete, LEX, ex.parse, unify=False).tokens
    at = [i for i, t in enumerate(query) if t in (COREF_TOKEN, ELLIP_TOKEN)]
    assert len(at) == 1
    assert query[at[0]] == (COREF_TOKEN if ex.kind == "coref" else ELLIP_TOKEN)
    if ex.kind == "prepend":
        assert at == [0] and d.rewritten.texts()[:len(span)] == span
    elif ex.kind == "append":
        assert at == [len(query) - 1] and d.rewritten.texts()[-len(span):] == span
    return span, prepare(ex)  # fully expressible


def test_learnable_examples_place_one_marker_where_the_span_goes():
    examples = corpus(0, 0, 400)
    check_kinds(examples)
    for ex in examples:
        span, _ = check_example(ex)
        assert {t for u in ex.dialogue.history for t in u.texts()} <= set(VOCAB) | set(span)


def test_default_draws_do_not_move():
    """Without distractors every draw is the one recorded before the option
    existed, for the seeds and streams the floors were measured on."""
    h = hashlib.sha256()
    for seed in range(4):
        for stream, n in ((0, 1000), (1, 600)):
            for ex in corpus(seed, stream, n):
                d = ex.dialogue
                h.update(json.dumps([d.example_id, [u.texts() for u in d.history],
                                     d.incomplete.texts(), d.rewritten.texts(),
                                     ex.parse.heads, ex.parse.deprels, ex.kind]).encode()
                         + b"\n")
    assert h.hexdigest() == DEFAULT_DRAWS_SHA256


def test_distractor_examples_put_the_span_in_the_last_turn():
    examples = corpus(0, 0, 400, distractors=True)
    check_kinds(examples)
    for ex in examples:
        span, prepared = check_example(ex)
        earlier, last = (u.texts() for u in ex.dialogue.history)
        others = [t for t in earlier if t in ENTITIES]
        assert 1 <= len(others) <= 2 and not set(others) & set(span)
        assert set(earlier) <= set(VOCAB) | set(others)
        assert set(last) <= set(VOCAB) | set(span) and set(span) <= set(last)
        lo, hi = prepared.input.history_turns[-1]
        rows = np.nonzero(prepared.gold.labels)[1]
        assert rows.size and lo <= rows.min() and rows.max() < hi


def held_out_em(distractors):
    """Seed 0 of the recipe: held-out EM per class."""
    t0 = time.perf_counter()
    train_set = [prepare(e) for e in corpus(0, 0, 1000, distractors)]
    held = corpus(0, 1, 600, distractors)
    model = init_model(build_vocab([e.input for e in train_set]), d_model=32, d_head=16,
                       seed=0, mixer=True)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=15, seed=0)
    train(train_set, cfg, model)
    em = {k: train_em(model, [prepare(e) for e in held if e.kind == k], THETA)
          for k in CLASSES}
    print(f"\nheld-out EM {em} in {time.perf_counter() - t0:.1f}s")
    return em


def test_mixer_learns_each_class_on_held_out_examples():
    em = held_out_em(distractors=False)
    for k in CLASSES:
        assert em[k] >= EM_FLOOR[k], (k, em)


def test_mixer_learns_each_class_past_distractors():
    em = held_out_em(distractors=True)
    for k in CLASSES:
        assert em[k] >= DISTRACTOR_EM_FLOOR[k], (k, em)
