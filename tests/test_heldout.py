"""Held-out quality on a corpus whose edits its tokens reveal
(``synthetic.make_learnable_example``): the gate for changes that alter
float bits or outputs, which must keep EM per class within these bounds."""

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
THETA = 0.05  # the decode threshold of the recipe


def prepare(ex):
    query = build_query(ex.dialogue.incomplete, LEX, ex.parse, unify=True)
    inp = build_input_sequence(query, ex.dialogue)
    matrix, rep = build_edit_matrix(ex.dialogue, inp)
    assert rep.fully_expressible, ex.dialogue.example_id
    return TrainExample(inp, matrix, ex.dialogue.example_id, ex.dialogue)


def corpus(seed, stream, n):
    rng = np.random.default_rng([seed, stream])
    return [make_learnable_example(rng, f"{stream}-{i}") for i in range(n)]


def test_learnable_examples_place_one_marker_where_the_span_goes():
    examples = corpus(0, 0, 400)
    kinds = [e.kind for e in examples]
    assert 0.4 < kinds.count("coref") / len(kinds) < 0.6
    assert min(kinds.count(k) for k in CLASSES) > 60
    fillers = set(VOCAB)
    for ex in examples:
        d = ex.dialogue
        span = [t for t in d.rewritten.texts() if t not in d.incomplete.texts()]
        assert span and set(span) <= set(ENTITIES)
        assert not set(ENTITIES) & {t for t in d.incomplete.texts() if t not in PRONOUNS}
        assert {t for u in d.history for t in u.texts()} <= fillers | set(span)
        query = build_query(d.incomplete, LEX, ex.parse, unify=False).tokens
        at = [i for i, t in enumerate(query) if t in (COREF_TOKEN, ELLIP_TOKEN)]
        assert len(at) == 1
        assert query[at[0]] == (COREF_TOKEN if ex.kind == "coref" else ELLIP_TOKEN)
        if ex.kind == "prepend":
            assert at == [0] and d.rewritten.texts()[:len(span)] == span
        elif ex.kind == "append":
            assert at == [len(query) - 1] and d.rewritten.texts()[-len(span):] == span
        prepare(ex)  # fully expressible


def test_mixer_learns_each_class_on_held_out_examples():
    t0 = time.perf_counter()
    train_set = [prepare(e) for e in corpus(0, 0, 1000)]
    held = corpus(0, 1, 600)
    model = init_model(build_vocab([e.input for e in train_set]), d_model=32, d_head=16,
                       seed=0, mixer=True)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=15, seed=0)
    train(train_set, cfg, model)
    em = {k: train_em(model, [prepare(e) for e in held if e.kind == k], THETA)
          for k in CLASSES}
    print(f"\nheld-out EM {em} in {time.perf_counter() - t0:.1f}s")
    for k in CLASSES:
        assert em[k] >= EM_FLOOR[k], (k, em)
