"""Overfit the scoring network on a toy corpus and rewrite with it.

Uses the synthetic generator from the test suite: each dialogue plants a
content span in the history and derives the incomplete utterance by
pronominalizing or deleting it, so gold supervision is exact.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from synthetic import PRONOUNS, make_corpus

from iurkit import (PronounLexicon, build_edit_matrix, build_input_sequence,
                    build_query, evaluate)
from iurkit.rewrite import rewrite, train_em
from iurkit.scoring import TrainConfig, TrainExample, build_vocab, init_model, train

lexicon = PronounLexicon.from_surface_forms(PRONOUNS)

examples = make_corpus(30, seed=0)
dataset = []
for ex in examples:
    q = build_query(ex.dialogue.incomplete, lexicon, ex.parse, unify=True)
    inp = build_input_sequence(q, ex.dialogue)
    matrix, _ = build_edit_matrix(ex.dialogue, inp)
    dataset.append(TrainExample(inp, matrix, ex.dialogue.example_id, ex.dialogue))

model = init_model(build_vocab(e.input for e in dataset),
                   d_model=16, d_head=8, seed=0)
config = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=150, seed=0)
log, _ = train(dataset, config, model)
print(f"loss {log.epoch_losses[0]:.3f} -> {log.epoch_losses[-1]:.3f} "
      f"over {config.epochs} epochs")
print(f"training-set EM: {train_em(model, dataset, theta=0.1):.2f}")

hyps = []
refs = []
for ex in examples[:5]:
    out, _ = rewrite(ex.dialogue, model, theta=0.1, lexicon=lexicon,
                     parse=ex.parse)
    hyps.append(out)
    refs.append(ex.dialogue.rewritten)
    print(" in :", ex.dialogue.incomplete.text(" "))
    print(" out:", out.text(" "))

print(evaluate(hyps, refs).table())
