"""Seeded benchmark corpora built from ``tests/synthetic.make_example``.

Two distributions:

* ``short``: exactly the ``make_corpus`` distribution (~18 tokens per
  input, ~13 context rows).
* ``long``: each ``make_example`` dialogue gets ``LONG_TURNS`` distractor
  history turns of 12-20 tokens prepended (~200 context rows). Distractor
  words are drawn from the synthetic vocabulary minus the words of the
  example itself, so the planted span still occurs exactly once in the
  history and every example stays fully expressible.

Every split has its own random stream, ``np.random.default_rng([seed,
stream])``, so a held-out split never shares a generator with training.
The program under test only ever sees the files ``write_split`` produces.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from iurkit.datamodel import (DataFormat, Dialogue, Role, TokenizeMode,
                              Utterance, build_input_sequence, load_dialogues)
from iurkit.querygen import PronounLexicon, build_query, read_conllu
from iurkit.supervision import build_edit_matrix
from synthetic import VOCAB, SyntheticExample, make_example, write_corpus_files

LONG_TURNS = 12
LONG_TURN_LEN = (12, 21)  # half-open range of distractor turn lengths

TRAIN_STREAM, DEV_STREAM, QUALITY_STREAM = 0, 1, 2


def _lengthen(ex: SyntheticExample, rng: np.random.Generator) -> SyntheticExample:
    d = ex.dialogue
    used = {t for u in (*d.history, d.incomplete, d.rewritten) for t in u.texts()}
    pool = [w for w in VOCAB if w not in used]
    extra = tuple(
        Utterance.from_texts(list(rng.choice(pool, size=int(rng.integers(*LONG_TURN_LEN)))),
                             turn, Role.HISTORY)
        for turn in range(LONG_TURNS))
    history = extra + tuple(Utterance(u.tokens, u.speaker_turn + LONG_TURNS)
                            for u in d.history)
    n = len(history)
    dialogue = Dialogue(history, Utterance(d.incomplete.tokens, n),
                        Utterance(d.rewritten.tokens, n), d.example_id)
    return SyntheticExample(dialogue, ex.parse, ex.kind)


def make_split(kind: str, n: int, seed: int, stream: int) -> list[SyntheticExample]:
    """``n`` examples of distribution ``kind`` ("short" | "long")."""
    if kind not in ("short", "long"):
        raise ValueError(f"unknown corpus kind {kind!r}")
    rng = np.random.default_rng([seed, stream])
    out = []
    for i in range(n):
        ex = make_example(rng, str(i))
        out.append(_lengthen(ex, rng) if kind == "long" else ex)
    return out


def write_split(examples: list[SyntheticExample], directory: Path,
                name: str) -> dict[str, Path]:
    """JSONL dialogues, CoNLL-U parses and the pronoun lexicon for one split."""
    paths = {"data": directory / f"{name}.jsonl",
             "parses": directory / f"{name}.conllu",
             "lexicon": directory / "lexicon.txt"}
    write_corpus_files(examples, paths["data"], paths["parses"], paths["lexicon"])
    return paths


def full_fraction(paths: dict[str, Path]) -> float:
    """Share of the split whose gold rewrite the edit matrix reproduces,
    computed from the written files the way ``iurkit train`` reads them."""
    dialogues = load_dialogues(paths["data"], DataFormat.CANONICAL_JSONL)
    parses = read_conllu(paths["parses"])
    lexicon = PronounLexicon.from_file(paths["lexicon"], TokenizeMode.WHITESPACE_PUNCT)
    full = 0
    for dlg, parse in zip(dialogues, parses, strict=True):
        inp = build_input_sequence(build_query(dlg.incomplete, lexicon, parse, True), dlg)
        full += build_edit_matrix(dlg, inp)[1].fully_expressible
    return full / len(dialogues)
