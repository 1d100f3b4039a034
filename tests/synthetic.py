"""Synthetic dialogue generator used as an independent oracle.

Each example is built backwards from a known edit: a content span is
planted in the history, and the incomplete utterance is derived from the
rewritten one either by pronominalizing the span (substitution case) or
by deleting it (insertion case). Every rewritten token therefore exists
in the history or the incomplete utterance, so examples are fully
expressible by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from iurkit.datamodel import Dialogue, Utterance
from iurkit.querygen import DependencyParse

PRONOUNS = ["he", "she", "it", "they", "this", "that"]
VOCAB = [f"word{i:03d}" for i in range(400)]


@dataclass
class SyntheticExample:
    dialogue: Dialogue
    parse: DependencyParse  # for the incomplete utterance
    kind: str               # "coref" | "ellipsis"


def _utt(words, turn):
    return Utterance.from_texts(list(words), turn)


def make_example(rng: np.random.Generator, eid: str) -> SyntheticExample:
    words = list(rng.choice(VOCAB, size=14, replace=False))
    span_len = int(rng.integers(1, 4))
    span, rest = words[:span_len], words[span_len:]
    pre = rest[: int(rng.integers(1, 4))]
    rest = rest[len(pre):]
    post = rest[: int(rng.integers(0, 4))]
    rest = rest[len(post):]
    filler = rest

    h1 = filler[:2] + span + filler[2:4]
    history = [_utt(h1, 0)]
    if rng.random() < 0.5:
        history.append(_utt(filler[4:8] or filler[:1], 1))
    rewritten = pre + span + post

    kind = "coref" if rng.random() < 0.5 else "ellipsis"
    if kind == "coref":
        pronoun = str(rng.choice(PRONOUNS))
        incomplete = pre + [pronoun] + post
    else:
        incomplete = pre + post

    n = len(history)
    dlg = Dialogue(tuple(history), _utt(incomplete, n),
                   _utt(rewritten, n), example_id=eid)
    # flat parse: first token is the root, no subject/object relations,
    # so ellipsis detection marks both ends
    heads = tuple([0] + [1] * (len(incomplete) - 1))
    deprels = tuple(["root"] + ["dep"] * (len(incomplete) - 1))
    parse = DependencyParse(heads, deprels, tuple(incomplete))
    return SyntheticExample(dlg, parse, kind)


def make_corpus(n: int, seed: int = 0) -> list[SyntheticExample]:
    rng = np.random.default_rng(seed)
    return [make_example(rng, str(i)) for i in range(n)]


def write_corpus_files(examples, data_path, conllu_path=None, lexicon_path=None):
    """Materialize a corpus as canonical JSONL (+ CoNLL-U parses, lexicon)."""
    with open(data_path, "w", encoding="utf-8") as fh:
        for ex in examples:
            rec = {"history": [u.text(" ") for u in ex.dialogue.history],
                   "incomplete": ex.dialogue.incomplete.text(" "),
                   "rewritten": ex.dialogue.rewritten.text(" "),
                   "lang": "en", "id": ex.dialogue.example_id}
            fh.write(json.dumps(rec) + "\n")
    if conllu_path is not None:
        with open(conllu_path, "w", encoding="utf-8") as fh:
            for ex in examples:
                for i, (form, head, rel) in enumerate(
                        zip(ex.parse.forms, ex.parse.heads, ex.parse.deprels), 1):
                    fh.write(f"{i}\t{form}\t{head}\t{rel}\n")
                fh.write("\n")
    if lexicon_path is not None:
        with open(lexicon_path, "w", encoding="utf-8") as fh:
            fh.write("# synthetic pronoun lexicon\n")
            fh.write("\n".join(PRONOUNS) + "\n")
