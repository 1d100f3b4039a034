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
from dataclasses import dataclass, replace

import numpy as np

from iurkit.datamodel import Dialogue, Utterance
from iurkit.querygen import DependencyParse

PRONOUNS = ["he", "she", "it", "they", "this", "that"]
VOCAB = [f"word{i:03d}" for i in range(400)]
# the spans of ``make_learnable_example``: no filler word is an entity
ENTITIES = [f"ent{i:03d}" for i in range(200)]


@dataclass
class SyntheticExample:
    dialogue: Dialogue
    parse: DependencyParse  # for the incomplete utterance
    kind: str               # "coref" | "ellipsis"; "prepend" | "append" when learnable


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


def make_learnable_example(rng: np.random.Generator, eid: str) -> SyntheticExample:
    """An example whose edit its tokens reveal: the span is one to two
    entity words, planted among filler words in the history. Half of the
    examples are coref (a pronoun stands for the span). The rest drop the
    span, from the front (the parse has an object and no subject) or the
    back (a subject and no object), so ``_ellipsis_slots`` places exactly
    one marker, where the span goes."""
    span = rng.choice(ENTITIES, size=int(rng.integers(1, 3)), replace=False).tolist()
    words = rng.choice(VOCAB, size=12, replace=False).tolist()
    at = int(rng.integers(0, 5))
    history = [_utt(words[:at] + span + words[at:6], 0)]
    if rng.random() < 0.5:
        history.append(_utt(words[6:9], 1))
    rest = words[9:9 + int(rng.integers(2, 4))]
    kind = "coref" if rng.random() < 0.5 else str(rng.choice(["prepend", "append"]))
    if kind == "coref":
        cut = int(rng.integers(0, len(rest) + 1))
        incomplete = rest[:cut] + [str(rng.choice(PRONOUNS))] + rest[cut:]
        rewritten = rest[:cut] + span + rest[cut:]
        heads, deprels = [0] + [1] * len(rest), ["root"] + ["dep"] * len(rest)
    elif kind == "prepend":  # verb, object, ...: the subject is missing
        incomplete, rewritten = rest, span + rest
        heads, deprels = [0] + [1] * (len(rest) - 1), ["root", "obj"] + ["dep"] * (len(rest) - 2)
    else:  # subject, verb, ...: the object is missing
        incomplete, rewritten = rest, rest + span
        heads, deprels = [2, 0] + [2] * (len(rest) - 2), ["nsubj", "root"] + ["dep"] * (len(rest) - 2)
    n = len(history)
    dlg = Dialogue(tuple(history), _utt(incomplete, n), _utt(rewritten, n), example_id=eid)
    return SyntheticExample(dlg, DependencyParse(tuple(heads), tuple(deprels),
                                                 tuple(incomplete)), kind)


def make_corpus(n: int, seed: int = 0) -> list[SyntheticExample]:
    rng = np.random.default_rng(seed)
    return [make_example(rng, str(i)) for i in range(n)]


def lengthen(ex, rng, turns=12, turn_len=16):
    """Prepend distractor history turns (~200 context rows), drawn from
    vocabulary words the dialogue does not use."""
    d = ex.dialogue
    used = {t for u in (*d.history, d.incomplete, d.rewritten) for t in u.texts()}
    pool = [w for w in VOCAB if w not in used]
    extra = tuple(Utterance.from_texts(list(rng.choice(pool, size=turn_len)), turn)
                  for turn in range(turns))
    history = extra + tuple(Utterance(u.tokens, u.speaker_turn + turns)
                            for u in d.history)
    n = len(history)
    return replace(ex, dialogue=Dialogue(history, Utterance(d.incomplete.tokens, n),
                                         Utterance(d.rewritten.tokens, n), d.example_id))


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
