"""Core domain types: tokens, utterances, dialogues, and the model input sequence.

All types are frozen dataclasses; once constructed they are safe to share
across threads. Two tokenization modes are supported: character-level for
CJK text (Latin/digit runs are kept whole) and whitespace+punctuation
splitting for space-delimited languages.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

END_TOKEN = "[END]"
UNK_TOKEN = "[UNK]"
COREF_TOKEN = "[COREF]"
ELLIP_TOKEN = "[ELLIP]"


class Role(Enum):
    QUERY = "query"
    HISTORY = "history"
    INCOMPLETE = "incomplete"


class TokenizeMode(Enum):
    CHAR_CJK = "char"
    WHITESPACE_PUNCT = "word"


@dataclass(frozen=True)
class Token:
    text: str
    position: int
    role: Role = Role.INCOMPLETE

    def __post_init__(self):
        if self.position < 0:
            raise ValueError("token position must be non-negative")
        if not self.text:
            raise ValueError("token text must be non-empty")


@dataclass(frozen=True)
class Utterance:
    tokens: tuple[Token, ...]
    speaker_turn: int = 0

    @classmethod
    def from_texts(cls, texts: Sequence[str], speaker_turn: int = 0,
                   role: Role = Role.INCOMPLETE) -> "Utterance":
        return cls(tokens=tuple(Token(t, i, role) for i, t in enumerate(texts)),
                   speaker_turn=speaker_turn)

    @classmethod
    def from_text(cls, text: str, mode: TokenizeMode, speaker_turn: int = 0,
                  role: Role = Role.INCOMPLETE) -> "Utterance":
        return cls.from_texts([t.text for t in tokenize(text, mode)],
                              speaker_turn, role)

    def texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self, sep: str = "") -> str:
        return sep.join(self.texts())


@dataclass(frozen=True)
class Dialogue:
    history: tuple[Utterance, ...]
    incomplete: Utterance
    rewritten: Optional[Utterance] = None
    example_id: str = ""


@dataclass(frozen=True)
class InputSequence:
    """query tokens + history tokens + incomplete tokens + one [END] sentinel.

    ``tokens`` holds the token texts. Ranges are half-open ``(start, stop)``
    intervals over ``tokens``; ``history_turns`` gives the sub-interval of
    each history utterance so span search can respect utterance boundaries.
    """

    tokens: tuple[str, ...]
    query_range: tuple[int, int]
    history_range: tuple[int, int]
    incomplete_range: tuple[int, int]
    sentinel_index: int
    history_turns: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        q, h, inc = self.query_range, self.history_range, self.incomplete_range
        if not (0 == q[0] <= q[1] == h[0] <= h[1] == inc[0] <= inc[1]):
            raise ValueError("ranges must be contiguous and ordered")
        if self.sentinel_index != len(self.tokens) - 1 or inc[1] != self.sentinel_index:
            raise ValueError("sentinel must be the final token")
        if self.tokens[self.sentinel_index] != END_TOKEN:
            raise ValueError("final token must be the sentinel")

    @property
    def context_length(self) -> int:
        """Number of query+history tokens (the score-grid rows)."""
        return self.history_range[1]

    @property
    def incomplete_length(self) -> int:
        return self.incomplete_range[1] - self.incomplete_range[0]

    def texts(self) -> list[str]:
        return list(self.tokens)


_LATIN_RUN = re.compile(r"[A-Za-z0-9À-ɏ]+")
_WORD_SPLIT = re.compile(r"[A-Za-z0-9À-ɏ]+|[^\sA-Za-z0-9À-ɏ]")


def _is_latin(ch: str) -> bool:
    return bool(_LATIN_RUN.fullmatch(ch))


def tokenize(text: str, mode: TokenizeMode) -> list[Token]:
    """Deterministic tokenization; empty text yields an empty list.

    CHAR_CJK emits one token per non-Latin character (CJK ideographs,
    fullwidth punctuation, ...) and keeps contiguous Latin/digit runs
    whole. WHITESPACE_PUNCT splits on whitespace and detaches punctuation.
    """
    texts: list[str] = []
    if mode is TokenizeMode.CHAR_CJK:
        run: list[str] = []
        for ch in text:
            if ch.isspace():
                if run:
                    texts.append("".join(run))
                    run = []
            elif _is_latin(ch):
                run.append(ch)
            else:
                if run:
                    texts.append("".join(run))
                    run = []
                texts.append(ch)
        if run:
            texts.append("".join(run))
    elif mode is TokenizeMode.WHITESPACE_PUNCT:
        texts = _WORD_SPLIT.findall(text)
    else:
        raise ValueError(f"unknown tokenize mode: {mode}")
    return [Token(t, i) for i, t in enumerate(texts)]


def _has_cjk(text: str) -> bool:
    return any("CJK" in unicodedata.name(ch, "") for ch in text)


def infer_mode(texts: Iterable[str]) -> TokenizeMode:
    """Guess the tokenize mode for a record lacking a language tag.

    A record mixing CJK characters with whitespace-delimited Latin words is
    ambiguous and raises, since the two modes disagree on it.
    """
    joined = " ".join(texts)
    has_cjk = _has_cjk(joined)
    has_latin_words = len(_LATIN_RUN.findall(joined)) > 1 and " " in joined.strip()
    if has_cjk and has_latin_words:
        raise ValueError("mixed-language record without a language field")
    return TokenizeMode.CHAR_CJK if has_cjk else TokenizeMode.WHITESPACE_PUNCT


MODE_BY_LANG = {"zh": TokenizeMode.CHAR_CJK, "en": TokenizeMode.WHITESPACE_PUNCT}


class DataFormat(Enum):
    CANONICAL_JSONL = "jsonl"
    TAB_SEPARATED = "tsv"


def load_dialogues(path: str | Path, format: DataFormat) -> list[Dialogue]:
    """Read dialogues from a canonical-JSONL or TAB-separated file.

    JSONL records carry ``history`` (array of strings), ``incomplete``,
    optional ``rewritten``, and ``lang`` ("zh" | "en"). TSV columns are
    history..., incomplete, rewritten. Malformed records raise ValueError
    naming the line number and field.
    """
    dialogues: list[Dialogue] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if format is DataFormat.CANONICAL_JSONL:
                dialogues.append(_parse_jsonl_record(line, lineno))
            elif format is DataFormat.TAB_SEPARATED:
                dialogues.append(_parse_tsv_record(line, lineno))
            else:
                raise ValueError(f"unknown data format: {format}")
    return dialogues


def _parse_jsonl_record(line: str, lineno: int) -> Dialogue:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: invalid JSON ({exc})") from exc
    for fname, ftype in (("history", list), ("incomplete", str)):
        if fname not in rec:
            raise ValueError(f"line {lineno}: missing field '{fname}'")
        if not isinstance(rec[fname], ftype):
            raise ValueError(f"line {lineno}: field '{fname}' has wrong type")
    texts = list(rec["history"]) + [rec["incomplete"]] + \
        ([rec["rewritten"]] if rec.get("rewritten") is not None else [])
    if "lang" in rec:
        try:
            mode = MODE_BY_LANG[rec["lang"]]
        except KeyError:
            raise ValueError(f"line {lineno}: field 'lang' must be 'zh' or 'en'") from None
    else:
        try:
            mode = infer_mode(texts)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: field 'lang': {exc}") from exc
    history = tuple(Utterance.from_text(t, mode, turn, Role.HISTORY)
                    for turn, t in enumerate(rec["history"]))
    n = len(history)
    incomplete = Utterance.from_text(rec["incomplete"], mode, n, Role.INCOMPLETE)
    rewritten = None
    if rec.get("rewritten") is not None:
        rewritten = Utterance.from_text(rec["rewritten"], mode, n, Role.INCOMPLETE)
    return Dialogue(history, incomplete, rewritten,
                    example_id=str(rec.get("id", lineno - 1)))


def _parse_tsv_record(line: str, lineno: int) -> Dialogue:
    cols = line.split("\t")
    if len(cols) < 2:
        raise ValueError(f"line {lineno}: need at least incomplete and rewritten columns")
    try:
        mode = infer_mode(cols)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    *hist, incomplete, rewritten = cols
    history = tuple(Utterance.from_text(t, mode, turn, Role.HISTORY)
                    for turn, t in enumerate(hist))
    n = len(history)
    return Dialogue(history,
                    Utterance.from_text(incomplete, mode, n, Role.INCOMPLETE),
                    Utterance.from_text(rewritten, mode, n, Role.INCOMPLETE),
                    example_id=str(lineno - 1))


def build_input_sequence(query: "Utterance | object", dialogue: Dialogue) -> InputSequence:
    """Concatenate query, history turns, the incomplete utterance, and [END].

    ``query`` may be an Utterance or anything exposing ``texts()`` (e.g. a
    query template).
    """
    tokens = list(query.texts())
    q = len(tokens)
    turn_ranges = []
    for utt in dialogue.history:
        start = len(tokens)
        tokens += utt.texts()
        turn_ranges.append((start, len(tokens)))
    h = len(tokens)
    tokens += dialogue.incomplete.texts()
    inc = len(tokens)
    tokens.append(END_TOKEN)
    return InputSequence(tokens=tuple(tokens),
                         query_range=(0, q),
                         history_range=(q, h),
                         incomplete_range=(h, inc),
                         sentinel_index=inc,
                         history_turns=tuple(turn_ranges))
