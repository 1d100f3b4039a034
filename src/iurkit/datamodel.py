"""Core domain types: utterances, dialogues, and the model input sequence.

All types are frozen, slotted dataclasses; once constructed they are safe to
share across threads, and no attribute can be added to them.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

END_TOKEN = "[END]"
UNK_TOKEN = "[UNK]"
COREF_TOKEN = "[COREF]"
ELLIP_TOKEN = "[ELLIP]"


# Role, TokenizeMode and the ``role`` and ``mode`` parameters of
# ``Utterance.from_texts`` and ``Utterance.from_text`` are unused. They stay
# only because bench/corpus.py and bench/run.py pass them, and are removed in
# the benchmark-only change that re-spells those files.
class Role(Enum):
    QUERY = "query"
    HISTORY = "history"
    INCOMPLETE = "incomplete"


class TokenizeMode(Enum):
    CHAR_CJK = "char"
    WHITESPACE_PUNCT = "word"


@dataclass(frozen=True, slots=True)
class Utterance:
    """``tokens`` holds the token texts, each non-empty."""

    tokens: tuple[str, ...]
    speaker_turn: int = 0

    def __post_init__(self):
        if "" in self.tokens:
            raise ValueError("token text must be non-empty")

    @classmethod
    def from_texts(cls, texts: Sequence[str], speaker_turn: int = 0,
                   role: Role = Role.INCOMPLETE) -> "Utterance":
        return cls(tuple(texts), speaker_turn)

    @classmethod
    def from_text(cls, text: str, mode: Optional[TokenizeMode] = None,
                  speaker_turn: int = 0) -> "Utterance":
        return cls(tuple(tokenize(text)), speaker_turn)

    def texts(self) -> list[str]:
        return list(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self, sep: str = "") -> str:
        return sep.join(self.texts())


@dataclass(frozen=True, slots=True)
class Dialogue:
    history: tuple[Utterance, ...]
    incomplete: Utterance
    rewritten: Optional[Utterance] = None
    example_id: str = ""


@dataclass(frozen=True, slots=True)
class InputSequence:
    """query tokens + history tokens + incomplete tokens + one [END] sentinel.

    ``tokens`` holds the token texts; the first ``query_length`` are the
    query and the first ``context_length`` the query plus history. Ranges
    are half-open ``(start, stop)`` intervals over ``tokens``;
    ``history_turns`` gives the sub-interval of each history utterance so
    span search can respect utterance boundaries.
    """

    tokens: tuple[str, ...]
    query_length: int
    context_length: int  # the score-grid rows
    history_turns: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if not 0 <= self.query_length <= self.context_length < len(self.tokens):
            raise ValueError("ranges must be contiguous and ordered")
        if self.tokens[-1] != END_TOKEN:
            raise ValueError("final token must be the sentinel")

    @property
    def query_range(self) -> tuple[int, int]:
        return 0, self.query_length

    @property
    def history_range(self) -> tuple[int, int]:
        return self.query_length, self.context_length

    @property
    def incomplete_range(self) -> tuple[int, int]:
        return self.context_length, self.sentinel_index

    @property
    def sentinel_index(self) -> int:
        return len(self.tokens) - 1

    @property
    def incomplete_length(self) -> int:
        return self.sentinel_index - self.context_length

    def texts(self) -> list[str]:
        return list(self.tokens)


_WORD_SPLIT = re.compile(r"[A-Za-z0-9À-ɏ]+|[^\sA-Za-z0-9À-ɏ]")


def tokenize(text: str) -> list[str]:
    """Deterministic tokenization; empty text yields an empty list.

    Contiguous Latin/digit runs stay whole; every other non-space character
    (CJK ideographs, punctuation, ...) is a token of its own. The same rule
    serves space-delimited and CJK text, so it needs no language.

    Tokens are interned (``sys.intern``), so a loaded corpus holds one string
    per distinct token. The interpreter keeps interned strings for as long
    as they are referenced, and on Python 3.12 and later for the life of the
    process; what that keeps is bounded by the distinct vocabulary read.
    """
    return list(map(sys.intern, _WORD_SPLIT.findall(text)))


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file with newlines translated, as ``Path.read_text``
    gives it, without one leading byte-order mark (U+FEFF); bytes that are
    not UTF-8 are a ValueError naming file and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: {exc}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def read_lines(path: str | Path) -> list[str]:
    """The lines of ``read_text(path)``, broken at "\\n" only (not at the
    other breaks ``str.splitlines`` knows, such as U+2028 or \\x1c). A final
    newline ends the last line; it does not start an empty one."""
    text = read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def read_uncommented(path: str | Path) -> list[str]:
    """``read_lines(path)``, each cut before a ``#`` that starts it or follows whitespace."""
    return [re.split(r"(?:^|\s)#", line, maxsplit=1)[0] for line in read_lines(path)]


class DataFormat(Enum):
    CANONICAL_JSONL = "jsonl"
    TAB_SEPARATED = "tsv"


def load_dialogues(path: str | Path, format: DataFormat) -> list[Dialogue]:
    """Read dialogues from a canonical-JSONL or TAB-separated file.

    JSONL records carry ``history`` (array of strings), ``incomplete``,
    optional ``rewritten``, optional ``lang`` ("zh" | "en"; validated,
    not used) and optional ``id`` (a string or an integer; the 0-based line
    index by default). TSV columns are history..., incomplete, rewritten.
    Malformed records raise ValueError naming the file, the line number and
    the field; so does an id that an earlier line already has.
    """
    parse = {DataFormat.CANONICAL_JSONL: _parse_jsonl_record,
             DataFormat.TAB_SEPARATED: _parse_tsv_record}[DataFormat(format)]
    dialogues: list[Dialogue] = []
    id_lines: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.strip():
            try:
                dialogue = parse(line, lineno)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            first = id_lines.setdefault(dialogue.example_id, lineno)
            if first != lineno:
                raise ValueError(f"{path}: line {lineno}: field 'id' "
                                 f"{dialogue.example_id!r} repeats the id of line {first}")
            dialogues.append(dialogue)
    return dialogues


def _parse_jsonl_record(line: str, lineno: int) -> Dialogue:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: invalid JSON ({exc})") from exc
    if not isinstance(rec, dict):
        raise ValueError(f"line {lineno}: record is not an object")
    for fname, ftype in (("history", list), ("incomplete", str)):
        if fname not in rec:
            raise ValueError(f"line {lineno}: missing field '{fname}'")
        if not isinstance(rec[fname], ftype):
            raise ValueError(f"line {lineno}: field '{fname}' has wrong type")
    if not all(isinstance(t, str) for t in rec["history"]):
        raise ValueError(f"line {lineno}: field 'history' must hold strings")
    if not isinstance(rec.get("rewritten"), (str, type(None))):
        raise ValueError(f"line {lineno}: field 'rewritten' has wrong type")
    if "lang" in rec and rec["lang"] not in ("zh", "en"):
        raise ValueError(f"line {lineno}: field 'lang' must be 'zh' or 'en'")
    example_id = rec.get("id", lineno - 1)
    if isinstance(example_id, bool) or not isinstance(example_id, (str, int)):
        raise ValueError(f"line {lineno}: field 'id' must be a string or an integer")
    history = tuple(Utterance.from_text(t, speaker_turn=turn)
                    for turn, t in enumerate(rec["history"]))
    n = len(history)
    incomplete = Utterance.from_text(rec["incomplete"], speaker_turn=n)
    rewritten = None
    if rec.get("rewritten") is not None:
        rewritten = Utterance.from_text(rec["rewritten"], speaker_turn=n)
    return Dialogue(history, incomplete, rewritten,
                    example_id=str(example_id))


def _parse_tsv_record(line: str, lineno: int) -> Dialogue:
    cols = line.split("\t")
    if len(cols) < 2:
        raise ValueError(f"line {lineno}: need at least incomplete and rewritten columns")
    *hist, incomplete, rewritten = cols
    history = tuple(Utterance.from_text(t, speaker_turn=turn)
                    for turn, t in enumerate(hist))
    n = len(history)
    return Dialogue(history,
                    Utterance.from_text(incomplete, speaker_turn=n),
                    Utterance.from_text(rewritten, speaker_turn=n),
                    example_id=str(lineno - 1))


def build_input_sequence(query: "Utterance | object", dialogue: Dialogue) -> InputSequence:
    """Concatenate query, history turns, the incomplete utterance, and [END].

    ``query`` may be an Utterance or anything with a ``tokens`` tuple (e.g.
    a query template).
    """
    tokens = list(query.tokens)
    q = len(tokens)
    turn_ranges = []
    for utt in dialogue.history:
        start = len(tokens)
        tokens += utt.tokens
        turn_ranges.append((start, len(tokens)))
    h = len(tokens)
    tokens += dialogue.incomplete.tokens
    tokens.append(END_TOKEN)
    return InputSequence(tuple(tokens), q, h, tuple(turn_ranges))
