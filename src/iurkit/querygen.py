"""Query-template construction from the incomplete utterance.

A template is the incomplete utterance with a marker at each slot, a
half-open token interval: [COREF] replaces a non-empty slot (a pronoun or
referential-NP match, or a gold substitution target), [ELLIP] fills an
empty one. Without coreference slots a dependency parse places the
[ELLIP] slots (missing object -> end, missing subject -> beginning,
otherwise both ends). Markers can be written as the unified [UNK] token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .datamodel import (COREF_TOKEN, ELLIP_TOKEN, UNK_TOKEN, TokenizeMode,
                        Utterance, read_text, tokenize)

# DEPREL labels treated as subject/object evidence (UD and Chinese
# treebank spellings).
SUBJECT_LABELS = frozenset({"nsubj", "nsubj:pass", "csubj", "SBV"})
OBJECT_LABELS = frozenset({"obj", "dobj", "iobj", "obl:obj", "VOB", "IOB"})

DEFAULT_PRONOUNS_ZH = ["他", "她", "它", "他们", "她们", "它们",
                       "这", "那", "这样", "这个", "那个", "这些", "那些"]
DEFAULT_PRONOUNS_EN = ["he", "she", "it", "they", "him", "her", "them",
                       "this", "that", "these", "those", "one"]


class MarkerKind(Enum):
    COREF = "coref"
    ELLIP = "ellip"


class KindSummary(Enum):
    COREF_ONLY = "coref_only"
    ELLIPSIS_ONLY = "ellipsis_only"


@dataclass(frozen=True)
class PronounLexicon:
    """Surface forms matched as exact token subsequences, longest first."""

    entries: tuple[tuple[str, ...], ...]
    _forms: frozenset = field(init=False, repr=False, compare=False)
    _lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("pronoun lexicon must be non-empty")
        if any(len(e) == 0 or any(not t for t in e) for e in self.entries):
            raise ValueError("lexicon entries must be non-empty token sequences")
        object.__setattr__(self, "_forms", frozenset(self.entries))
        object.__setattr__(self, "_lengths",
                           tuple(sorted({len(e) for e in self.entries}, reverse=True)))

    @classmethod
    def from_surface_forms(cls, forms: Sequence[str]) -> "PronounLexicon":
        entries = {tuple(tokenize(f)) for f in forms if f.strip()}
        return cls(tuple(sorted(entries)))

    @classmethod
    def from_file(cls, path: str | Path,
                  mode: Optional[TokenizeMode] = None) -> "PronounLexicon":
        """``mode`` is unused; see the note on ``datamodel.Role``."""
        forms = [line.split("#", 1)[0] for line in read_text(path).splitlines()]
        try:
            return cls.from_surface_forms(forms)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def default(cls, lang: str) -> "PronounLexicon":
        forms = DEFAULT_PRONOUNS_ZH if lang == "zh" else DEFAULT_PRONOUNS_EN
        return cls.from_surface_forms(forms)


@dataclass(frozen=True)
class DependencyParse:
    """One row per incomplete-utterance token: head index (0 = root) + label."""

    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    forms: tuple[str, ...]

    def __post_init__(self):
        n = len(self.heads)
        if not (n == len(self.deprels) == len(self.forms)):
            raise ValueError("parse columns must have equal length")
        if n:
            if sum(1 for h in self.heads if h == 0) != 1:
                raise ValueError("parse must have exactly one root")
            if any(h < 0 or h > n for h in self.heads):
                raise ValueError("head index out of range")
            self._check_acyclic()

    def _check_acyclic(self):
        for start in range(len(self.heads)):
            seen = set()
            node = start + 1
            while node != 0:
                if node in seen:
                    raise ValueError("parse contains a head cycle")
                seen.add(node)
                node = self.heads[node - 1]

    def __len__(self) -> int:
        return len(self.heads)


def read_conllu(path: str | Path) -> list[DependencyParse]:
    """Read a CoNLL-U file into one parse per sentence block.

    Accepts the 10-column standard layout or the 4-column subset
    (ID, FORM, HEAD, DEPREL). Comment lines and multiword-token ranges
    are skipped.
    """
    parses: list[DependencyParse] = []
    rows: list[tuple[str, int, str]] = []

    def flush():
        if not rows:
            return
        try:
            parses.append(DependencyParse(heads=tuple(r[1] for r in rows),
                                          deprels=tuple(r[2] for r in rows),
                                          forms=tuple(r[0] for r in rows)))
        except ValueError as exc:
            raise ValueError(f"{path}: sentence {len(parses) + 1}: {exc}") from exc
        rows.clear()

    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if "-" in cols[0] or "." in cols[0]:
            continue
        try:
            if len(cols) >= 10:
                form, head, deprel = cols[1], int(cols[6]), cols[7]
            elif len(cols) == 4:
                form, head, deprel = cols[1], int(cols[2]), cols[3]
            else:
                raise ValueError("expected 4 or 10 columns")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        rows.append((form, head, deprel))
    flush()
    return parses


@dataclass(frozen=True)
class QueryTemplate:
    """Token texts with marker slots; ``markers`` gives each slot's index and kind."""

    tokens: tuple[str, ...]
    markers: tuple[tuple[int, MarkerKind], ...]
    kind_summary: KindSummary
    unified: bool = False

    def texts(self) -> list[str]:
        return list(self.tokens)

    def text(self, sep: str = "") -> str:
        return sep.join(self.texts())


def _template(incomplete: Utterance, slots: Sequence[tuple[int, int]],
              unify: bool) -> Optional[QueryTemplate]:
    """The incomplete utterance with a marker at each slot; None without slots.

    ``slots`` are sorted, disjoint, half-open token intervals, all of one
    kind: a non-empty ``(a, b)`` is replaced by one [COREF], an empty
    ``(a, a)`` inserts one [ELLIP] before token ``a``. With ``unify`` every
    marker is written as [UNK]; its kind stays in ``markers``.
    """
    texts, out, markers, done = incomplete.tokens, [], [], 0
    for a, b in slots:
        if not done <= a <= b <= len(texts):
            raise ValueError(f"slot {(a, b)} is unsorted, overlapping or out of range "
                             f"for {len(texts)} tokens")
        out += texts[done:a]
        markers.append((len(out), MarkerKind.COREF if a < b else MarkerKind.ELLIP))
        out.append(UNK_TOKEN if unify else COREF_TOKEN if a < b else ELLIP_TOKEN)
        done = b
    if not markers:
        return None
    summary = (KindSummary.COREF_ONLY if markers[0][1] is MarkerKind.COREF
               else KindSummary.ELLIPSIS_ONLY)
    return QueryTemplate((*out, *texts[done:]), tuple(markers), summary, unified=unify)


def _lexicon_slots(incomplete: Utterance, lexicon: PronounLexicon) -> list[tuple[int, int]]:
    """Lexicon matches, left to right without overlap, the longest entry
    first at each start (at most one entry of each length can match there)."""
    texts, slots, i = incomplete.tokens, [], 0
    while i < len(texts):
        k = next((k for k in lexicon._lengths
                  if i + k <= len(texts) and texts[i:i + k] in lexicon._forms), 0)
        if k:
            slots.append((i, i + k))
        i += k or 1
    return slots


def _gold_slots(replace_intervals: Sequence[tuple[int, int]]) -> Sequence[tuple[int, int]]:
    for a, b in replace_intervals:
        if not a < b:
            raise ValueError(f"gold interval {(a, b)} is empty")
    return replace_intervals


def _ellipsis_slots(incomplete: Utterance, parse: DependencyParse) -> list[tuple[int, int]]:
    if len(parse) != len(incomplete):
        raise ValueError(
            f"parse length {len(parse)} does not match utterance length {len(incomplete)}")
    for i, (form, text) in enumerate(zip(parse.forms, incomplete.tokens)):
        if form != text:
            raise ValueError(f"parse form {form!r} at token {i} does not match "
                             f"utterance token {text!r}")
    has_subj = any(d in SUBJECT_LABELS for d in parse.deprels)
    has_obj = any(d in OBJECT_LABELS for d in parse.deprels)
    n = len(incomplete)  # a full S-V-O also gets markers at both ends
    return [(0, 0)] * (not has_subj or has_obj) + [(n, n)] * (not has_obj or has_subj)


def match_coref(incomplete: Utterance, lexicon: PronounLexicon) -> Optional[QueryTemplate]:
    """Replace lexicon matches (left to right, non-overlapping, longest entry
    first at each start position) with [COREF]; None when nothing matches."""
    return _template(incomplete, _lexicon_slots(incomplete, lexicon), False)


def coref_from_gold(incomplete: Utterance,
                    replace_intervals: Sequence[tuple[int, int]]) -> Optional[QueryTemplate]:
    """Training-time variant: [COREF] replaces each gold substitution target,
    a sorted, disjoint, non-empty half-open token interval; None without any."""
    return _template(incomplete, _gold_slots(replace_intervals), False)


def detect_ellipsis(incomplete: Utterance, parse: DependencyParse) -> QueryTemplate:
    """Place [ELLIP] markers according to the parse's S-V-O completeness.

    Missing object -> marker appended; missing subject -> marker prepended;
    missing both, or missing neither, -> markers at both ends.
    """
    return _template(incomplete, _ellipsis_slots(incomplete, parse), False)


def build_query(incomplete: Utterance, lexicon: PronounLexicon,
                parse: Optional[DependencyParse], unify: bool,
                gold_replace_intervals: Optional[Sequence[tuple[int, int]]] = None
                ) -> QueryTemplate:
    """Coreference template if one fires, else the ellipsis template.

    A coreference slot suppresses ellipsis markers entirely. Non-empty
    ``gold_replace_intervals`` (training time) give the coreference slots
    in place of lexicon matches.
    """
    slots = (_gold_slots(gold_replace_intervals) if gold_replace_intervals
             else _lexicon_slots(incomplete, lexicon))
    if not slots:
        if parse is None:
            raise ValueError(
                "no pronoun matched; supply a dependency parse for ellipsis detection")
        slots = _ellipsis_slots(incomplete, parse)
    return _template(incomplete, slots, unify)
