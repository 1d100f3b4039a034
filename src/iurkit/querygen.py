"""Query-template construction from the incomplete utterance.

A template is the incomplete utterance with marker slots: pronoun and
referential-NP matches become [COREF] slots; when no pronoun matches, a
dependency parse decides where [ELLIP] slots go (missing object -> end,
missing subject -> beginning, otherwise both ends). Markers can be
rendered as the unified [UNK] token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .datamodel import (COREF_TOKEN, ELLIP_TOKEN, UNK_TOKEN, TokenizeMode,
                        Utterance, tokenize)

# DEPREL labels treated as subject/object evidence; configurable because
# different parsers label these differently.
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
    NONE = "none"


@dataclass(frozen=True)
class PronounLexicon:
    """Surface forms matched as exact token subsequences, longest first."""

    entries: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("pronoun lexicon must be non-empty")
        if any(len(e) == 0 or any(not t for t in e) for e in self.entries):
            raise ValueError("lexicon entries must be non-empty token sequences")

    @classmethod
    def from_surface_forms(cls, forms: Sequence[str]) -> "PronounLexicon":
        entries = {tuple(tokenize(f)) for f in forms if f.strip()}
        return cls(tuple(sorted(entries)))

    @classmethod
    def from_file(cls, path: str | Path,
                  mode: Optional[TokenizeMode] = None) -> "PronounLexicon":
        """``mode`` is unused; see the note on ``datamodel.Role``."""
        forms = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                forms.append(line)
        return cls.from_surface_forms(forms)

    @classmethod
    def default(cls, lang: str) -> "PronounLexicon":
        forms = DEFAULT_PRONOUNS_ZH if lang == "zh" else DEFAULT_PRONOUNS_EN
        return cls.from_surface_forms(forms)

    def longest_first(self) -> list[tuple[str, ...]]:
        return sorted(self.entries, key=lambda e: (-len(e), e))


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

    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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

    def unify(self) -> "QueryTemplate":
        """Render every marker token as [UNK]; marker kinds stay in metadata."""
        marker_positions = {p for p, _ in self.markers}
        toks = tuple(UNK_TOKEN if i in marker_positions else t
                     for i, t in enumerate(self.tokens))
        return QueryTemplate(toks, self.markers, self.kind_summary, unified=True)


def match_coref(incomplete: Utterance, lexicon: PronounLexicon) -> Optional[QueryTemplate]:
    """Replace lexicon matches with [COREF] markers; None when nothing matches.

    Scanning is left to right, non-overlapping, longest entry first at each
    start position.
    """
    texts = incomplete.texts()
    entries = lexicon.longest_first()
    out: list[str] = []
    markers: list[tuple[int, MarkerKind]] = []
    i = 0
    while i < len(texts):
        hit = None
        for entry in entries:
            if tuple(texts[i:i + len(entry)]) == entry:
                hit = entry
                break
        if hit is not None:
            markers.append((len(out), MarkerKind.COREF))
            out.append(COREF_TOKEN)
            i += len(hit)
        else:
            out.append(texts[i])
            i += 1
    if not markers:
        return None
    return QueryTemplate(tuple(out), tuple(markers), KindSummary.COREF_ONLY)


def coref_from_gold(incomplete: Utterance,
                    replace_intervals: Sequence[tuple[int, int]]) -> Optional[QueryTemplate]:
    """Training-time variant: marker slots come from gold substitution targets.

    ``replace_intervals`` are half-open token intervals of the incomplete
    utterance known (from supervision) to be substituted.
    """
    if not replace_intervals:
        return None
    texts = incomplete.texts()
    replaced = sorted(replace_intervals)
    out: list[str] = []
    markers: list[tuple[int, MarkerKind]] = []
    i = 0
    while i < len(texts):
        interval = next((iv for iv in replaced if iv[0] == i), None)
        if interval is not None:
            markers.append((len(out), MarkerKind.COREF))
            out.append(COREF_TOKEN)
            i = interval[1]
        else:
            out.append(texts[i])
            i += 1
    return QueryTemplate(tuple(out), tuple(markers), KindSummary.COREF_ONLY)


def detect_ellipsis(incomplete: Utterance, parse: DependencyParse,
                    subject_labels: frozenset[str] = SUBJECT_LABELS,
                    object_labels: frozenset[str] = OBJECT_LABELS) -> QueryTemplate:
    """Place [ELLIP] markers according to the parse's S-V-O completeness.

    Missing object -> marker appended; missing subject -> marker prepended;
    missing both, or missing neither, -> markers at both ends.
    """
    if len(parse) != len(incomplete):
        raise ValueError(
            f"parse length {len(parse)} does not match utterance length {len(incomplete)}")
    texts = incomplete.texts()
    for i, (form, text) in enumerate(zip(parse.forms, texts)):
        if form != text:
            raise ValueError(f"parse form {form!r} at token {i} does not match "
                             f"utterance token {text!r}")
    has_subj = any(d in subject_labels for d in parse.deprels)
    has_obj = any(d in object_labels for d in parse.deprels)
    at_begin = not has_subj or (has_subj and has_obj)
    at_end = not has_obj or (has_subj and has_obj)
    markers: list[tuple[int, MarkerKind]] = []
    out: list[str] = []
    if at_begin:
        markers.append((0, MarkerKind.ELLIP))
        out.append(ELLIP_TOKEN)
    out.extend(texts)
    if at_end:
        markers.append((len(out), MarkerKind.ELLIP))
        out.append(ELLIP_TOKEN)
    return QueryTemplate(tuple(out), tuple(markers), KindSummary.ELLIPSIS_ONLY)


def build_query(incomplete: Utterance, lexicon: PronounLexicon,
                parse: Optional[DependencyParse], unify: bool,
                gold_replace_intervals: Optional[Sequence[tuple[int, int]]] = None
                ) -> QueryTemplate:
    """Coreference template if one fires, else the ellipsis template.

    A successful coreference match suppresses ellipsis markers entirely.
    When ``gold_replace_intervals`` is given (training time) the coreference
    slots come from gold substitution targets instead of lexicon matches.
    """
    if gold_replace_intervals is not None:
        template = coref_from_gold(incomplete, gold_replace_intervals)
    else:
        template = match_coref(incomplete, lexicon)
    if template is None:
        if parse is None:
            raise ValueError(
                "no pronoun matched; supply a dependency parse for ellipsis detection")
        template = detect_ellipsis(incomplete, parse)
    return template.unify() if unify else template
