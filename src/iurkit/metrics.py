"""Corpus evaluation: exact match, BLEU-n, ROUGE-n, ROUGE-L."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .datamodel import Utterance
from .supervision import lcs_align

EPS = 1e-9  # smoothing for zero n-gram precision counts


@dataclass
class EvalResult:
    em: float
    bleu: dict[int, float]
    rouge_n: dict[int, float]
    rouge_l: float
    count: int

    def to_json(self) -> str:
        return json.dumps({"em": self.em,
                           "bleu": {str(n): v for n, v in self.bleu.items()},
                           "rouge_n": {str(n): v for n, v in self.rouge_n.items()},
                           "rouge_l": self.rouge_l,
                           "count": self.count})

    def table(self) -> str:
        rows = [("EM", self.em), ("BLEU-1", self.bleu[1]), ("BLEU-2", self.bleu[2]),
                ("BLEU-3", self.bleu[3]), ("BLEU-4", self.bleu[4]),
                ("ROUGE-1", self.rouge_n[1]), ("ROUGE-2", self.rouge_n[2]),
                ("ROUGE-L", self.rouge_l)]
        return "\n".join(f"{name:<10}{value:>10.3f}" for name, value in rows)


def exact_match(hyp: Utterance, ref: Utterance) -> bool:
    return hyp.texts() == ref.texts()


def _ngrams(texts: list[str], n: int) -> Counter:
    return Counter(tuple(texts[i:i + n]) for i in range(len(texts) - n + 1))


def _check_corpus(hyps: Sequence[Utterance], refs: Sequence[Utterance]) -> None:
    if not hyps or len(hyps) != len(refs):
        raise ValueError("need equally many hypotheses and references, at least one; "
                         f"got {len(hyps)} and {len(refs)}")


def bleu(hyps: Sequence[Utterance], refs: Sequence[Utterance], max_n: int = 4) -> float:
    """Corpus BLEU on 0-100: geometric mean of modified n-gram precisions
    times the brevity penalty, with add-epsilon smoothing of zero counts."""
    _check_corpus(hyps, refs)
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        h, r = hyp.texts(), ref.texts()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, max_n + 1):
            hc, rc = _ngrams(h, n), _ngrams(r, n)
            matched[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
            total[n - 1] += sum(hc.values())
    log_p = 0.0
    used = 0
    for m, t in zip(matched, total):
        if t == 0:
            # no n-gram slots at this order anywhere in the corpus; skip it
            # rather than smoothing, so identical corpora still score 100
            continue
        log_p += math.log(m / t if m else EPS)
        used += 1
    if used == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * bp * math.exp(log_p / used)


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r else 0.0


def rouge_n(hyps: Sequence[Utterance], refs: Sequence[Utterance], n: int) -> float:
    """Corpus-averaged n-gram F1, scaled to 0-100."""
    _check_corpus(hyps, refs)
    scores = []
    for hyp, ref in zip(hyps, refs):
        hc, rc = _ngrams(hyp.texts(), n), _ngrams(ref.texts(), n)
        overlap = sum(min(c, rc[g]) for g, c in hc.items())
        ht, rt = sum(hc.values()), sum(rc.values())
        p = overlap / ht if ht else 0.0
        r = overlap / rt if rt else 0.0
        scores.append(_f1(p, r))
    return 100.0 * sum(scores) / len(scores)


def rouge_l(hyps: Sequence[Utterance], refs: Sequence[Utterance]) -> float:
    """Corpus-averaged LCS-based F1, scaled to 0-100 (same LCS kernel as
    the supervision module)."""
    _check_corpus(hyps, refs)
    scores = []
    for hyp, ref in zip(hyps, refs):
        h, r = hyp.texts(), ref.texts()
        lcs = len(lcs_align(h, r))
        p = lcs / len(h) if h else 0.0
        rec = lcs / len(r) if r else 0.0
        scores.append(_f1(p, rec))
    return 100.0 * sum(scores) / len(scores)


def evaluate(hyps: Sequence[Utterance], refs: Sequence[Utterance]) -> EvalResult:
    _check_corpus(hyps, refs)
    em = sum(exact_match(h, r) for h, r in zip(hyps, refs)) / len(hyps)
    return EvalResult(em=em,
                      bleu={n: bleu(hyps, refs, n) for n in range(1, 5)},
                      rouge_n={n: rouge_n(hyps, refs, n) for n in (1, 2)},
                      rouge_l=rouge_l(hyps, refs),
                      count=len(hyps))
