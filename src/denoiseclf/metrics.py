"""Evaluation metrics: word error rate, corpus BLEU / inverted BLEU, and
confusion-matrix based micro/macro precision, recall and F1.

All functions are pure; word-level metrics share the tokenizer's
normalization rule (lower-case, punctuation stripped, inner apostrophes
kept).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UndefinedReferenceError
from .tokenizer import normalize


# -- word error rate --------------------------------------------------------

def edit_distance(a: list[str], b: list[str]) -> int:
    """Word-level Levenshtein distance with unit costs.

    Bit-parallel: bit i of ``pv``/``mv`` says whether cell (i + 1, j) of the
    DP column is one more/one less than cell (i, j); one column update is a
    few integer ops on len(a)-bit Python ints, so any length is exact
    (Myers 1999, in Hyyrö's 2001 form for global distance).
    """
    if not a:
        return len(b)
    peq: dict[str, int] = {}  # word -> bitmask of its positions in a
    for i, word in enumerate(a):
        peq[word] = peq.get(word, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for word in b:
        eq = peq.get(word, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # row 0 of the DP grows by one per word of b
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def wer(reference: str, hypothesis: str) -> float:
    """(substitutions + deletions + insertions) / reference length."""
    ref = normalize(reference)
    if not ref:
        raise UndefinedReferenceError(
            f"WER undefined for empty reference {reference!r}")
    return edit_distance(ref, normalize(hypothesis)) / len(ref)


def corpus_wer(references: list[str], hypotheses: list[str]) -> tuple[float, float]:
    """Pooled WER (total edits / total reference words) and per-sentence mean."""
    if len(references) != len(hypotheses):
        raise DataError(
            f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise DataError("empty corpus")
    edits, words, per_sentence = 0, 0, []
    for ref, hyp in zip(references, hypotheses):
        toks = normalize(ref)
        if not toks:
            raise UndefinedReferenceError(f"empty reference {ref!r}")
        d = edit_distance(toks, normalize(hyp))
        edits += d
        words += len(toks)
        per_sentence.append(d / len(toks))
    return edits / words, sum(per_sentence) / len(per_sentence)


# -- BLEU / iBLEU -----------------------------------------------------------

def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(references: list[str], hypotheses: list[str], max_n: int = 4) -> float:
    """Corpus-level BLEU with modified n-gram precision and brevity penalty.

    A zero match count at order n >= 2 is smoothed to 1 only when no
    reference in the corpus is long enough to contain an n-gram of that
    order; otherwise BLEU is 0 as usual.
    """
    if len(references) != len(hypotheses):
        raise DataError(
            f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise DataError("empty corpus")
    refs = [normalize(r) for r in references]
    hyps = [normalize(h) for h in hypotheses]
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0
    max_ref = max(len(r) for r in refs)
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matches, total = 0, 0
        for ref, hyp in zip(refs, hyps):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matches += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total += sum(hyp_counts.values())
        if total == 0:
            continue  # hypotheses too short for this order; neutral
        if matches == 0:
            if n >= 2 and max_ref < n:
                matches = 1
            else:
                return 0.0
        log_sum += math.log(matches / total) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)


def ibleu(references: list[str], hypotheses: list[str], max_n: int = 4) -> float:
    """Inverted BLEU: 1 - BLEU. Higher means noisier."""
    return 1.0 - bleu(references, hypotheses, max_n)


# -- confusion matrices -----------------------------------------------------

class ConfusionMatrix:
    """Integer counts with rows = true labels, columns = predicted labels."""

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise DataError(f"need at least 2 classes, got {num_classes}")
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    @classmethod
    def from_counts(cls, counts) -> "ConfusionMatrix":
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataError(f"confusion matrix must be square, got {arr.shape}")
        if (arr < 0).any():
            raise DataError("confusion matrix counts must be nonnegative")
        cm = cls(arr.shape[0])
        cm.counts = arr
        return cm

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def add(self, true_label: int, predicted_label: int) -> None:
        self.counts[true_label, predicted_label] += 1

    def total(self) -> int:
        return int(self.counts.sum())


def micro_scores(cm: ConfusionMatrix) -> float:
    """Micro precision == recall == F1 == trace / total (accuracy)."""
    total = cm.total()
    if total == 0:
        raise DataError("empty confusion matrix")
    return float(np.trace(cm.counts)) / total


@dataclass(frozen=True)
class MacroScores:
    precision: float
    recall: float
    f1: float
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f1: tuple[float, ...]
    degenerate_classes: tuple[int, ...] = ()  # zero-denominator classes


def macro_scores(cm: ConfusionMatrix) -> MacroScores:
    """Macro P and R average the per-class scores; macro F1 is the harmonic
    mean of those two averages (not the mean of per-class F1s)."""
    if cm.total() == 0:
        raise DataError("empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    degenerate = []
    precisions, recalls, f1s = [], [], []
    for c in range(cm.num_classes):
        if col[c] == 0 or row[c] == 0:
            degenerate.append(c)
        p = diag[c] / col[c] if col[c] else 0.0
        r = diag[c] / row[c] if row[c] else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    p_macro = sum(precisions) / cm.num_classes
    r_macro = sum(recalls) / cm.num_classes
    f1_macro = (2 * p_macro * r_macro / (p_macro + r_macro)
                if p_macro + r_macro else 0.0)
    return MacroScores(
        precision=p_macro, recall=r_macro, f1=f1_macro,
        per_class_precision=tuple(precisions),
        per_class_recall=tuple(recalls),
        per_class_f1=tuple(f1s),
        degenerate_classes=tuple(degenerate),
    )


def normalize_matrix(cm: ConfusionMatrix) -> np.ndarray:
    """Row-stochastic version of the counts; all-zero rows stay zero."""
    counts = cm.counts.astype(np.float64)
    sums = counts.sum(axis=1, keepdims=True)
    out = np.zeros_like(counts)
    nonzero = sums[:, 0] > 0
    out[nonzero] = counts[nonzero] / sums[nonzero]
    return out


@dataclass(frozen=True)
class MetricsReport:
    """All evaluation numbers for one (dataset, model) combination."""
    micro_f1: float
    macro: MacroScores
    normalized_matrix: np.ndarray
    confusion: ConfusionMatrix
    wer_pooled: float | None = None
    wer_mean: float | None = None
    ibleu: float | None = None

    @classmethod
    def from_confusion(cls, cm: ConfusionMatrix,
                       wer_pooled: float | None = None,
                       wer_mean: float | None = None,
                       ibleu_score: float | None = None) -> "MetricsReport":
        return cls(micro_f1=micro_scores(cm), macro=macro_scores(cm),
                   normalized_matrix=normalize_matrix(cm), confusion=cm,
                   wer_pooled=wer_pooled, wer_mean=wer_mean,
                   ibleu=ibleu_score)
