"""Evaluation metrics: word error rate, corpus BLEU / inverted BLEU, and
confusion-matrix based micro/macro precision, recall and F1.

All functions are pure; word-level metrics share the tokenizer's
normalization rule (lower-case, punctuation stripped, inner apostrophes
kept). The corpus metrics also take each sentence as its ``normalize``
tokens, so a caller scoring one corpus many times normalizes it once.

Word edit distance is Hyyrö's bit-parallel form of Myers' algorithm.
``edit_distances`` runs it over many sentence pairs at once, one uint64
lane per pair, on word-id arrays; ``corpus_wer`` and the noise channel's
calibration passes score with it, in batches of sentences that stay within
a fixed cell budget (``lane_batches``). A batch whose references are over
``LANE_WORDS`` words wide is scored pair by pair with the Python-int
routine ``edit_distance``, so a distance is exact at any width.
BLEU counts n-grams on the same word-id rows, which a caller holding them
(``make_dataset``, from its channel pass) hands over as they are: per
n-gram order one sort of (pair, gram, side) keys, over slices of at most
512 sentence pairs, so its memory does not grow with the corpus; the
counts, and so every score, are those of per-sentence ``Counter``s.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedReferenceError
from .tokenizer import as_tokens


# -- word error rate --------------------------------------------------------

LANE_WORDS = 64       # the longest sentence one uint64 lane holds
_LANE_CELLS = 1 << 15  # lanes x widest lane of one batch of arrays


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


def edit_distances(refs: np.ndarray, hyps: np.ndarray) -> np.ndarray:
    """``edit_distance`` of each row of ``refs`` against the same row of
    ``hyps``, as int64.

    Rows hold word ids. A reference row is at least 1 id, padded with -1;
    in a hypothesis row -1 is no word wherever it stands, so a column
    skips the lanes it holds -1 in. When ``refs`` is at most
    ``LANE_WORDS`` wide, each row pair is one uint64 lane of
    ``edit_distance``'s column update: the low ``len(ref)`` bits are its
    bit vectors, and the carries and shifts past them never reach back
    down. A wider batch runs ``edit_distance`` on each pair.
    """
    if refs.shape[1] > LANE_WORDS:
        return np.array([edit_distance(ref[ref >= 0].tolist(),
                                       hyp[hyp >= 0].tolist())
                         for ref, hyp in zip(refs, hyps)], dtype=np.int64)
    lengths = np.count_nonzero(refs >= 0, axis=1)
    top = np.uint64(1) << (lengths - 1).astype(np.uint64)  # last DP row
    mask = (top - np.uint64(1)) | top
    # bit i of eq[s, j]: hypothesis word j of row s is reference word i
    eq = np.zeros(hyps.shape, dtype=np.uint64)
    for i in range(refs.shape[1]):
        eq |= np.left_shift(refs[:, i, None] == hyps, np.uint64(i),
                            dtype=np.uint64)
    pv, mv = mask, np.zeros_like(mask)
    score = lengths.astype(np.int64)
    for j in range(hyps.shape[1]):
        word, e = hyps[:, j] >= 0, eq[:, j]
        xv = e | mv
        xh = (((e & pv) + pv) ^ pv) | e
        ph = mv | ~(xh | pv)
        mh = pv & xh
        score += word & ((ph & top) != 0)
        score -= word & ((mh & top) != 0)
        ph = (ph << np.uint64(1)) | np.uint64(1)
        mh = mh << np.uint64(1)
        pv = np.where(word, (mh | ~(xv | ph)) & mask, pv)
        mv = np.where(word, ph & xv, mv)
    return score


def word_ids(sentences: list[list[str]],
             index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Every word of ``sentences`` as its id in ``index``, where a word not
    yet in it takes the next id, in one flat int64 array; and the bounds
    of each sentence in it, ``len(sentences) + 1`` of them."""
    for word in dict.fromkeys(chain.from_iterable(sentences)):
        index.setdefault(word, len(index))
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    bounds = np.zeros(len(sentences) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    flat = np.fromiter(map(index.__getitem__, chain.from_iterable(sentences)),
                       np.int64, int(bounds[-1]))
    return flat, bounds


def padded(flat: np.ndarray, bounds: np.ndarray,
           lanes: np.ndarray) -> np.ndarray:
    """The sentences at positions ``lanes`` of ``word_ids``'s ``flat`` and
    ``bounds``, one row each, padded with -1 to the longest."""
    first, lengths = bounds[lanes], bounds[lanes + 1] - bounds[lanes]
    columns = np.arange(lengths.max(initial=0))
    return np.where(columns < lengths[:, None],
                    flat.take(first[:, None] + columns, mode="clip"), -1)


def lane_batches(widths: np.ndarray) -> list[np.ndarray]:
    """Every position of ``widths`` once: those no wider than
    ``LANE_WORDS`` in order, then the wider ones in order, each group cut
    into runs of equal count whose count times widest width stays within
    a fixed cell budget, or of one position wider than it, so one batch's
    arrays stay small on any corpus."""
    short = widths <= LANE_WORDS
    batches = []
    for group in (np.flatnonzero(short), np.flatnonzero(~short)):
        count = max(1, _LANE_CELLS // int(widths[group].max(initial=1)))
        batches += [group[i:i + count] for i in range(0, len(group), count)]
    return batches


def wer(reference: str, hypothesis: str) -> float:
    """(substitutions + deletions + insertions) / reference length."""
    return corpus_wer([reference], [hypothesis])[0]


def corpus_wer(references: list[str | list[str]],
               hypotheses: list[str | list[str]]) -> tuple[float, float]:
    """Pooled WER (total edits / total reference words) and per-sentence mean."""
    if len(references) != len(hypotheses):
        raise DataError(
            f"{len(references)} references vs {len(hypotheses)} hypotheses")
    refs = reference_tokens(references)
    hyps = [as_tokens(hyp) for hyp in hypotheses]
    ids: dict[str, int] = {}
    (ref_ids, ref_bounds), (hyp_ids, hyp_bounds) = (
        word_ids(refs, ids), word_ids(hyps, ids))
    widths = np.maximum(np.diff(ref_bounds), np.diff(hyp_bounds))
    distances = np.zeros(len(refs), dtype=np.int64)
    for lanes in lane_batches(widths):
        distances[lanes] = edit_distances(
            padded(ref_ids, ref_bounds, lanes),
            padded(hyp_ids, hyp_bounds, lanes))
    return pooled_and_mean(np.diff(ref_bounds), distances)


def reference_tokens(references: list[str | list[str]]) -> list[list[str]]:
    """Each reference as its tokens, once none is empty: an empty corpus or
    reference has no WER."""
    if not references:
        raise DataError("empty corpus")
    refs = [as_tokens(ref) for ref in references]
    if [] in refs:
        i = refs.index([])
        raise UndefinedReferenceError(
            f"empty reference {references[i]!r} at position {i}")
    return refs


def pooled_and_mean(lengths, distances) -> tuple[float, float]:
    """``corpus_wer`` of references ``lengths`` words long at edit
    ``distances`` (int sequences). The mean sums the rates left to right,
    as ``sum`` did before Python 3.12 made it compensated, so it is the
    same float on every Python."""
    lengths, distances = np.asarray(lengths), np.asarray(distances)
    rates = distances / lengths
    return (int(distances.sum()) / int(lengths.sum()),
            float(np.cumsum(rates)[-1] / len(rates)))


# -- BLEU / iBLEU -----------------------------------------------------------

# sentence pairs counted per pass, so the key arrays stay small on any corpus
_SLICE = 512
# the most an n-gram key may reach before its side bit, so it fits in int64
_KEY_LIMIT = 1 << 62


def bleu(references: list[str | list[str]] | list[np.ndarray],
         hypotheses: list[str | list[str]] | list[np.ndarray],
         max_n: int = 4) -> float:
    """Corpus-level BLEU with modified n-gram precision and brevity penalty.

    A zero match count at order n >= 2 is smoothed to 1 only when no
    reference in the corpus is long enough to contain an n-gram of that
    order; otherwise BLEU is 0 as usual.

    Each side is a list of sentences, or, on both sides, a list of batches
    of word-id rows, one row per sentence, in the layout ``edit_distances``
    reads (``ChannelPass.rows``): batch i of the references pairs with
    batch i of the hypotheses, a word has one id on both sides, and the
    largest id + 1 times a slice's words stays within 2**62, as it does
    for ``word_ids``. Sentences are interned into such rows, with one
    index for both sides.
    """
    if len(references) != len(hypotheses):
        raise DataError(
            f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise DataError("empty corpus")
    if max_n < 1:
        raise DataError(f"max_n must be at least 1, got {max_n}")
    if isinstance(references[0], np.ndarray):
        batches = zip(references, hypotheses)
    else:
        ids: dict[str, int] = {}
        (ref_ids, ref_bounds), (hyp_ids, hyp_bounds) = (
            word_ids([as_tokens(r) for r in references], ids),
            word_ids([as_tokens(h) for h in hypotheses], ids))
        widths = np.maximum(np.diff(ref_bounds), np.diff(hyp_bounds))
        # padded one slice at a time, so no row array spans the corpus
        slices = (lanes[i:i + _SLICE] for lanes in lane_batches(widths)
                  for i in range(0, len(lanes), _SLICE))
        batches = ((padded(ref_ids, ref_bounds, lanes),
                    padded(hyp_ids, hyp_bounds, lanes)) for lanes in slices)
    # clipped matches and hypothesis n-grams, indexed by order
    matches = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    ref_len = max_ref = 0
    for refs, hyps in batches:
        for start in range(0, len(refs), _SLICE):
            ref_words = _count_rows(refs[start:start + _SLICE],
                                    hyps[start:start + _SLICE],
                                    matches, totals)
            ref_len += int(ref_words.sum())
            max_ref = max(max_ref, int(ref_words.max(initial=0)))
    hyp_len = totals[1]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if totals[n] == 0:
            continue  # hypotheses too short for this order; neutral
        if matches[n] == 0:
            if n >= 2 and max_ref < n:
                matches[n] = 1
            else:
                return 0.0
        log_sum += math.log(matches[n] / totals[n]) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)


def _count_rows(refs: np.ndarray, hyps: np.ndarray,
                matches: list[int], totals: list[int]) -> np.ndarray:
    """Add the row pairs' clipped matches and hypothesis n-grams of orders
    1..len(matches) - 1 into ``matches`` and ``totals``; return each
    reference's word count.

    The words of every reference, then every hypothesis, lie in one flat
    array, the -1 cells dropped. The key at position p is (pair, the n
    words from p on) in mixed radix: the key of order n - 1 at p times
    (largest id + 1) plus word p + n - 1, where an order-0 key is the pair;
    the keys whose words run past their sentence are dropped. When the
    next product could pass ``_KEY_LIMIT``, the keys are first ranked down
    by ``np.unique``, which keeps equal keys equal. With the side as a low
    bit (reference 0), one sort per order puts each key's reference copies
    just before its hypothesis copies, and the key's clipped matches are
    the smaller of the two counts.
    """
    ref_live, hyp_live = refs >= 0, hyps >= 0
    words = np.concatenate([refs[ref_live], hyps[hyp_live]])
    ref_words = np.count_nonzero(ref_live, axis=1)
    lengths = np.concatenate([ref_words, np.count_nonzero(hyp_live, axis=1)])
    split = int(ref_words.sum())
    # words from each position to the end of its sentence
    left = np.repeat(np.cumsum(lengths), lengths)
    left -= np.arange(len(words))
    radix = int(words.max(initial=-1)) + 1
    key = np.repeat(np.tile(np.arange(len(refs)), 2), lengths)
    top = len(refs) - 1  # no key is larger
    for n in range(1, len(matches)):
        if (top + 1) * radix > _KEY_LIMIT:
            ranked, key = np.unique(key, return_inverse=True)
            top = len(ranked) - 1
        key = key[:len(words) - n + 1] * radix
        key += words[n - 1:]
        top = (top + 1) * radix - 1
        sided = key << 1
        sided[split:] |= 1
        sided = sided[left[:len(key)] >= n]
        if not len(sided):
            break  # no sentence is this long, so none is longer
        sided.sort()
        # where each key's run starts, and where the last one ends: two
        # sorted neighbours differ above the side bit
        edges = np.ones(len(sided) + 1, dtype=bool)
        np.greater(sided[1:] ^ sided[:-1], 1, out=edges[1:-1])
        bounds = np.flatnonzero(edges)
        hyps_before = np.zeros(len(sided) + 1, dtype=np.int64)
        np.bitwise_and(sided, 1, out=hyps_before[1:])
        np.cumsum(hyps_before, out=hyps_before)
        hyp_count = np.diff(hyps_before[bounds])
        ref_count = np.diff(bounds) - hyp_count
        matches[n] += int(np.minimum(ref_count, hyp_count).sum())
        totals[n] += int(hyps_before[-1])
    return ref_words


def ibleu(references: list[str | list[str]] | list[np.ndarray],
          hypotheses: list[str | list[str]] | list[np.ndarray]) -> float:
    """Inverted BLEU: 1 - BLEU. Higher means noisier."""
    return 1.0 - bleu(references, hypotheses)


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

