"""Seeded synthetic corruption channel standing in for speech-transcription
and informal-typing noise.

Each token of a normalized sentence independently draws one corruption
category: deletion, substitution, repeated-letter stretching, abbreviation
replacement, or casual-spelling replacement. A substitution is a uniform
pick from the spec's pool (``pool_of`` the clean corpus, each word once)
less the token's own word, or the token itself when the pool is empty. The
channel is a pure function of (sentence, spec, position in corpus), so
regenerating a corpus is byte-identical under a fixed seed.

Every draw is a pure function of (seed, sentence i, token j, draw d): the
SplitMix64 output (Steele, Lea & Flood 2014) at the counter
``i << 32 | j << 1 | d``, ``mix64(key + (counter + 1) * GAMMA)`` with
``key`` a hash of the seed, a counter-based stream in the sense of Salmon
et al. 2011 ("Parallel random numbers: as easy as 1, 2, 3"). Draw 0 picks
the category from its top 53 bits, a uniform in [0, 1); draw 1 picks a
substitute, or a stretch of 2 to 5 letters, as ``top32 * range >> 32``,
with no rejection, so each of the ``range`` values has probability within
a factor of ``1 +- range / 2**32`` of ``1 / range``.
``corrupt`` runs that stream on Python ints, one token at a time.
``corrupt_corpus`` and ``calibrate`` prepare the corpus once
(``_Interned``): every word the channel can write as an integer id, and
per token of the whole corpus its category draw and the id each category
would write there, drawn as flat arrays; none of it depends on the
probabilities. A pass (``_Run``) is then a few array ops over every token
at once: a ``searchsorted`` of the uniforms into the category thresholds
and one gather of the written ids. Only for scoring are those padded into
the ``metrics.lane_batches`` rows that ``metrics.edit_distances`` reads.
A pool word must be one ``normalize`` token, so every word the channel
writes is a token with an id.
``calibrate`` scales the destructive probabilities by bisection until a
corpus hits a target word error rate; every pass runs to its end, and it
returns the last one, with its noisy tokens, per-category counts and word-id
rows. With no target it returns the one pass at the spec itself.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate, pairwise
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ConfigError, check_fields
from .metrics import (edit_distances, lane_batches, padded, pooled_and_mean,
                      reference_tokens, word_ids)
from .tokenizer import as_tokens, normalize

# Built-in replacement tables mirroring common informal-text mistakes:
# abbreviations and casual pronunciation spellings.
ABBREVIATIONS = {
    "please": "pls",
    "you": "u",
    "your": "ur",
    "right": "ryt",
    "literature": "lit",
    "because": "bc",
    "tomorrow": "tmrw",
    "thanks": "thx",
    "people": "ppl",
    "message": "msg",
}

CASUAL_SPELLINGS = {
    "want": "wanna",
    "going": "gonna",
    "know": "kno",
    "don't": "dunno",
    "about": "bout",
    "talking": "talkin",
    "answer": "ans",
    "night": "nite",
    "the": "teh",
    "good": "goonite",
    "dreams": "dreamz",
}

# the channel's categories, in the order a token's draw picks them; a draw
# past the last keeps the token
CATEGORIES = ("delete", "substitute", "repeat", "abbreviate", "casual")

WER_TOLERANCE = 0.05   # calibrate stops within this of the target WER
MAX_BISECTIONS = 30

# SplitMix64's state increment, its output mix's multipliers, and the step
# from a 53-bit integer to a float in [0, 1)
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_DOUBLE_STEP = 2.0 ** -53


def _mix64(z):
    """SplitMix64's output mix of the state ``z``: a Python int below
    2**64, or a uint64 array."""
    z = (z ^ z >> 30) * _MIX[0] & _MASK64
    z = (z ^ z >> 27) * _MIX[1] & _MASK64
    return z ^ z >> 31


def _draw(key: int, counter):
    """``key``'s stream at ``counter`` (a Python int or a uint64 array):
    output ``counter + 1`` of SplitMix64 started from the state ``key``."""
    return _mix64((key + (counter + 1) * _GAMMA) & _MASK64)


@dataclass(frozen=True)
class NoiseSpec:
    p_delete: float = 0.0
    p_substitute: float = 0.0
    p_repeat: float = 0.0
    p_abbreviate: float = 0.0
    p_casual: float = 0.0
    pool: tuple[str, ...] = ()
    seed: int = 0
    target_wer: float | None = None

    def __post_init__(self):
        check_fields(self)
        probs = self.probabilities()
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ConfigError(f"probabilities must lie in [0, 1]: {probs}")
        if sum(probs) > 1.0 + 1e-12:
            raise ConfigError(
                f"category probabilities sum to {sum(probs):.3f} > 1")
        if len(self._pool_index) < len(self.pool):
            repeated = next(w for w in self.pool if self.pool.count(w) > 1)
            raise ConfigError(f"pool repeats the word {repeated!r}")
        # no token spans a space, so the joined pool splits back into the
        # pool exactly when each word is one token
        if normalize(" ".join(self.pool)) != list(self.pool):
            odd = next(w for w in self.pool if normalize(w) != [w])
            raise ConfigError(f"pool word {odd!r} is not one normalize token")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.target_wer is not None and not 0.0 < self.target_wer <= 2.0:
            raise ConfigError(
                f"target WER must lie in (0, 2], got {self.target_wer}")

    def probabilities(self) -> tuple[float, ...]:
        return (self.p_delete, self.p_substitute, self.p_repeat,
                self.p_abbreviate, self.p_casual)

    @cached_property
    def _pool_index(self) -> dict[str, int]:
        """Each pool word's position in the pool."""
        return {w: i for i, w in enumerate(self.pool)}

    @cached_property
    def _thresholds(self) -> list[float]:
        """The category boundaries: running sums in the order np.cumsum
        adds them, so they are the same floats."""
        return list(accumulate(self.probabilities()))

    @cached_property
    def _key(self) -> int:
        """The stream's 64-bit key: from 0, each 64-bit word of the seed,
        least first, is xored into the key, which then takes one SplitMix64
        step (add GAMMA, mix); so every seed below 2**64 has its own
        key."""
        key, seed = 0, self.seed
        while True:
            key = _mix64(((key ^ seed & _MASK64) + _GAMMA) & _MASK64)
            seed >>= 64
            if not seed:
                return key

    def _skip(self, word: str) -> int:
        """The pool position a substitute of ``word`` passes over: the
        word's own, when the pool holds it and another word; else the
        pool's size, past every position."""
        size = len(self.pool)
        return self._pool_index.get(word, size) if size > 1 else size


def pool_of(sentences) -> tuple[str, ...]:
    """The substitution pool of ``sentences``: their ``normalize`` words,
    the form of the tokens a substitution replaces, each once, sorted."""
    return tuple(sorted({w for s in sentences for w in normalize(s)}))


def corrupt(sentence: str, spec: NoiseSpec, index: int = 0) -> str:
    """Apply the corruption channel to one sentence.

    ``index`` is the sentence's position in its corpus, in [0, 2**32);
    together with the spec's seed it fully determines the output. Each
    token reads its two draws and writes what ``_Interned`` tables for it.
    """
    # as a Python int, as a numpy int would overflow in the counter's
    # arithmetic
    index = operator.index(index)
    if not 0 <= index < 1 << 32:
        raise ConfigError(
            f"sentence index must lie in [0, 2**32), got {index}")
    pool, words = spec.pool, []
    for j, word in enumerate(normalize(sentence)):
        counter = index << 32 | j << 1
        category = bisect_right(spec._thresholds, (
            _draw(spec._key, counter) >> 11) * _DOUBLE_STEP)
        top = _draw(spec._key, counter | 1) >> 32
        if category == 0:  # deletion
            continue
        if category == 1 and pool:  # substitution
            skip = spec._skip(word)
            pick = top * (len(pool) - (skip < len(pool))) >> 32
            word = pool[pick + (pick >= skip)]
        elif category == 2:  # repeated-letter stretching
            word += word[-1] * (2 + (top * 4 >> 32))
        elif category == 3:
            word = ABBREVIATIONS.get(word, word)
        elif category == 4:
            word = CASUAL_SPELLINGS.get(word, word)
        words.append(word)
    return " ".join(words)


# the category a token whose draw falls past every threshold takes: kept
_KEEP = len(CATEGORIES)


def _token_draws(key: int, bounds: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each token's category draw, as a uniform in [0, 1), and the top 32
    bits of its second draw, for the sentences between ``bounds``: token j
    of sentence i at the counters ``i << 32 | j << 1`` and that plus 1."""
    lengths = np.diff(bounds)
    first = np.repeat(bounds[:-1], lengths)
    counter = (np.repeat(np.arange(len(lengths), dtype=np.uint64), lengths)
               << 32 | (np.arange(len(first)) - first).astype(np.uint64) << 1)
    return ((_draw(key, counter) >> 11) * _DOUBLE_STEP,
            _draw(key, counter | 1) >> 32)


class _Interned:
    """A corpus, and every word its channel can write, as integer ids, with
    each token's draws.

    ``words[i]`` is the word of id i, the corpus's own words first;
    ``flat`` and ``bounds`` are the corpus as ``word_ids`` gives it, and
    ``batches`` its ``lane_batches`` as ``(positions, word ids padded with
    -1)``. Per token of ``flat``, ``uniform`` is its category draw and
    ``choices[c]`` the id category c writes there (-1: none): the
    substitute and the stretch its second draw picks, as ``corrupt``
    would, its abbreviation, its casual spelling, or itself. None of it
    depends on the probabilities, so every pass of one calibration shares
    it.
    """

    def __init__(self, corpus: list[list[str]], spec: NoiseSpec):
        index: dict[str, int] = {}
        self.flat, self.bounds = word_ids(corpus, index)
        vocab = list(index)

        def ids(words) -> np.ndarray:
            """The id of each of ``words``, a new word taking the next."""
            return np.fromiter((index.setdefault(w, len(index))
                                for w in words), np.int64)

        flat, size = self.flat, len(spec.pool)
        self.uniform, top = _token_draws(spec._key, self.bounds)
        # int32 halves the largest table a dataset holds; no corpus has
        # 2**31 distinct words
        choices = self.choices = np.empty((_KEEP + 1, len(flat)),
                                          dtype=np.int32)
        choices[0] = -1
        choices[1] = flat  # an empty pool keeps the word
        if size:
            skip = np.fromiter(map(spec._skip, vocab), np.int64)[flat]
            pick = (top * (size - (skip < size)).astype(np.uint64)
                    >> 32).astype(np.int64)
            choices[1] = ids(spec.pool)[pick + (pick >= skip)]
        # each word's four stretches, in a row
        stretched = ids(w + w[-1] * extra
                        for w in vocab for extra in range(2, 6))
        choices[2] = stretched[4 * flat + (top * 4 >> 32).astype(np.int64)]
        choices[3] = ids(ABBREVIATIONS.get(w, w) for w in vocab)[flat]
        choices[4] = ids(CASUAL_SPELLINGS.get(w, w) for w in vocab)[flat]
        choices[_KEEP] = flat
        self.words = np.array(list(index), dtype=object)
        self.batches = [(lanes, padded(flat, self.bounds, lanes))
                        for lanes in lane_batches(np.diff(self.bounds))]


class _Run:
    """The channel run once over an ``_Interned`` corpus at category
    ``thresholds``: each token's category ``cats``, a ``searchsorted`` of
    its uniform, and the id it writes ``outs`` (-1: none), a gather from
    its choices; ``rows`` holds per lane batch its clean rows and the
    written ids padded into the same layout."""

    def __init__(self, corpus: _Interned, thresholds: list[float]):
        self.corpus = corpus
        self.cats = np.searchsorted(thresholds, corpus.uniform, side="right")
        self.outs = corpus.choices[self.cats, np.arange(len(self.cats))]
        self.rows = [(ids, padded(self.outs, corpus.bounds, lanes))
                     for lanes, ids in corpus.batches]

    def distances(self) -> np.ndarray:
        """Each sentence's word edit distance from its clean tokens."""
        corpus = self.corpus
        distances = np.zeros(len(corpus.bounds) - 1, dtype=np.int64)
        for (lanes, _), (ids, outs) in zip(corpus.batches, self.rows):
            distances[lanes] = edit_distances(ids, outs)
        return distances

    def written(self) -> tuple[list[list[str]], dict[str, int]]:
        """Each noisy sentence's tokens, and per category the tokens that
        drew it and the tokens it changed."""
        corpus = self.corpus
        kept = self.outs >= 0
        words = corpus.words[self.outs[kept]].tolist()
        ends = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(kept, out=ends[1:])
        tokens = [words[a:b]
                  for a, b in pairwise(ends[corpus.bounds].tolist())]
        draws = np.bincount(self.cats, minlength=_KEEP + 1)
        changed = np.bincount(self.cats[self.outs != corpus.flat],
                              minlength=_KEEP + 1)
        counts = {"tokens": len(self.cats)}
        for name, n, m in zip(CATEGORIES, draws.tolist(), changed.tolist()):
            counts[f"{name}_draws"], counts[f"{name}_changed"] = n, m
        return tokens, counts


def corrupt_corpus(sentences: list[str | list[str]],
                   spec: NoiseSpec) -> list[str]:
    """``corrupt(s, spec, i)`` for each sentence ``s`` at position ``i``; a
    sentence may be given as its ``normalize`` tokens."""
    corpus = [as_tokens(s) for s in sentences]
    return [" ".join(tokens) for tokens in
            _Run(_Interned(corpus, spec), spec._thresholds).written()[0]]


def _scaled(probabilities: tuple[float, ...],
            scale: float) -> tuple[float, ...]:
    """``probabilities`` with deletion's and substitution's times
    ``scale``, capped at 1."""
    p_delete, p_substitute, *rest = probabilities
    return (min(p_delete * scale, 1.0), min(p_substitute * scale, 1.0),
            *rest)


class ChannelPass(NamedTuple):
    """One run of the channel over a clean corpus: the spec it ran at, each
    noisy sentence's tokens, their ``(pooled, mean)`` WER against the clean
    corpus, ``counts``: the corpus's tokens and, per category, the tokens
    that drew it and the tokens it changed, and ``rows``: per lane batch,
    its clean rows and written rows of word ids, one index for both, in
    the layout ``edit_distances`` reads (a deleted word is -1)."""
    spec: NoiseSpec
    tokens: list[list[str]]
    wer: tuple[float, float]
    counts: dict[str, int]
    rows: list[tuple[np.ndarray, np.ndarray]]


def _calibration_pass(corpus: _Interned, thresholds: list[float]
                      ) -> tuple[_Run, tuple[float, float]]:
    """Corrupt and score ``corpus`` at the category ``thresholds``: the run
    and its ``(pooled, mean)`` WER."""
    run = _Run(corpus, thresholds)
    return run, pooled_and_mean(np.diff(corpus.bounds), run.distances())


def _passed(spec: NoiseSpec, run: _Run,
            wer: tuple[float, float]) -> ChannelPass:
    tokens, counts = run.written()
    return ChannelPass(spec, tokens, wer, counts, run.rows)


def calibrate(corpus: list[str | list[str]], spec: NoiseSpec) -> ChannelPass:
    """Scale deletion/substitution probabilities by bisection until the
    corrupted corpus's pooled WER is within ``WER_TOLERANCE`` of the target,
    in at most ``MAX_BISECTIONS`` passes after the first, and return the
    last pass with its spec, so the caller need not repeat it. With no
    target, the one pass at ``spec``: what ``corrupt_corpus`` and
    ``corpus_wer`` give, with the category counts. A pass runs at the
    scaled thresholds; only the returned pass's spec is built."""
    corpus = reference_tokens([as_tokens(s) for s in corpus])
    # every pass keeps spec.seed and spec.pool, so it reads these draws and
    # these tables
    run_pass = partial(_calibration_pass, _Interned(corpus, spec))
    target = spec.target_wer
    if target is None:
        return _passed(spec, *run_pass(spec._thresholds))

    probabilities = spec.probabilities()
    other = spec.p_repeat + spec.p_abbreviate + spec.p_casual
    if spec.p_delete == 0 and spec.p_substitute == 0:
        # nothing to scale; split what the other categories leave evenly
        start = min(0.25, (1.0 - other) / 2.0)
        if start <= 0:
            raise CalibrationError(target, run_pass(spec._thresholds)[1][0])
        probabilities = (start, start, *probabilities[2:])
    p_delete, p_substitute = probabilities[:2]
    # largest scale keeping every probability valid and the category mass <= 1
    destructive = p_delete + p_substitute
    hi_scale = min(1.0 / max(p_delete, p_substitute),
                   (1.0 - other) / destructive)
    lo, hi = 0.0, hi_scale
    best = run_pass(list(accumulate(_scaled(probabilities, hi))))[1][0]
    if best < target - WER_TOLERANCE:
        raise CalibrationError(target, best)
    for _ in range(MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        scaled = _scaled(probabilities, mid)
        run, wer = run_pass(list(accumulate(scaled)))
        if abs(wer[0] - target) < abs(best - target):
            best = wer[0]
        if abs(wer[0] - target) <= WER_TOLERANCE:
            return _passed(replace(spec, p_delete=scaled[0],
                                   p_substitute=scaled[1], target_wer=None),
                           run, wer)
        if wer[0] < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(target, best)


def load_stt_fixture_pairs() -> list[tuple[str, str, str]]:
    """Shipped (engine, clean, transcribed) sentence triples from real
    text-to-speech -> speech-to-text runs; exercises wer/ibleu on genuine
    transcription noise."""
    path = Path(__file__).parent / "fixtures" / "stt_noise_pairs.tsv"
    triples = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        engine, ref, hyp = line.split("\t")
        triples.append((engine, ref, hyp))
    return triples
