"""Seeded synthetic corruption channel standing in for speech-transcription
and informal-typing noise.

Each token of a normalized sentence independently draws one corruption
category: deletion, substitution, repeated-letter stretching, abbreviation
replacement, or casual-spelling replacement. A substitution is a uniform
pick from the spec's pool (``pool_of`` the clean corpus, each word once),
or the token itself when the pool is empty. The channel is a pure function
of (sentence, spec, position in corpus), so regenerating a corpus is
byte-identical under a fixed seed.

Sentence ``i`` draws from ``np.random.default_rng((spec.seed, i))``.
``corrupt`` runs the scalar path on one sentence: ``_corrupt_tokens``
calls that Generator once per category draw and once per substitution or
stretch. ``corrupt_corpus`` and ``calibrate`` instead prepare the corpus
once (``_Interned``): every word the channel can write as an integer id,
and every sentence's raw PCG64 outputs in one flat array, stepped for all
sentences at once on 64-bit limbs (``_raw_blocks``); a sentence over
``LANE_WORDS`` words gets an empty block, as it never reads one. They run
the channel over all sentences at once (``_Run``): one set of array ops
per token position, one lane per sentence, reading the outputs as the
Generator's ``random`` and ``integers`` would, bit for bit, scored by
``metrics.edit_distances``. Two kinds of sentence take the scalar path
instead, which writes their categories and word ids into the same arrays:
one over ``LANE_WORDS`` words, and one whose draw Lemire's method would
reject. A pool word must be one ``normalize`` token, so every word the
channel writes is a token with an id.
``calibrate`` scales the destructive probabilities by bisection until a
corpus hits a target word error rate; every pass runs to its end, and it
returns the last one, with its noisy tokens, per-category counts and word-id
rows. With no target it returns the one pass at the spec itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ConfigError, check_fields
from .metrics import (LANE_WORDS, edit_distances, lane_batches, padded,
                      pooled_and_mean, reference_tokens, word_ids)
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


def pool_of(sentences) -> tuple[str, ...]:
    """The substitution pool of ``sentences``: their ``normalize`` words,
    the form of the tokens a substitution replaces, each once, sorted."""
    return tuple(sorted({w for s in sentences for w in normalize(s)}))


# the constants of numpy's SeedSequence hash (``bit_generator.pyx``), whose
# output NEP 19 keeps stable, and PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_DOUBLE_STEP = 2.0 ** -53
_LOW32 = np.uint64(_MASK32)
_U32, _U58, _U63 = np.uint64(32), np.uint64(58), np.uint64(63)


def _uint32_words(n: int) -> list[int]:
    """``n`` >= 0 as SeedSequence reads an int: 32-bit words, least first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _start_states(spec: NoiseSpec, n: int):
    """The PCG64 ``state`` and ``inc`` that ``default_rng((spec.seed, i))``
    starts from, for each sentence index ``i < n``, each as ``(hi, lo)``
    uint64 arrays: the 128-bit value of lane i is ``hi[i] << 64 | lo[i]``.

    One pass over uint32 vectors, one lane per sentence, runs
    ``SeedSequence((spec.seed, i)).generate_state(4, np.uint64)``: hash the
    entropy words ``[seed words..., i]`` into a 4-word pool, mix the pool,
    hash it out to 8 words. PCG64's set-seed step then runs on the limbs:
    ``inc = seq << 1 | 1`` and ``state = (inc + seed) * MULT + inc``.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    entropy = [np.full(n, w, dtype=np.uint32) for w in _uint32_words(spec.seed)]
    entropy.append(np.arange(n, dtype=np.uint32))
    # a pool word with no entropy word left hashes a zero
    entropy += [np.zeros(n, dtype=np.uint32)] * (_POOL_WORDS - len(entropy))
    pool = [hashmix(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> np.uint32(16)))
    # the 8 words read as 4 little-endian uint64: seed hi, lo, inc hi, lo
    words = [out[k].astype(np.uint64) | out[k + 1].astype(np.uint64) << _U32
             for k in range(0, 8, 2)]
    seed, seq = (words[0], words[1]), (words[2], words[3])
    inc = (seq[0] << np.uint64(1) | seq[1] >> _U63,
           seq[1] << np.uint64(1) | np.uint64(1))
    state = _add128(*_mul128(*_add128(*inc, *seed), *_PCG_MULT), *inc)
    return state, inc


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``a * b`` mod 2**128 on ``(hi, lo)`` uint64 limbs. The high limb of
    ``a_lo * b_lo`` comes from its four 32 x 32-bit products."""
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    b0, b1 = b_lo & _LOW32, b_lo >> _U32
    # (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64, so neither sum wraps
    mid = a1 * b0 + (a0 * b0 >> _U32)
    cross = (mid & _LOW32) + a0 * b1
    return (a1 * b1 + (mid >> _U32) + (cross >> _U32)
            + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b`` mod 2**128 on ``(hi, lo)`` uint64 limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _raw_blocks(state, inc, offsets) -> np.ndarray:
    """Lane i's first ``offsets[i + 1] - offsets[i]`` PCG64 outputs from
    the start ``(state, inc)`` (``(hi, lo)`` limb arrays), at
    ``raw[offsets[i]:offsets[i + 1]]``: what ``random_raw`` draws.

    Output k steps every lane whose block is still open: sorted by block
    size, largest first, those lanes are a prefix. A step is the LCG
    ``state * MULT + inc``, and the output is O'Neill's XSL-RR of the new
    state: ``hi ^ lo`` rotated right by ``hi >> 58``.
    """
    sizes = np.diff(offsets)
    order = np.argsort(-sizes, kind="stable")
    hi, lo = state[0][order], state[1][order]
    inc_hi, inc_lo = inc[0][order], inc[1][order]
    start = offsets[:-1][order]
    raw = np.empty(offsets[-1], dtype=np.uint64)
    open_lanes = len(sizes) - np.searchsorted(
        np.sort(sizes), np.arange(sizes.max(initial=0)), side="right")
    for k, m in enumerate(open_lanes.tolist()):
        hi, lo = _add128(*_mul128(hi[:m], lo[:m], *_PCG_MULT),
                         inc_hi[:m], inc_lo[:m])
        turn = hi >> _U58
        mixed = hi ^ lo
        raw[start[:m] + k] = mixed >> turn | mixed << (-turn & _U63)
    return raw


def _substitute(spec: NoiseSpec, token: str,
                rng: np.random.Generator) -> str:
    """A uniform pick from the pool words other than ``token``, or from the
    whole pool when it holds nothing else. It makes the one
    ``rng.integers`` draw and returns the word that indexing the list
    ``[w for w in spec.pool if w != token]`` would, without building it."""
    k = spec._pool_index.get(token)
    if k is None or len(spec.pool) == 1:
        return spec.pool[rng.integers(len(spec.pool))]
    j = rng.integers(len(spec.pool) - 1)
    return spec.pool[j + (j >= k)]


def _corrupt_tokens(tokens: list[str], spec: NoiseSpec,
                    rng: np.random.Generator) -> list[tuple[int, str | None]]:
    """Each token's category and the word it becomes, None if deleted."""
    out: list[tuple[int, str | None]] = []
    thresholds = spec._thresholds
    for token in tokens:
        category = bisect_right(thresholds, rng.random())
        word = token
        if category == 0:  # deletion
            word = None
        elif category == 1 and spec.pool:  # substitution
            word = _substitute(spec, token, rng)
        elif category == 2:  # repeated-letter stretching
            word = token + token[-1] * rng.integers(2, 6)
        elif category == 3:
            word = ABBREVIATIONS.get(token, token)
        elif category == 4:
            word = CASUAL_SPELLINGS.get(token, token)
        out.append((category, word))
    return out


def corrupt(sentence: str, spec: NoiseSpec, index: int = 0) -> str:
    """Apply the corruption channel to one sentence.

    ``index`` is the sentence's position in its corpus; together with the
    spec's seed it fully determines the output.
    """
    pairs = _corrupt_tokens(normalize(sentence), spec,
                            np.random.default_rng((spec.seed, index)))
    return " ".join([word for _, word in pairs if word is not None])


# the category a token whose draw falls past every threshold takes: kept
_KEEP = len(CATEGORIES)


class _Interned:
    """A corpus, and every word its channel can write, as integer ids, with
    every sentence's first PCG64 outputs.

    ``words[i]`` is the word of id i, and ``index`` maps it back; the
    corpus's own words come first, as ids 0..n-1. Per corpus word (a
    column; column n is a padding lane that writes nothing and draws
    nothing), ``writes[c]`` is the id category c writes without a draw
    (-1: none), ``stretched[:, r]`` the word with ``2 + r`` more last
    letters, ``ranges`` and ``limits`` the range of its substitution or
    stretch draw and the low products Lemire's method rejects, and
    ``skip`` the pool position a substitute of it passes over. ``batches``
    are the corpus's ``lane_batches`` as ``(positions, word ids padded
    with -1)``. Sentence ``i``'s block, ``raw[offsets[i]:offsets[i + 1]]``,
    holds the first outputs of ``default_rng((spec.seed, i))``, drawn once;
    it is empty for a sentence over ``LANE_WORDS`` words, which only the
    scalar path runs.
    The tables and outputs depend on the seed and the pool and not on the
    probabilities, so the scaled specs of one calibration share them.
    """

    def __init__(self, corpus: list[list[str]], spec: NoiseSpec):
        index: dict[str, int] = {}
        flat, bounds = word_ids(corpus, index)
        vocab = list(index)

        def intern(word: str) -> int:
            return index.setdefault(word, len(index))

        n, size = len(vocab), len(spec.pool)
        self.tokens = corpus
        self.pool = np.array([intern(w) for w in spec.pool], dtype=np.int64)
        own = np.arange(n + 1)
        own[n] = -1
        self.writes = np.full((_KEEP + 1, n + 1), -1, dtype=np.int64)
        self.writes[1] = self.writes[_KEEP] = own
        self.writes[3, :n] = [intern(ABBREVIATIONS.get(w, w)) for w in vocab]
        self.writes[4, :n] = [intern(CASUAL_SPELLINGS.get(w, w))
                              for w in vocab]
        self.stretched = np.full((n + 1, 4), -1, dtype=np.int64)
        self.stretched[:n] = np.array(
            [[intern(w + w[-1] * extra) for extra in range(2, 6)]
             for w in vocab], dtype=np.int64).reshape(n, 4)
        # the draw _substitute makes: over the pool less the token's own
        # word when the pool holds it and more; one value makes no draw
        at = np.array([spec._pool_index.get(w, size) for w in vocab] + [size],
                      dtype=np.int64)
        held = (at < size) & (size > 1)
        self.skip = np.where(held, at, size)
        span = np.where(held, size - 1, size).astype(np.uint64)
        span[n] = 0
        self.ranges = np.zeros((_KEEP + 1, n + 1), dtype=np.uint64)
        self.ranges[1], self.ranges[2, :n] = span, 4
        self.limits = np.zeros_like(self.ranges)
        self.limits[1] = [(1 << 32) % r if r > 1 else 0
                          for r in span.tolist()]
        self.index, self.words = index, list(index)
        self.batches = [(lanes, padded(flat, bounds, lanes))
                        for lanes in lane_batches(np.diff(bounds))]
        # what a sentence reads unless Lemire's method rejects: one output
        # per token's ``random``, a half per ``integers``
        self.offsets = [0, *accumulate(
            len(t) + (len(t) + 1) // 2 if len(t) <= LANE_WORDS else 0
            for t in corpus)]
        self.raw = _raw_blocks(*_start_states(spec, len(corpus)),
                               np.array(self.offsets, dtype=np.int64))


class _Run:
    """The channel run once over an ``_Interned`` corpus at ``spec``.

    A batch runs as one set of array ops per token position j, one lane per
    sentence: with k the integer draws the sentence has made, its category
    draw reads output ``j + ceil(k / 2)`` of its block, and a substitution
    or stretch draw the low half of the next output when k is even, or the
    high half kept from the last one when k is odd, scaled by Lemire's
    ``half * n >> 32``. ``batches`` holds each batch's categories and
    written ids (-1: none). A lane whose draw Lemire's method would reject,
    and every lane of a batch wider than ``LANE_WORDS``, takes its row
    from ``_corrupt_tokens`` instead, on its own
    ``default_rng((spec.seed, i))``.
    """

    def __init__(self, corpus: _Interned, spec: NoiseSpec):
        self.corpus, self.spec, self.batches = corpus, spec, []
        thresholds = np.array(spec._thresholds)
        offsets = np.array(corpus.offsets[:-1], dtype=np.int64)
        raw = corpus.raw
        for lanes, ids in corpus.batches:
            first = offsets[lanes]
            drawn = np.zeros(len(lanes), dtype=np.int64)
            half = np.zeros(len(lanes), dtype=np.uint64)
            # a batch wider than a lane goes to the scalar path whole
            wide = ids.shape[1] > LANE_WORDS
            aside = np.full(len(lanes), wide)
            cats = np.zeros(ids.shape, dtype=np.int8)
            outs = np.full(ids.shape, -1, dtype=np.int64)
            for j in range(0 if wide else ids.shape[1]):
                token = ids[:, j]
                at = first + j + (drawn + 1) // 2
                cat = np.searchsorted(
                    thresholds, (raw.take(at, mode="clip") >> np.uint64(11))
                    * _DOUBLE_STEP, side="right")
                span = corpus.ranges[cat, token]
                draws = span > 1
                fresh = (drawn & 1) == 0
                nxt = raw.take(at + 1, mode="clip")
                low = np.where(fresh, nxt & np.uint64(_MASK32), half)
                half = np.where(fresh & draws, nxt >> np.uint64(32), half)
                scaled = low * span
                aside |= (scaled & np.uint64(_MASK32)) < \
                    corpus.limits[cat, token]
                value = (scaled >> np.uint64(32)).view(np.int64)
                drawn += draws
                out = corpus.writes[cat, token]
                if len(corpus.pool):
                    pick = value + (value >= corpus.skip[token])
                    substitutes = (cat == 1) & (token >= 0)
                    out = np.where(substitutes,
                                   corpus.pool.take(pick, mode="clip"), out)
                out = np.where(cat == 2, corpus.stretched[token, value & 3],
                               out)
                cats[:, j], outs[:, j] = cat, out
            for row, i in zip(np.flatnonzero(aside).tolist(),
                              lanes[aside].tolist()):
                pairs = _corrupt_tokens(corpus.tokens[i], spec,
                                        np.random.default_rng((spec.seed, i)))
                cats[row, :len(pairs)] = [c for c, _ in pairs]
                outs[row, :len(pairs)] = [-1 if w is None else corpus.index[w]
                                          for _, w in pairs]
            self.batches.append((cats, outs))

    def distances(self) -> list[int]:
        """Each sentence's word edit distance from its clean tokens."""
        corpus = self.corpus
        distances = np.zeros(len(corpus.tokens), dtype=np.int64)
        for (lanes, ids), (_, outs) in zip(corpus.batches, self.batches):
            distances[lanes] = edit_distances(ids, outs)
        return distances.tolist()

    def written(self) -> tuple[list[list[str]], dict[str, int]]:
        """Each noisy sentence's tokens, and per category the tokens that
        drew it and the tokens it changed."""
        corpus, words = self.corpus, self.corpus.words
        tokens: list = [None] * len(corpus.tokens)
        draws = np.zeros(_KEEP + 1, dtype=np.int64)
        changed = np.zeros(_KEEP + 1, dtype=np.int64)
        for (lanes, ids), (cats, outs) in zip(corpus.batches, self.batches):
            live = ids >= 0
            draws += np.bincount(cats[live], minlength=_KEEP + 1)
            changed += np.bincount(cats[live & (outs != ids)],
                                   minlength=_KEEP + 1)
            for i, row in zip(lanes.tolist(), outs.tolist()):
                tokens[i] = [words[o] for o in row if o >= 0]
        counts = {"tokens": int(draws.sum())}
        for name, n, m in zip(CATEGORIES, draws.tolist(), changed.tolist()):
            counts[f"{name}_draws"], counts[f"{name}_changed"] = n, m
        return tokens, counts


def corrupt_corpus(sentences: list[str | list[str]],
                   spec: NoiseSpec) -> list[str]:
    """``corrupt(s, spec, i)`` for each sentence ``s`` at position ``i``; a
    sentence may be given as its ``normalize`` tokens."""
    corpus = [as_tokens(s) for s in sentences]
    return [" ".join(tokens) for tokens in
            _Run(_Interned(corpus, spec), spec).written()[0]]


def _scaled(spec: NoiseSpec, scale: float) -> NoiseSpec:
    return replace(spec,
                   p_delete=min(spec.p_delete * scale, 1.0),
                   p_substitute=min(spec.p_substitute * scale, 1.0),
                   target_wer=None)


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


def _calibration_pass(corpus: _Interned,
                      spec: NoiseSpec) -> tuple[_Run, tuple[float, float]]:
    """Corrupt and score ``corpus`` at ``spec``: the run and its
    ``(pooled, mean)`` WER."""
    run = _Run(corpus, spec)
    return run, pooled_and_mean(corpus.tokens, run.distances())


def _passed(run: _Run, wer: tuple[float, float]) -> ChannelPass:
    tokens, counts = run.written()
    return ChannelPass(run.spec, tokens, wer, counts,
                       [(ids, outs) for (_, ids), (_, outs)
                        in zip(run.corpus.batches, run.batches)])


def calibrate(corpus: list[str | list[str]], spec: NoiseSpec) -> ChannelPass:
    """Scale deletion/substitution probabilities by bisection until the
    corrupted corpus's pooled WER is within ``WER_TOLERANCE`` of the target,
    in at most ``MAX_BISECTIONS`` passes after the first, and return the
    last pass with its spec, so the caller need not repeat it. With no
    target, the one pass at ``spec``: what ``corrupt_corpus`` and
    ``corpus_wer`` give, with the category counts."""
    corpus = reference_tokens([as_tokens(s) for s in corpus])
    # the scaled specs keep spec.seed and spec.pool, so every pass reads
    # these streams and these tables
    run_pass = partial(_calibration_pass, _Interned(corpus, spec))
    target = spec.target_wer
    if target is None:
        return _passed(*run_pass(spec))

    other = spec.p_repeat + spec.p_abbreviate + spec.p_casual
    if spec.p_delete == 0 and spec.p_substitute == 0:
        # nothing to scale; split what the other categories leave evenly
        start = min(0.25, (1.0 - other) / 2.0)
        if start <= 0:
            raise CalibrationError(target, run_pass(spec)[1][0])
        spec = replace(spec, p_delete=start, p_substitute=start)
    # largest scale keeping every probability valid and the category mass <= 1
    destructive = spec.p_delete + spec.p_substitute
    hi_scale = min(1.0 / max(spec.p_delete, spec.p_substitute),
                   (1.0 - other) / destructive)
    lo, hi = 0.0, hi_scale
    best = run_pass(_scaled(spec, hi))[1][0]
    if best < target - WER_TOLERANCE:
        raise CalibrationError(target, best)
    for _ in range(MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        run, wer = run_pass(_scaled(spec, mid))
        if abs(wer[0] - target) < abs(best - target):
            best = wer[0]
        if abs(wer[0] - target) <= WER_TOLERANCE:
            return _passed(run, wer)
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
