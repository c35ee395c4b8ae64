"""Seeded synthetic corruption channel standing in for speech-transcription
and informal-typing noise.

Each token of a normalized sentence independently draws one corruption
category: deletion, substitution, repeated-letter stretching, abbreviation
replacement, or casual-spelling replacement. A substitution is a uniform
pick from the spec's pool (``pool_of`` the clean corpus, each word once),
or the token itself when the pool is empty. The channel is a pure function
of (sentence, spec, position in corpus), so regenerating a corpus is
byte-identical under a fixed seed.

The channel draws from ``np.random.default_rng((spec.seed, i))``'s stream
for sentence ``i``, but reads it through ``_Stream``, which takes the raw
PCG64 outputs and returns what the Generator's ``random`` and ``integers``
would, bit for bit, without a numpy call per draw. ``corrupt_corpus`` and
``calibrate`` draw every sentence's outputs once, into one flat array.
``calibrate`` scales the destructive probabilities by bisection until a
corpus hits a target word error rate; it normalizes the corpus and draws the
streams once, and replays those tokens and outputs on every pass, which
stops as soon as its bisection step is decided.
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
from .metrics import edit_distance, pooled_and_mean, reference_tokens
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
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_DOUBLE_STEP = 2.0 ** -53


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: 32-bit words, least first."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _start_states(spec: NoiseSpec, n: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` pair that ``default_rng((spec.seed, i))``
    starts from, for each sentence index ``i < n``.

    One pass over uint32 vectors, one lane per sentence, runs
    ``SeedSequence((spec.seed, i)).generate_state(4, np.uint64)``: hash the
    entropy words ``[seed words..., i]`` into a 4-word pool, mix the pool,
    hash it out to 8 words. PCG64's set-seed step then runs on Python ints.
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
    words = np.stack(out, axis=1).astype(np.uint64)
    seeds = (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist()
    starts = []
    for seed_hi, seed_lo, inc_hi, inc_lo in seeds:
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        starts.append((state, inc))
    return starts


class _Stream:
    """One sentence's PCG64 outputs read as ``np.random.Generator`` reads
    them: from the same start, ``random`` and ``integers`` return the same
    values, bit for bit.

    ``raw`` is the first outputs after ``start`` (a ``(state, inc)`` pair);
    when a draw needs more, the stream extends from ``start`` with
    ``advance``. ``integers`` takes one 32-bit half of an output by Lemire's
    method and keeps the other half for the next, as PCG64's
    ``has_uint32``/``uinteger`` buffer does; ``random`` skips that buffer.
    """

    __slots__ = ("_next", "_start", "_drawn", "_half")

    def __init__(self, raw: list[int], start: tuple[int, int]):
        self._next = iter(raw).__next__
        self._start = start
        self._drawn = len(raw)
        self._half = None

    def _extend(self) -> int:
        """The next output once the block is used up, as a rejection may
        do: draws as many again past it and returns the first."""
        more = self._drawn + 1
        pcg = _pcg_at(np.random.PCG64(0), self._start)
        pcg.advance(self._drawn)
        self._next = iter(pcg.random_raw(more).tolist()).__next__
        self._drawn += more
        return self._next()

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        try:
            raw = self._next()
        except StopIteration:
            raw = self._extend()
        self._half = raw >> 32
        return raw & _MASK32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one output."""
        try:
            raw = self._next()
        except StopIteration:
            raw = self._extend()
        return (raw >> 11) * _DOUBLE_STEP

    def integers(self, n: int) -> int:
        """An int in [0, n)."""
        if not 0 < n < 1 << 32:
            # numpy draws 2**32 values or more by another method
            raise ValueError(f"range must hold 1 to 2**32 - 1 values, "
                             f"got {n}")
        if n == 1:  # numpy makes no draw
            return 0
        scaled = self._next32() * n
        if scaled & _MASK32 < n:
            threshold = (1 << 32) % n
            while scaled & _MASK32 < threshold:
                scaled = self._next32() * n
        return scaled >> 32


def _pcg_at(pcg: np.random.PCG64,
            start: tuple[int, int]) -> np.random.PCG64:
    """``pcg`` set to ``start``, as a fresh ``default_rng`` is."""
    state, inc = start
    pcg.state = {"bit_generator": "PCG64",
                 "state": {"state": state, "inc": inc},
                 "has_uint32": 0, "uinteger": 0}
    return pcg


def _block_size(tokens: list[str]) -> int:
    """The outputs a sentence's channel reads unless Lemire's method
    rejects: one per token's ``random``, a half per ``integers``."""
    return len(tokens) + (len(tokens) + 1) // 2


class _Blocks:
    """Every sentence's first PCG64 outputs, drawn once: sentence ``i``'s
    block is ``raw[offsets[i]:offsets[i + 1]]``, from ``starts[i]``
    (``_start_states``). Iterating yields one fresh ``_Stream`` per
    sentence, so every pass replays the same streams."""

    def __init__(self, corpus: list[list[str]], spec: NoiseSpec):
        self.starts = _start_states(spec, len(corpus))
        self.offsets = [0, *accumulate(map(_block_size, corpus))]
        self.raw = np.empty(self.offsets[-1], dtype=np.uint64)
        pcg = np.random.PCG64(0)
        for start, a, b in zip(self.starts, self.offsets, self.offsets[1:]):
            self.raw[a:b] = _pcg_at(pcg, start).random_raw(b - a)

    def __iter__(self):
        for start, a, b in zip(self.starts, self.offsets, self.offsets[1:]):
            yield _Stream(self.raw[a:b].tolist(), start)


def _substitute(spec: NoiseSpec, token: str, rng: _Stream) -> str:
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
                    rng: _Stream) -> str:
    out: list[str] = []
    thresholds = spec._thresholds
    for token in tokens:
        category = bisect_right(thresholds, rng.random())
        if category == 0:  # deletion
            continue
        if category == 1:  # substitution
            out.append(_substitute(spec, token, rng) if spec.pool else token)
        elif category == 2:  # repeated-letter stretching
            # 2 to 5 more letters, drawn as Generator.integers(2, 6) draws
            out.append(token + token[-1] * (2 + rng.integers(4)))
        elif category == 3:
            out.append(ABBREVIATIONS.get(token, token))
        elif category == 4:
            out.append(CASUAL_SPELLINGS.get(token, token))
        else:
            out.append(token)
    return " ".join(out)


def corrupt(sentence: str, spec: NoiseSpec, index: int = 0) -> str:
    """Apply the corruption channel to one sentence.

    ``index`` is the sentence's position in its corpus; together with the
    spec's seed it fully determines the output.
    """
    tokens = normalize(sentence)
    pcg = np.random.PCG64((spec.seed, index))
    start = pcg.state["state"]
    stream = _Stream(pcg.random_raw(_block_size(tokens)).tolist(),
                     (start["state"], start["inc"]))
    return _corrupt_tokens(tokens, spec, stream)


def corrupt_corpus(sentences: list[str | list[str]],
                   spec: NoiseSpec) -> list[str]:
    """``corrupt(s, spec, i)`` for each sentence ``s`` at position ``i``; a
    sentence may be given as its ``normalize`` tokens."""
    corpus = [as_tokens(s) for s in sentences]
    return list(_replay(corpus, spec, _Blocks(corpus, spec)))


def _replay(corpus, spec: NoiseSpec, streams):
    """Yield each token list of ``corpus`` corrupted, reading the
    sentence's stream from ``streams`` (a ``_Blocks``)."""
    for tokens, stream in zip(corpus, streams, strict=True):
        yield _corrupt_tokens(tokens, spec, stream)


def _scaled(spec: NoiseSpec, scale: float) -> NoiseSpec:
    return replace(spec,
                   p_delete=min(spec.p_delete * scale, 1.0),
                   p_substitute=min(spec.p_substitute * scale, 1.0),
                   target_wer=None)


class Calibration(NamedTuple):
    """What ``calibrate`` found: the spec within tolerance of the target,
    the corpus its last pass corrupted with that spec, and the
    ``(pooled, mean)`` WER of that corpus."""
    spec: NoiseSpec
    noisy: list[str]
    wer: tuple[float, float]


def _calibration_pass(corpus: list[list[str]], streams: _Blocks,
                      spec: NoiseSpec, stop=None) -> Calibration | None:
    """Corrupt and score ``corpus`` at ``spec`` sentence by sentence; None
    as soon as ``stop`` holds for the running WER, the edits so far over
    all the corpus's words, which only grows to the pass's pooled WER."""
    words = sum(map(len, corpus))
    noisy, distances, edits = [], [], 0
    for tokens, out in zip(corpus, _replay(corpus, spec, streams)):
        distances.append(edit_distance(tokens, normalize(out)))
        edits += distances[-1]
        if stop is not None and stop(edits / words):
            return None
        noisy.append(out)
    return Calibration(spec, noisy, pooled_and_mean(corpus, distances))


def calibrate(corpus: list[str | list[str]], spec: NoiseSpec) -> Calibration:
    """Scale deletion/substitution probabilities by bisection until the
    corrupted corpus's pooled WER is within ``WER_TOLERANCE`` of the target,
    in at most ``MAX_BISECTIONS`` passes after the first.

    A pass stops as soon as its running WER decides the bisection step;
    the last one runs to the end and is returned with its spec, so the
    caller need not repeat it. When the target is out of reach, the passes
    that stopped run again in full to name the closest pooled WER."""
    target = spec.target_wer
    if target is None or not (0.0 < target <= 2.0):
        raise ValueError(f"target WER must lie in (0, 2], got {target}")
    # checked before any pass, since a pass may stop short of a bad sentence
    corpus = reference_tokens([as_tokens(s) for s in corpus])

    # the scaled specs keep spec.seed, so every pass replays these streams
    run_pass = partial(_calibration_pass, corpus, _Blocks(corpus, spec))

    other = spec.p_repeat + spec.p_abbreviate + spec.p_casual
    if spec.p_delete == 0 and spec.p_substitute == 0:
        # nothing to scale; split what the other categories leave evenly
        start = min(0.25, (1.0 - other) / 2.0)
        if start <= 0:
            raise CalibrationError(target, run_pass(spec).wer[0])
        spec = replace(spec, p_delete=start, p_substitute=start)
    # largest scale keeping every probability valid and the category mass <= 1
    destructive = spec.p_delete + spec.p_substitute
    hi_scale = min(1.0 / max(spec.p_delete, spec.p_substitute),
                   (1.0 - other) / destructive)
    lo, hi = 0.0, hi_scale
    # edits only grow: a pass past a bound stays past it to its end
    top = run_pass(_scaled(spec, hi),
                   lambda wer: not wer < target - WER_TOLERANCE)
    if top is not None:
        raise CalibrationError(target, top.wer[0])
    # each scale tried, with its full pass or None where the pass stopped
    tried = [(hi, None)]
    for _ in range(MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        result = run_pass(_scaled(spec, mid),
                          lambda wer: wer - target > WER_TOLERANCE)
        tried.append((mid, result))
        if result is None:
            hi = mid
        elif abs(result.wer[0] - target) <= WER_TOLERANCE:
            return result
        elif result.wer[0] < target:
            lo = mid
        else:
            hi = mid
    wers = [(run_pass(_scaled(spec, scale)) if result is None
             else result).wer[0] for scale, result in tried]
    raise CalibrationError(target, min(wers, key=lambda w: abs(w - target)))


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
