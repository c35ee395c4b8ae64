"""Seeded synthetic corruption channel standing in for speech-transcription
and informal-typing noise.

Each token of a normalized sentence independently draws one corruption
category: deletion, substitution, repeated-letter stretching, abbreviation
replacement, or casual-spelling replacement. A substitution is a uniform
pick from the spec's pool (``pool_of`` the clean corpus), or the token
itself when the pool is empty. The channel is a pure function of
(sentence, spec, position in corpus), so regenerating a corpus is
byte-identical under a fixed seed. ``calibrate`` scales the destructive
probabilities by bisection until a corpus hits a target word error rate; it
normalizes the corpus and seeds each sentence's generator once, and replays
those tokens and that stream on every pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, check_fields
from .metrics import corpus_wer
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
            raise ValueError(f"probabilities must lie in [0, 1]: {probs}")
        if sum(probs) > 1.0 + 1e-12:
            raise ValueError(
                f"category probabilities sum to {sum(probs):.3f} > 1")

    def probabilities(self) -> tuple[float, ...]:
        return (self.p_delete, self.p_substitute, self.p_repeat,
                self.p_abbreviate, self.p_casual)

    @cached_property
    def _pool_positions(self) -> dict[str, list[int]]:
        """Each pool word's positions in the pool, ascending; built once
        per spec, on its first pool substitution."""
        positions: dict[str, list[int]] = {}
        for i, w in enumerate(self.pool):
            positions.setdefault(w, []).append(i)
        return positions


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


def _substitute(spec: NoiseSpec, token: str, rng: np.random.Generator) -> str:
    """A uniform pick from the pool words other than ``token``, or from the
    whole pool when it holds nothing else. It makes the one
    ``rng.integers`` draw and returns the word that indexing the list
    ``[w for w in spec.pool if w != token]`` would, without building it."""
    skip = spec._pool_positions.get(token, ())
    if len(skip) == len(spec.pool):
        skip = ()
    j = int(rng.integers(len(spec.pool) - len(skip)))
    for position in skip:  # ascending: step over each copy at or before j
        if position > j:
            break
        j += 1
    return spec.pool[j]


def _corrupt_tokens(tokens: list[str], spec: NoiseSpec,
                    rng: np.random.Generator) -> str:
    out: list[str] = []
    # running sums in the order np.cumsum adds them, so the category
    # boundaries are the same floats
    thresholds = list(accumulate(spec.probabilities()))
    for token in tokens:
        category = bisect_right(thresholds, rng.random())
        if category == 0:  # deletion
            continue
        if category == 1:  # substitution
            out.append(_substitute(spec, token, rng) if spec.pool else token)
        elif category == 2:  # repeated-letter stretching
            out.append(token + token[-1] * int(rng.integers(2, 6)))
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
    return _corrupt_tokens(normalize(sentence), spec,
                           np.random.default_rng((spec.seed, index)))


def corrupt_corpus(sentences: list[str | list[str]], spec: NoiseSpec,
                   starts: list[tuple[int, int]] | None = None) -> list[str]:
    """``corrupt(s, spec, i)`` for each sentence ``s`` at position ``i``.

    A sentence may be given as its ``normalize`` tokens. ``starts`` are
    ``_start_states(spec, len(sentences))``, which depend only on
    ``spec.seed``; a caller corrupting one corpus many times passes them
    so each generator is seeded once. One generator is reset to each
    sentence's start, which replays a fresh generator's stream bit for bit.
    """
    if starts is None:
        starts = _start_states(spec, len(sentences))
    rng = np.random.Generator(np.random.PCG64())
    pcg = rng.bit_generator
    noisy = []
    for sentence, (state, inc) in zip(sentences, starts, strict=True):
        pcg.state = {"bit_generator": "PCG64",
                     "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
        noisy.append(_corrupt_tokens(as_tokens(sentence), spec, rng))
    return noisy


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


def calibrate(corpus: list[str | list[str]], spec: NoiseSpec) -> Calibration:
    """Scale deletion/substitution probabilities by bisection until the
    corrupted corpus's pooled WER is within ``WER_TOLERANCE`` of the target,
    in at most ``MAX_BISECTIONS`` passes after the first.

    Each pass is one ``corrupt_corpus`` and one ``corpus_wer`` on the
    corpus's tokens, normalized once; the last pass is returned with its
    spec, so the caller need not repeat it."""
    target = spec.target_wer
    if target is None or not (0.0 < target <= 2.0):
        raise ValueError(f"target WER must lie in (0, 2], got {target}")
    corpus = [as_tokens(s) for s in corpus]

    # the scaled specs keep spec.seed, so every pass replays these starts
    starts = _start_states(spec, len(corpus))

    def run_pass(s: NoiseSpec) -> Calibration:
        noisy = corrupt_corpus(corpus, s, starts)
        return Calibration(s, noisy, corpus_wer(corpus, noisy))

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
    best_wer = run_pass(_scaled(spec, hi)).wer[0]
    if best_wer < target - WER_TOLERANCE:
        raise CalibrationError(target, best_wer)
    for _ in range(MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        result = run_pass(_scaled(spec, mid))
        got = result.wer[0]
        if abs(got - target) < abs(best_wer - target):
            best_wer = got
        if abs(got - target) <= WER_TOLERANCE:
            return result
        if got < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(target, best_wer)


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
