"""Seeded synthetic corruption channel standing in for speech-transcription
and informal-typing noise.

Each token of a normalized sentence independently draws one corruption
category: deletion, substitution, repeated-letter stretching, abbreviation
replacement, or casual-spelling replacement. The channel is a pure function
of (sentence, spec, position in corpus), so regenerating a corpus is
byte-identical under a fixed seed. ``calibrate`` scales the destructive
probabilities by bisection until a corpus hits a target word error rate; it
seeds each sentence's generator once and replays that stream on every pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, check_fields
from .metrics import corpus_wer
from .tokenizer import normalize

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
    substitution_policy: str = "pool"  # "pool" or "table"
    substitution_table: dict[str, str] = field(default_factory=dict)
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
        if self.substitution_policy not in ("pool", "table"):
            raise ValueError(
                f"unknown substitution policy {self.substitution_policy!r}")

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


def _start_states(spec: NoiseSpec, n: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` pair that ``default_rng((spec.seed, i))``
    starts from, for each sentence index ``i < n``."""
    starts = []
    for i in range(n):
        pcg = np.random.default_rng((spec.seed, i)).bit_generator.state
        starts.append((pcg["state"]["state"], pcg["state"]["inc"]))
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
            if spec.substitution_policy == "table":
                out.append(spec.substitution_table.get(token, token))
            elif spec.pool:
                out.append(_substitute(spec, token, rng))
            else:
                out.append(token)
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


def corrupt_corpus(sentences: list[str], spec: NoiseSpec,
                   starts: list[tuple[int, int]] | None = None) -> list[str]:
    """``corrupt(s, spec, i)`` for each sentence ``s`` at position ``i``.

    ``starts`` are ``_start_states(spec, len(sentences))``, which depend
    only on ``spec.seed``; a caller corrupting one corpus many times passes
    them so each generator is seeded once. One generator is reset to each
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
        noisy.append(_corrupt_tokens(normalize(sentence), spec, rng))
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


def calibrate(corpus: list[str], spec: NoiseSpec) -> Calibration:
    """Scale deletion/substitution probabilities by bisection until the
    corrupted corpus's pooled WER is within ``WER_TOLERANCE`` of the target,
    in at most ``MAX_BISECTIONS`` passes after the first.

    Each pass is one ``corrupt_corpus`` and one ``corpus_wer``; the last
    pass is returned with its spec, so the caller need not repeat it."""
    target = spec.target_wer
    if target is None or not (0.0 < target <= 2.0):
        raise ValueError(f"target WER must lie in (0, 2], got {target}")

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
