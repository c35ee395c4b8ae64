"""Seeded synthetic corruption channel standing in for speech-transcription
and informal-typing noise.

Each token of a normalized sentence independently draws one corruption
category: deletion, substitution, repeated-letter stretching, abbreviation
replacement, or casual-spelling replacement. The channel is a pure function
of (sentence, spec, position in corpus), so regenerating a corpus is
byte-identical under a fixed seed. ``calibrate`` scales the destructive
probabilities by bisection until a corpus hits a target word error rate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError
from .fileio import atomic_write_text
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
    abbreviation_table: dict[str, str] = field(
        default_factory=lambda: dict(ABBREVIATIONS))
    casual_table: dict[str, str] = field(
        default_factory=lambda: dict(CASUAL_SPELLINGS))

    def __post_init__(self):
        probs = self.probabilities()
        if any(p < 0 or p > 1 for p in probs):
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


def _rng_for(spec: NoiseSpec, index: int) -> np.random.Generator:
    return np.random.default_rng((spec.seed, index))


def corrupt(sentence: str, spec: NoiseSpec, index: int = 0) -> str:
    """Apply the corruption channel to one sentence.

    ``index`` is the sentence's position in its corpus; together with the
    spec's seed it fully determines the output.
    """
    rng = _rng_for(spec, index)
    out: list[str] = []
    # running sums in the order np.cumsum adds them, so the category
    # boundaries are the same floats
    thresholds = list(accumulate(spec.probabilities()))
    for token in normalize(sentence):
        category = bisect_right(thresholds, rng.random())
        if category == 0:  # deletion
            continue
        if category == 1:  # substitution
            if spec.substitution_policy == "table":
                out.append(spec.substitution_table.get(token, token))
            elif spec.pool:
                choices = [w for w in spec.pool if w != token] or list(spec.pool)
                out.append(choices[rng.integers(len(choices))])
            else:
                out.append(token)
        elif category == 2:  # repeated-letter stretching
            out.append(token + token[-1] * int(rng.integers(2, 6)))
        elif category == 3:
            out.append(spec.abbreviation_table.get(token, token))
        elif category == 4:
            out.append(spec.casual_table.get(token, token))
        else:
            out.append(token)
    return " ".join(out)


def corrupt_corpus(sentences: list[str], spec: NoiseSpec) -> list[str]:
    return [corrupt(s, spec, i) for i, s in enumerate(sentences)]


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


def calibrate(corpus: list[str], spec: NoiseSpec,
              tolerance: float = 0.05, max_iter: int = 30) -> Calibration:
    """Scale deletion/substitution probabilities by bisection until the
    corrupted corpus's pooled WER is within ``tolerance`` of the target.

    Each pass is one ``corrupt_corpus`` and one ``corpus_wer``; the last
    pass is returned with its spec, so the caller need not repeat it."""
    target = spec.target_wer
    if target is None or not (0.0 < target <= 2.0):
        raise ValueError(f"target WER must lie in (0, 2], got {target}")
    if spec.p_delete == 0 and spec.p_substitute == 0:
        # nothing to scale; start from an even split
        spec = replace(spec, p_delete=0.25, p_substitute=0.25)

    def run_pass(s: NoiseSpec) -> Calibration:
        noisy = corrupt_corpus(corpus, s)
        return Calibration(s, noisy, corpus_wer(corpus, noisy))

    # largest scale keeping every probability valid and the category mass <= 1
    other = spec.p_repeat + spec.p_abbreviate + spec.p_casual
    destructive = spec.p_delete + spec.p_substitute
    hi_scale = min(1.0 / max(spec.p_delete, spec.p_substitute),
                   (1.0 - other) / destructive)
    lo, hi = 0.0, hi_scale
    best_wer = run_pass(_scaled(spec, hi)).wer[0]
    if best_wer < target - tolerance:
        raise CalibrationError(target, best_wer)
    for _ in range(max_iter):
        mid = (lo + hi) / 2.0
        result = run_pass(_scaled(spec, mid))
        got = result.wer[0]
        if abs(got - target) < abs(best_wer - target):
            best_wer = got
        if abs(got - target) <= tolerance:
            return result
        if got < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(target, best_wer)


def load_table(path: str | Path) -> dict[str, str]:
    """Read an editable ``from<TAB>to`` replacement table."""
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        src, _, dst = line.partition("\t")
        table[src] = dst
    return table


def save_table(table: dict[str, str], path: str | Path) -> None:
    atomic_write_text(
        path, "".join(f"{k}\t{v}\n" for k, v in sorted(table.items())))


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
