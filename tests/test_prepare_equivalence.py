"""The fast paths of ``prepare`` against the code they replace: ``bleu``
counting every n-gram order in one pass against the per-order loop, and
``corrupt_corpus`` replaying saved generator starts against one fresh
generator per sentence."""

import math
from collections import Counter

import numpy as np
import pytest

from denoiseclf import noise
from denoiseclf.metrics import bleu
from denoiseclf.noise import (NoiseSpec, _start_states, calibrate, corrupt,
                              corrupt_corpus)
from denoiseclf.tokenizer import normalize


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu(references, hypotheses, max_n=4):
    """``bleu`` as it was written before: one pair of Counters per sentence
    pair and n-gram order."""
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
            continue
        if matches == 0:
            if n >= 2 and max_ref < n:
                matches = 1
            else:
                return 0.0
        log_sum += math.log(matches / total) / max_n
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)


WORDS = ("a", "b", "c", "d", "e", "the", "cat", "sat")


def random_corpus(rng, n, lo, hi, words=WORDS):
    return [" ".join(rng.choice(words, size=rng.integers(lo, hi + 1)))
            for _ in range(n)]


class TestBleuOnePass:
    @pytest.mark.parametrize("max_n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora(self, seed, max_n):
        rng = np.random.default_rng(seed)
        refs = random_corpus(rng, 30, 1, 9)
        # hypotheses with repeated words, so clipping matters, and some
        # too short for the higher orders
        hyps = random_corpus(rng, 30, 0, 9, WORDS[:4])
        assert bleu(refs, hyps, max_n) == reference_bleu(refs, hyps, max_n)

    @pytest.mark.parametrize("refs,hyps", [
        (["a b c d e", "the cat sat"], ["a b", "cat"]),    # too short
        (["a b", "c"], ["a b", "c d"]),                    # smoothing
        (["a"], ["a a a"]),                                # smoothing
        (["a b c d"], ["e e e e"]),                        # zero matches
        (["a b c", "d e"], ["", ""]),                      # empty hyps
        (["", "?"], ["a", "b c"]),                         # empty refs
        (["a b c d", "a b"], ["a b c d", "b a"]),
    ], ids=["short-hyps", "smoothed", "smoothed-repeats", "no-matches",
            "empty-hyps", "empty-refs", "partial"])
    @pytest.mark.parametrize("max_n", [1, 2, 3, 4])
    def test_edge_corpora(self, refs, hyps, max_n):
        assert bleu(refs, hyps, max_n) == reference_bleu(refs, hyps, max_n)


SPECS = {
    "substitute-and-repeat": NoiseSpec(
        p_delete=0.05, p_substitute=0.45, p_repeat=0.4,
        pool=("a", "b", "b", "cat", "zz"), seed=3),
    "all-five": NoiseSpec(
        p_delete=0.1, p_substitute=0.2, p_repeat=0.2, p_abbreviate=0.1,
        p_casual=0.1, pool=WORDS, seed=8),
    "table": NoiseSpec(
        p_delete=0.1, p_substitute=0.5, p_repeat=0.3,
        substitution_policy="table", substitution_table={"cat": "hat"},
        seed=5),
    "empty-pool": NoiseSpec(p_delete=0.2, p_substitute=0.5, p_repeat=0.2,
                            seed=11),
}


class TestCorruptCorpusReplay:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_one_fresh_generator_per_sentence(self, name):
        spec = SPECS[name]
        rng = np.random.default_rng(21)
        corpus = random_corpus(rng, 40, 0, 12) + ["?!", "", "... the cat"]
        want = [corrupt(s, spec, i) for i, s in enumerate(corpus)]
        starts = _start_states(spec, len(corpus))
        assert corrupt_corpus(corpus, spec, starts) == want
        assert corrupt_corpus(corpus, spec) == want
        # the starts depend only on the seed, so a rescaled spec replays them
        scaled = noise._scaled(spec, 0.5)
        assert corrupt_corpus(corpus, scaled, starts) == \
            [corrupt(s, scaled, i) for i, s in enumerate(corpus)]

    def test_starts_of_another_length_are_refused(self):
        spec = SPECS["all-five"]
        with pytest.raises(ValueError):
            corrupt_corpus(["a b", "c d"], spec, _start_states(spec, 1))


def test_calibrate_seeds_each_sentence_once(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    passes = []
    real_corrupt_corpus = noise.corrupt_corpus

    def counting_corrupt_corpus(*args, **kwargs):
        passes.append(args[1])
        return real_corrupt_corpus(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    monkeypatch.setattr(noise, "corrupt_corpus", counting_corrupt_corpus)
    rng = default_rng(5)
    corpus = random_corpus(rng, 50, 3, 9)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS, seed=7,
                     target_wer=0.3)
    calibrate(corpus, spec)
    assert len(passes) >= 3
    assert calls == [((7, i),) for i in range(len(corpus))]
