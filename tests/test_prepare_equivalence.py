"""The fast paths of ``prepare`` against the code they replace: ``bleu``
counting every n-gram order in one pass against the per-order loop,
``corrupt_corpus`` replaying saved generator starts against one fresh
generator per sentence, the start states computed in one vectorized pass
against ``default_rng``, and the clean corpus normalized once per dataset."""

import math
from collections import Counter

import numpy as np
import pytest

from denoiseclf import data, metrics, noise, tokenizer
from denoiseclf.data import make_dataset, split_corpus, synthetic_corpus
from denoiseclf.metrics import bleu, corpus_wer
from denoiseclf.noise import (NoiseSpec, _start_states, calibrate, corrupt,
                              corrupt_corpus, pool_of)
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


class TestStartStates:
    @pytest.mark.parametrize("n", [0, 1, 600])
    @pytest.mark.parametrize("seed", [0, 7, 101, 2**32 - 1, 2**32,
                                      2**64 + 3, 2**128 + 9])
    def test_match_default_rng(self, seed, n):
        want = []
        for i in range(n):
            pcg = np.random.default_rng((seed, i)).bit_generator.state
            want.append((pcg["state"]["state"], pcg["state"]["inc"]))
        assert _start_states(NoiseSpec(seed=seed), n) == want

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            np.random.default_rng((-1, 0))
        with pytest.raises(ValueError):
            _start_states(NoiseSpec(seed=-1), 3)


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    positional arguments; returns the record."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_calibrate_seeds_each_sentence_once(monkeypatch):
    seedings = _counting(monkeypatch, noise, "_start_states")
    passes = _counting(monkeypatch, noise, "corrupt_corpus")
    corpus = random_corpus(np.random.default_rng(5), 50, 3, 9)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS, seed=7,
                     target_wer=0.3)
    calibrate(corpus, spec)
    assert len(passes) >= 3
    assert [(s.seed, n) for s, n in seedings] == [(7, len(corpus))]


def test_make_dataset_normalizes_each_clean_sentence_once(monkeypatch,
                                                          tmp_path):
    corpus = synthetic_corpus(20, 3, 5)
    train, test = split_corpus(corpus, 0.25, 5)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.02,
                     p_abbreviate=0.05, p_casual=0.05,
                     pool=pool_of(s for _, s in corpus),
                     seed=5, target_wer=0.35)
    clean = {id(s): s for _, s in train + test}
    assert len(clean) == len(corpus)
    # every module that calls normalize by its own name
    calls = [_counting(monkeypatch, module, "normalize")
             for module in (tokenizer, noise, metrics, data)]
    passes = _counting(monkeypatch, noise, "corrupt_corpus")
    make_dataset(train, test, spec, tmp_path)
    assert len(passes) >= 3
    counts = Counter(id(args[0]) for record in calls for args in record)
    assert [counts[i] for i in clean] == [1] * len(clean)


class TestTokenInputs:
    """A sentence given as its ``normalize`` tokens scores and corrupts as
    the sentence itself does."""

    def test_corpus_metrics(self):
        rng = np.random.default_rng(3)
        refs = random_corpus(rng, 30, 1, 9) + ["The cat, sat!"]
        hyps = random_corpus(rng, 30, 0, 9) + ["the CAT sat"]
        ref_tokens = [normalize(s) for s in refs]
        hyp_tokens = [normalize(s) for s in hyps]
        assert corpus_wer(ref_tokens, hyp_tokens) == corpus_wer(refs, hyps)
        assert corpus_wer(ref_tokens, hyps) == corpus_wer(refs, hyps)
        assert bleu(ref_tokens, hyp_tokens) == bleu(refs, hyps)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_corrupt_corpus(self, name):
        corpus = random_corpus(np.random.default_rng(4), 30, 0, 9)
        corpus += ["The Cat sat.", "?!"]
        tokens = [normalize(s) for s in corpus]
        assert corrupt_corpus(tokens, SPECS[name]) == \
            corrupt_corpus(corpus, SPECS[name])
