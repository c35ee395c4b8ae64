import numpy as np
import pytest

from denoiseclf.errors import DataError, UndefinedReferenceError
from denoiseclf.metrics import corpus_wer
from denoiseclf.noise import (CalibrationError, NoiseSpec, _substitute,
                              calibrate, corrupt, corrupt_corpus, pool_of)
from denoiseclf.tokenizer import normalize
from test_prepare_equivalence import SPECS, _corpus


def sample_corpus(n=60, seed=0):
    rng = np.random.default_rng(seed)
    words = ["please", "send", "the", "message", "about", "tomorrow",
             "night", "because", "people", "want", "good", "answers"]
    return [" ".join(rng.choice(words, size=rng.integers(4, 9)))
            for _ in range(n)]


class TestSpecValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_delete=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(p_repeat=1.5)

    def test_probabilities_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            NoiseSpec(p_delete=0.6, p_substitute=0.6)

    @pytest.mark.parametrize("pool", [
        ("b", "a", "b"), ("b", "b"), ("a", "c", "d", "c")],
        ids=["repeats", "only_repeats", "repeat_later"])
    def test_pool_must_hold_each_word_once(self, pool):
        repeated = next(w for w in pool if pool.count(w) > 1)
        with pytest.raises(ValueError, match=f"repeats the word '{repeated}'"):
            NoiseSpec(pool=pool)


def test_pool_of_holds_each_normalized_word_once_sorted():
    sentences = ["The cat sat.", "The Cat sat!", "Dogs run, cats sit.",
                 "the CAT  sat"]
    assert pool_of(sentences) == ("cat", "cats", "dogs", "run", "sat",
                                  "sit", "the")
    assert pool_of([]) == ()


class TestCorrupt:
    def test_zero_probabilities_identity_up_to_normalization(self):
        spec = NoiseSpec()
        assert corrupt("Hello, World!", spec) == "hello world"

    def test_certain_deletion_empties_sentence(self):
        spec = NoiseSpec(p_delete=1.0)
        assert corrupt("a b c d", spec) == ""

    def test_certain_abbreviation(self):
        spec = NoiseSpec(p_abbreviate=1.0)
        assert corrupt("please message people", spec) == "pls msg ppl"

    def test_certain_casual_spelling(self):
        spec = NoiseSpec(p_casual=1.0)
        assert corrupt("good night dreams", spec) == "goonite nite dreamz"

    def test_certain_repeat_stretches_last_letter(self):
        spec = NoiseSpec(p_repeat=1.0, seed=3)
        for token in corrupt("hey wow", spec).split():
            stem = token.rstrip(token[-1])
            reps = len(token) - len(stem)
            # original last letter may equal earlier letters; 3..6 covers
            # original + 2..5 repeats
            assert 3 <= reps <= 6

    def test_pool_substitution_picks_other_word(self):
        spec = NoiseSpec(p_substitute=1.0, pool=("alpha", "beta"))
        out = corrupt("alpha alpha alpha", spec).split()
        assert out == ["beta", "beta", "beta"]

    @pytest.mark.parametrize("pool", [
        ("a", "b", "c", "d"), ("b",), ("c", "a")],
        ids=["unique", "single", "no_token"])
    def test_pool_pick_matches_the_list_it_replaces(self, pool):
        spec = NoiseSpec(pool=pool)
        for seed in range(40):
            ref_rng, rng = (np.random.default_rng(seed) for _ in range(2))
            choices = [w for w in pool if w != "b"] or list(pool)
            want = choices[ref_rng.integers(len(choices))]
            assert _substitute(spec, "b", rng) == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_determinism_per_seed_and_index(self):
        spec = NoiseSpec(p_delete=0.2, p_substitute=0.3,
                         pool=("x", "y", "z"), seed=9)
        s = "one two three four five six"
        assert corrupt(s, spec, index=4) == corrupt(s, spec, index=4)
        outs = {corrupt(s, spec, index=i) for i in range(40)}
        assert len(outs) > 1  # index participates in the stream

    def test_seed_changes_stream(self):
        a = NoiseSpec(p_delete=0.5, seed=1)
        b = NoiseSpec(p_delete=0.5, seed=2)
        s = "one two three four five six seven eight nine ten"
        assert corrupt(s, a) != corrupt(s, b)

    def test_corpus_regeneration_identical(self):
        spec = NoiseSpec(p_delete=0.2, p_substitute=0.2,
                         pool=("q", "r"), seed=5)
        corpus = sample_corpus()
        assert corrupt_corpus(corpus, spec) == corrupt_corpus(corpus, spec)


class TestCalibrate:
    def test_hits_target_within_tolerance(self):
        corpus = sample_corpus()
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1,
                         pool=("zz", "qq", "xx"), seed=7, target_wer=0.3)
        calibrated = calibrate(corpus, spec).spec
        achieved = corpus_wer(corpus, corrupt_corpus(corpus, calibrated))[0]
        assert abs(achieved - 0.3) <= 0.05

    def test_works_from_zero_probabilities(self):
        corpus = sample_corpus(seed=1)
        spec = NoiseSpec(pool=("zz", "qq"), seed=11, target_wer=0.2)
        calibrated = calibrate(corpus, spec).spec
        achieved = corpus_wer(corpus, corrupt_corpus(corpus, calibrated))[0]
        assert abs(achieved - 0.2) <= 0.05

    def test_zero_start_leaves_room_for_the_other_categories(self):
        # 0.25 each on deletion and substitution would overfill the 0.6
        # already set; the start splits the 0.4 that is left
        corpus = sample_corpus(seed=1)
        spec = NoiseSpec(p_repeat=0.3, p_abbreviate=0.2, p_casual=0.1,
                         pool=("zz", "qq"), seed=11, target_wer=0.5)
        calibrated, _, wers = calibrate(corpus, spec)[:3]
        assert calibrated.probabilities()[2:] == (0.3, 0.2, 0.1)
        assert sum(calibrated.probabilities()) <= 1.0 + 1e-12
        assert abs(wers[0] - 0.5) <= 0.05

    def test_nothing_left_to_scale(self):
        corpus = sample_corpus(seed=1)
        spec = NoiseSpec(p_repeat=0.5, p_abbreviate=0.3, p_casual=0.2,
                         pool=("zz", "qq"), seed=11, target_wer=0.3)
        with pytest.raises(CalibrationError) as exc:
            calibrate(corpus, spec)
        assert exc.value.target == 0.3

    def test_non_destructive_probabilities_preserved(self):
        corpus = sample_corpus(seed=2)
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.05,
                         pool=("zz",), seed=13, target_wer=0.25)
        calibrated = calibrate(corpus, spec).spec
        assert calibrated.p_repeat == 0.05

    def test_returns_its_last_pass(self):
        corpus = sample_corpus(seed=4)
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_casual=0.1,
                         pool=("zz", "qq"), seed=19, target_wer=0.3)
        calibrated, tokens, wers = calibrate(corpus, spec)[:3]
        noisy = [" ".join(t) for t in tokens]
        assert noisy == corrupt_corpus(corpus, calibrated)
        assert wers == corpus_wer(corpus, noisy)
        assert abs(wers[0] - 0.3) <= 0.05

    def test_unreachable_target_reports_best(self):
        # deletion alone caps pooled WER at 1.0
        corpus = sample_corpus(seed=3)
        spec = NoiseSpec(p_delete=0.2, seed=17, target_wer=1.8)
        with pytest.raises(CalibrationError) as exc:
            calibrate(corpus, spec)
        assert exc.value.target == 1.8
        assert exc.value.achieved <= 1.0 + 1e-9

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_without_a_target_is_the_one_pass_at_the_spec(self, name):
        spec = SPECS[name]
        corpus = [s for s in _corpus(24) if normalize(s)]
        result = calibrate(corpus, spec)
        noisy = corrupt_corpus(corpus, spec)
        assert result.spec is spec
        assert [" ".join(t) for t in result.tokens] == noisy
        assert result.tokens == [normalize(s) for s in noisy]
        assert result.wer == corpus_wer(corpus, noisy)

    # the corpus is checked before any pass
    def test_empty_corpus_rejected(self):
        spec = NoiseSpec(p_delete=0.5, seed=1, target_wer=0.3)
        with pytest.raises(DataError, match="^empty corpus$"):
            calibrate([], spec)

    @pytest.mark.parametrize("empty", ["", "?!", []])
    def test_empty_reference_rejected(self, empty):
        corpus = sample_corpus(seed=5) + [empty]
        spec = NoiseSpec(p_delete=0.5, seed=1, target_wer=0.3)
        with pytest.raises(UndefinedReferenceError,
                           match=r"^empty reference \[\] at position 60$"):
            calibrate(corpus, spec)

