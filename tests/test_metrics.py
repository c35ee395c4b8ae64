"""Metric tests: WER against an exhaustive edit-distance oracle, BLEU
against hand-counted n-gram fixtures, micro/macro scores against worked
arithmetic."""

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from denoiseclf import metrics
from denoiseclf.metrics import (LANE_WORDS, ConfusionMatrix, DataError,
                                UndefinedReferenceError, bleu, corpus_wer,
                                edit_distance, edit_distances, ibleu,
                                lane_batches, macro_scores, micro_scores,
                                normalize_matrix, padded, pooled_and_mean,
                                wer, word_ids)
from denoiseclf.noise import load_stt_fixture_pairs


def brute_force_edit_cost(a, b):
    """Minimum edit cost by exhaustive recursion; oracle for short inputs."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(brute_force_edit_cost(a[1:], b) + 1,
               brute_force_edit_cost(a, b[1:]) + 1,
               brute_force_edit_cost(a[1:], b[1:]) + (a[0] != b[0]))


def dp_edit_distance(a, b):
    """Wagner-Fischer table, one row at a time; oracle for any length."""
    prev = list(range(len(b) + 1))
    for i, wa in enumerate(a, start=1):
        cur = [i]
        for j, wb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (wa != wb)))
        prev = cur
    return prev[-1]


class TestWer:
    def test_identical(self):
        assert wer("hello there friend", "hello there friend") == 0.0

    def test_empty_hypothesis(self):
        assert wer("one two three", "") == 1.0

    def test_transcription_fixture_pair(self):
        ref = "how to get from bonner platz to freimann?"
        hyp = "how to get from bonner platz to fry."
        assert wer(ref, hyp) == 0.125  # one substitution over 8 words

    def test_empty_reference(self):
        with pytest.raises(UndefinedReferenceError):
            wer("...", "anything")

    def test_can_exceed_one(self):
        assert wer("word", "a b c d e") > 1.0

    def test_exhaustive_oracle_short_sequences(self):
        # all word-sequence pairs of length <= 3 over a 3-word alphabet
        # (length <= 5 is covered by the acceptance suite)
        alphabet = ["a", "b", "c"]
        seqs = [list(s) for n in range(4)
                for s in itertools.product(alphabet, repeat=n)]
        for ref in seqs:
            for hyp in seqs:
                assert edit_distance(ref, hyp) == \
                    brute_force_edit_cost(ref, hyp)

    def test_randomized_against_dp(self):
        # lengths 0-150 cross the 64-word machine-word boundary; small
        # alphabets repeat words, so a word's position mask has many bits
        rng = np.random.default_rng(11)
        for _ in range(300):
            alphabet = [f"w{i}" for i in range(int(rng.integers(1, 9)))]
            ref, hyp = (list(rng.choice(alphabet, size=int(rng.integers(151))))
                        for _ in range(2))
            assert edit_distance(ref, hyp) == dp_edit_distance(ref, hyp)

    def test_corpus_pooled_vs_mean(self):
        pooled, mean = corpus_wer(["a b", "a b c d"], ["a x", "a b c d"])
        assert pooled == pytest.approx(1 / 6)
        assert mean == pytest.approx(0.25)


class TestEditDistances:
    """The batch scorer, one uint64 lane per sentence pair, against the
    Wagner-Fischer table."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lanes_match_dp(self, seed):
        # references of 1 to 64 words; -1 in a hypothesis is no word, so
        # skipped columns fall anywhere, as the channel's deletions do
        rng = np.random.default_rng(seed)
        refs = [rng.integers(0, 1 + seed * 3, rng.integers(1, 65)).tolist()
                for _ in range(60)]
        hyps = [rng.integers(-1, 2 + seed * 3, rng.integers(0, 80)).tolist()
                for _ in range(60)]
        flat, bounds = (np.array(sum(refs, []), dtype=np.int64),
                        np.cumsum([0] + [len(r) for r in refs]))
        lanes = np.arange(len(refs))
        hyp_rows = np.full((60, 80), -1, dtype=np.int64)
        for row, hyp in zip(hyp_rows, hyps):
            row[:len(hyp)] = hyp
        got = edit_distances(padded(flat, bounds, lanes), hyp_rows)
        assert got.tolist() == [
            dp_edit_distance(ref, [w for w in hyp if w >= 0])
            for ref, hyp in zip(refs, hyps)]

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_of_any_width_match_edit_distance(self, seed):
        # references of 64, 65 and 130 words with trailing pads, and
        # hypotheses with -1 gaps anywhere, scored as one batch
        rng = np.random.default_rng(seed)
        for widths in ((64, 30), (65, 64, 1), (130, 65, 3)):
            refs = [rng.integers(0, 6, n).tolist() for n in widths]
            hyps = [rng.integers(-1, 6, n + 5).tolist() for n in widths]
            hyps[0] = refs[0] + [-1] * 5
            ref_rows = np.full((len(widths), widths[0]), -1, dtype=np.int64)
            hyp_rows = np.full((len(widths), widths[0] + 5), -1,
                               dtype=np.int64)
            for row, ref in zip(ref_rows, refs):
                row[:len(ref)] = ref
            for row, hyp in zip(hyp_rows, hyps):
                row[:len(hyp)] = hyp
            got = edit_distances(ref_rows, hyp_rows).tolist()
            want = [edit_distance(ref, [w for w in hyp if w >= 0])
                    for ref, hyp in zip(refs, hyps)]
            assert got == want
            assert got[0] == 0

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 130])
    def test_corpus_wer_across_the_lane_width(self, length):
        # batches wider than LANE_WORDS are scored pair by pair; the others
        # run as lanes
        rng = np.random.default_rng(length)
        words = [f"w{i}" for i in range(5)]
        refs = [list(rng.choice(words, size=n))
                for n in (length, 3, length, 64, 1)]
        hyps = [list(rng.choice(words, size=n))
                for n in (length - 1, 70, length + 2, 64, 0)]
        assert corpus_wer(refs, hyps) == pooled_and_mean(
            list(map(len, refs)),
            [dp_edit_distance(r, h) for r, h in zip(refs, hyps)])

    @pytest.mark.parametrize("lengths,distances", [
        ([10] * 10, [1] * 10), ([3, 7, 10, 3, 9] * 40, [1, 2, 3, 2, 8] * 40)])
    def test_the_mean_sums_the_rates_left_to_right(self, lengths, distances):
        # a compensated sum (math.fsum, or sum() from Python 3.12 on) gives
        # another float on these rates; the manifest's mean must not
        # depend on the interpreter
        rates = [d / n for d, n in zip(distances, lengths)]
        left_to_right = reduce(operator.add, rates, 0.0) / len(rates)
        assert math.fsum(rates) / len(rates) != left_to_right
        assert pooled_and_mean(lengths, distances) == (
            sum(distances) / sum(lengths), left_to_right)

    def test_word_ids_number_new_words_in_order(self):
        index = {"b": 0}
        flat, bounds = word_ids([["a", "b"], [], ["c", "a"]], index)
        assert index == {"b": 0, "a": 1, "c": 2}
        assert flat.tolist() == [1, 0, 2, 1]
        assert bounds.tolist() == [0, 2, 2, 4]
        assert padded(flat, bounds, np.array([2, 1, 0])).tolist() == \
            [[2, 1], [-1, -1], [1, 0]]

    def test_batches_keep_the_cell_budget(self):
        widths = np.array([3] * 5000 + [LANE_WORDS + 1] + [40] * 900
                          + [2000] + [70] * 600 + [40000])
        batches = lane_batches(widths)
        short = widths <= LANE_WORDS
        assert np.concatenate(batches).tolist() == \
            np.flatnonzero(short).tolist() + np.flatnonzero(~short).tolist()
        for lanes in batches:
            assert len(lanes) == 1 or \
                len(lanes) * widths[lanes].max() <= metrics._LANE_CELLS
        assert lane_batches(np.array([], dtype=np.int64)) == []


class TestBleu:
    def test_perfect_hypothesis(self):
        refs = ["the cat sat on the mat", "a dog barked loudly today ok"]
        assert bleu(refs, refs) == pytest.approx(1.0)
        assert ibleu(refs, refs) == pytest.approx(0.0)

    def test_zero_overlap(self):
        assert bleu(["a b c d"], ["x y z w"]) == 0.0
        assert ibleu(["a b c d"], ["x y z w"]) == 1.0

    def test_hand_counted_two_sentence_corpus(self):
        # refs: "the cat sat" / "the dog ran fast"
        # hyps: "the cat sat" / "the dog ran slow"
        # 1-grams: 7 hyp tokens, 6 match; 2-grams: 5 total, 4 match;
        # 3-grams: 3 total, 2 match; 4-grams: 1 total, 0 match -> smoothing
        # does not apply (a 4-word reference exists) -> BLEU 0
        refs = ["the cat sat", "the dog ran fast"]
        hyps = ["the cat sat", "the dog ran slow"]
        assert bleu(refs, hyps) == 0.0

    def test_hand_counted_trigram_corpus(self):
        # single pair, max_n=3: ref "the cat sat on mat",
        # hyp "the cat sat on rug"
        # p1 = 4/5, p2 = 3/4, p3 = 2/3; equal lengths -> BP = 1
        expected = (Fraction(4, 5) * Fraction(3, 4) * Fraction(2, 3)) ** \
            Fraction(1, 3)
        got = bleu(["the cat sat on mat"], ["the cat sat on rug"], max_n=3)
        assert got == pytest.approx(float(expected) ** (1 / 1), abs=1e-12)
        assert got == pytest.approx(
            math.exp((math.log(4 / 5) + math.log(3 / 4) + math.log(2 / 3)) / 3),
            abs=1e-12)

    def test_brevity_penalty(self):
        # hyp shorter than ref: c=2, r=4 -> BP = exp(1 - 2)
        got = bleu(["a b c d"], ["a b"], max_n=1)
        assert got == pytest.approx(math.exp(-1.0) * 1.0, abs=1e-12)

    def test_short_reference_smoothing(self):
        # one-word corpus has no bigrams; higher orders are smoothed or
        # skipped instead of zeroing BLEU
        assert bleu(["hello"], ["hello"]) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            bleu(["a"], ["a", "b"])

    def test_ibleu_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(10)]
        refs = [" ".join(rng.choice(words, size=6)) for _ in range(30)]
        scores = []
        for n_corrupted in (0, 10, 20, 30):
            hyps = list(refs)
            for i in range(n_corrupted):
                hyps[i] = "zz qq"
            score = ibleu(refs, hyps)
            assert 0.0 <= score <= 1.0
            scores.append(score)
        assert scores == sorted(scores)


class TestMicroScores:
    def test_diagonal(self):
        cm = ConfusionMatrix.from_counts([[10, 0], [0, 5]])
        assert micro_scores(cm) == 1.0

    def test_worked_example(self):
        cm = ConfusionMatrix.from_counts([[20, 5], [7, 18]])
        assert micro_scores(cm) == pytest.approx(0.76)

    def test_permutation_invariance(self):
        counts = np.array([[5, 2, 1], [0, 7, 3], [2, 2, 9]])
        perm = [2, 0, 1]
        permuted = counts[np.ix_(perm, perm)]
        assert micro_scores(ConfusionMatrix.from_counts(counts)) == \
            micro_scores(ConfusionMatrix.from_counts(permuted))

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            micro_scores(ConfusionMatrix(2))

    def test_trace_identity_generalizes(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            counts = rng.integers(0, 30, size=(n, n))
            counts[0, 0] += 1  # nonzero total
            cm = ConfusionMatrix.from_counts(counts)
            assert micro_scores(cm) == np.trace(counts) / counts.sum()


class TestMacroScores:
    def test_worked_example(self):
        # class 1: TP=20 FP=5 FN=10; class 0: TN=15
        cm = ConfusionMatrix.from_counts([[15, 5], [10, 20]])
        scores = macro_scores(cm)
        assert scores.per_class_precision == (0.6, 0.8)
        assert scores.precision == pytest.approx(0.7)
        assert scores.per_class_recall == (0.75, 2 / 3)
        assert scores.recall == pytest.approx(17 / 24)
        # harmonic mean of the macro averages: 119/169
        assert scores.f1 == pytest.approx(119 / 169, rel=1e-12)

    def test_perfect_diagonal(self):
        scores = macro_scores(ConfusionMatrix.from_counts([[8, 0], [0, 8]]))
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_degenerate_class_flagged(self):
        # nothing ever predicted as class 1
        cm = ConfusionMatrix.from_counts([[10, 0], [5, 0]])
        scores = macro_scores(cm)
        assert 1 in scores.degenerate_classes
        assert scores.per_class_precision[1] == 0.0

    def test_macro_f1_bounds(self):
        # the harmonic mean of the macro averages lies between them; the
        # average of per-class F1s never exceeds the best class
        rng = np.random.default_rng(2)
        for _ in range(100):
            counts = rng.integers(0, 40, size=(2, 2))
            counts[0, 0] += 1
            scores = macro_scores(ConfusionMatrix.from_counts(counts))
            assert min(scores.precision, scores.recall) - 1e-9 <= scores.f1 \
                <= max(scores.precision, scores.recall) + 1e-9
            mean_f1 = sum(scores.per_class_f1) / len(scores.per_class_f1)
            assert mean_f1 <= max(scores.per_class_f1) + 1e-9


class TestNormalize:
    def test_identity(self):
        out = normalize_matrix(ConfusionMatrix.from_counts([[1, 0], [0, 1]]))
        np.testing.assert_array_equal(out, np.eye(2))

    def test_hand_example(self):
        out = normalize_matrix(ConfusionMatrix.from_counts([[1, 1], [0, 2]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.0, 1.0]])

    def test_row_sums(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 20, size=(4, 4))
        out = normalize_matrix(ConfusionMatrix.from_counts(counts))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_row_stays_zero(self):
        out = normalize_matrix(ConfusionMatrix.from_counts([[0, 0], [1, 1]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])


class TestFixturePairs:
    def test_shipped_pairs_score_finite(self):
        triples = load_stt_fixture_pairs()
        assert len(triples) == 8
        refs = [r for _, r, _ in triples]
        hyps = [h for _, _, h in triples]
        pooled, mean = corpus_wer(refs, hyps)
        assert math.isfinite(pooled) and pooled > 0
        score = ibleu(refs, hyps)
        assert 0.0 < score <= 1.0

    def test_purity(self):
        refs = ["how to get from bonner platz to freimann?"]
        hyps = ["how to get from bonner platz to fry."]
        assert corpus_wer(refs, hyps) == corpus_wer(refs, hyps)
        assert bleu(refs, hyps) == bleu(refs, hyps)

