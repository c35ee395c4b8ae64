"""The fast paths of ``prepare`` against the code they replace: ``bleu``
counting n-grams as sorted integer keys against one ``Counter`` per
sentence and order, the channel reading raw PCG64 outputs through
``noise._Stream`` against the channel driven by one fresh ``default_rng``
per sentence, the stream reader against ``np.random.Generator``, the start
states computed in one vectorized pass against ``default_rng``, the clean
corpus normalized once per dataset, and ``calibrate``'s passes that stop
once their step is decided against the bisection of full passes."""

import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from denoiseclf import data, metrics, noise, tokenizer
from denoiseclf.data import make_dataset, split_corpus, synthetic_corpus
from denoiseclf.metrics import bleu, corpus_wer
from denoiseclf.errors import CalibrationError, DataError
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

    @pytest.mark.parametrize("max_n", range(1, 7))
    @pytest.mark.parametrize("seed", range(2))
    def test_corpora_across_chunks(self, seed, max_n):
        rng = np.random.default_rng(40 + seed)
        refs = random_corpus(rng, 700 + 60 * seed, 0, 12)
        hyps = [edited(rng, ref) for ref in refs]
        assert len(refs) > 2 * metrics._CHUNK  # at least three chunks
        assert "" in refs and "" in hyps
        score = bleu(refs, hyps, max_n)
        assert score == reference_bleu(refs, hyps, max_n)
        assert score > 0  # no order is without matches

    def test_prepare_workload_corpus(self, prepare_scored):
        refs, hyps = prepare_scored
        assert bleu(refs, hyps) == reference_bleu(*(
            [" ".join(tokens) for tokens in side] for side in (refs, hyps)))

    def test_prepare_workload_corpus_peaks_under_one_megabyte(
            self, prepare_scored):
        # all of the corpus in one pass peaks at about 2.3 MB
        tracemalloc.start()
        try:
            bleu(*prepare_scored)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("max_n", [0, -2])
    def test_max_n_below_one_is_rejected(self, max_n):
        with pytest.raises(DataError, match=f"got {max_n}$"):
            bleu(["a b c"], ["x y"], max_n=max_n)


def edited(rng, sentence):
    """``sentence`` with each word kept, dropped, doubled or replaced by one
    of three words, so n-grams repeat and clipping matters."""
    out = []
    for word in sentence.split():
        r = rng.random()
        if r < 0.15:
            out += [word, word]
        elif r < 0.75:
            out.append(word)
        elif r < 0.9:
            out.append(str(rng.choice(WORDS[:3])))
    return " ".join(out)


@pytest.fixture(scope="module")
def prepare_scored(tmp_path_factory):
    """The clean and noisy tokens that ``make_dataset`` scores with
    ``ibleu`` on the benchmark's prepare inputs at seed 101."""
    corpus = synthetic_corpus(500, 3, 101)
    train, test = split_corpus(corpus, 0.25, 101)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.02,
                     p_abbreviate=0.05, p_casual=0.05,
                     pool=pool_of(s for _, s in corpus), seed=101,
                     target_wer=0.35)
    scored = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "ibleu",
                      lambda refs, hyps: scored.append((refs, hyps)) or 0.0)
        make_dataset(train, test, spec, tmp_path_factory.mktemp("prepare"))
    [(refs, hyps)] = scored
    assert len(refs) == 1500 and all(refs) and all(hyps)
    assert all(normalize(" ".join(tokens)) == tokens for tokens in refs + hyps)
    return refs, hyps


SPECS = {
    "substitute-and-repeat": NoiseSpec(
        p_delete=0.05, p_substitute=0.45, p_repeat=0.4,
        pool=("a", "b", "cat", "zz"), seed=3),
    "all-five": NoiseSpec(
        p_delete=0.1, p_substitute=0.2, p_repeat=0.2, p_abbreviate=0.1,
        p_casual=0.1, pool=WORDS, seed=8),
    "empty-pool": NoiseSpec(p_delete=0.2, p_substitute=0.5, p_repeat=0.2,
                            seed=11),
}


def reference_corrupt(sentence, spec, index=0):
    """The channel as it was written before: one fresh
    ``default_rng((spec.seed, index))`` per sentence, called once per
    category draw and once per substitution or stretch."""
    rng = np.random.default_rng((spec.seed, index))
    thresholds = np.cumsum(spec.probabilities()).tolist()
    out = []
    for token in normalize(sentence):
        category = bisect_right(thresholds, rng.random())
        if category == 0:
            continue
        if category == 1 and spec.pool:
            choices = [w for w in spec.pool if w != token] or list(spec.pool)
            out.append(choices[int(rng.integers(len(choices)))])
        elif category == 2:
            out.append(token + token[-1] * int(rng.integers(2, 6)))
        elif category == 3:
            out.append(noise.ABBREVIATIONS.get(token, token))
        elif category == 4:
            out.append(noise.CASUAL_SPELLINGS.get(token, token))
        else:
            out.append(token)
    return " ".join(out)


class TestCorruptCorpusReplay:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_one_fresh_generator_per_sentence(self, name):
        spec = SPECS[name]
        rng = np.random.default_rng(21)
        corpus = random_corpus(rng, 40, 0, 12) + ["?!", "", "... the cat"]
        want = [reference_corrupt(s, spec, i) for i, s in enumerate(corpus)]
        assert [corrupt(s, spec, i) for i, s in enumerate(corpus)] == want
        tokens = [normalize(s) for s in corpus]
        streams = noise._Blocks(tokens, spec)
        assert list(noise._replay(tokens, spec, streams)) == want
        assert corrupt_corpus(corpus, spec) == want
        # the streams depend only on the seed, so a rescaled spec replays
        # them
        scaled = noise._scaled(spec, 0.5)
        assert list(noise._replay(tokens, scaled, streams)) == \
            [reference_corrupt(s, scaled, i) for i, s in enumerate(corpus)]

    def test_starts_of_another_length_are_refused(self):
        spec = SPECS["all-five"]
        with pytest.raises(ValueError):
            list(noise._replay([["a", "b"], ["c", "d"]], spec,
                               noise._Blocks([["a", "b"]], spec)))

    def test_blocks_hold_one_output_per_token_and_half_per_integer(self):
        tokens = [["a"] * n for n in (0, 1, 2, 7)]
        blocks = noise._Blocks(tokens, NoiseSpec(seed=4))
        assert blocks.offsets == [0, 0, 2, 5, 16]
        assert blocks.raw.dtype == np.uint64
        for i, (start, a, b) in enumerate(zip(
                blocks.starts, blocks.offsets, blocks.offsets[1:])):
            pcg = np.random.default_rng((4, i)).bit_generator
            assert blocks.raw[a:b].tolist() == \
                pcg.random_raw(b - a).tolist()


def _stream(seed, block):
    """A ``_Stream`` holding the first ``block`` outputs of
    ``default_rng(seed)``, and that generator."""
    generator = np.random.default_rng(seed)
    start = generator.bit_generator.state["state"]
    raw = np.random.default_rng(seed).bit_generator.random_raw(block)
    return (noise._Stream(raw.tolist(), (start["state"], start["inc"])),
            generator)


# one draw each: a float, then integers over ranges of 1 (no draw), 2, 3,
# 45 (a pool), 2**31 (never rejects), 2**31 + 1 (rejects about half the
# time), 2**32 - 1 (the largest range Lemire's method takes), and a stretch;
# the stream draws the stretch as ``2 + integers(4)``
DRAWS = {
    "random": lambda rng: rng.random(),
    "1": lambda rng: int(rng.integers(1)),
    "2": lambda rng: int(rng.integers(2)),
    "3": lambda rng: int(rng.integers(3)),
    "45": lambda rng: int(rng.integers(45)),
    "2**31": lambda rng: int(rng.integers(2**31)),
    "2**31+1": lambda rng: int(rng.integers(2**31 + 1)),
    "2**32-1": lambda rng: int(rng.integers(2**32 - 1)),
    "2..6": lambda rng: int(rng.integers(2, 6)),
}
STREAM_DRAWS = {**DRAWS, "2..6": lambda stream: 2 + stream.integers(4)}


class TestStream:
    """``noise._Stream`` reads raw PCG64 outputs as ``np.random.Generator``
    does: the same values, and the same position after them."""

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("seed", [0, 17, (101, 5)])
    def test_each_draw_matches_the_generator(self, seed, draw):
        stream, generator = _stream(seed, 400)
        for _ in range(300):
            assert STREAM_DRAWS[draw](stream) == DRAWS[draw](generator)
        # still in step: the kept half and the position agree
        assert [stream.integers(45), stream.random()] == \
            [generator.integers(45), generator.random()]

    @pytest.mark.parametrize("block", [0, 3, 40, 2000])
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_draws_match_the_generator(self, seed, block):
        # blocks of 0, 3 and 40 outputs run out and are extended
        order = np.random.default_rng(seed + 50).choice(sorted(DRAWS), 1000)
        stream, generator = _stream(seed, block)
        got = [STREAM_DRAWS[name](stream) for name in order]
        assert got == [DRAWS[name](generator) for name in order]

    def test_a_rejection_that_uses_the_block_up_extends_it(self):
        # 400 draws over 2**31 + 1 values take 400 halves when none is
        # rejected, so a block of 200 outputs runs out only by rejections
        stream, generator = _stream(9, 200)
        got = [stream.integers(2**31 + 1) for _ in range(400)]
        assert got == [int(generator.integers(2**31 + 1))
                       for _ in range(400)]
        assert stream._drawn > 200
        assert stream.random() == generator.random()

    def test_a_hand_built_block_takes_the_rejection_branch(self):
        # over 3 values Lemire's method rejects a 32-bit draw whose product
        # with 3 has low half below 2**32 % 3 = 1: only the draw 0
        low, high, after = 0, 2**31, 0x0123456789ABCDEF
        stream = noise._Stream([high << 32 | low, after], (0, 1))
        assert stream.integers(3) == (3 * high) >> 32 == 1
        # both halves of the first output are used; the next draw takes
        # the second output whole
        assert stream.random() == (after >> 11) * 2.0**-53

    def test_a_range_of_one_value_makes_no_draw(self):
        stream, generator = _stream(3, 4)
        assert stream.integers(1) == 0
        assert stream.random() == generator.random()

    @pytest.mark.parametrize("n", [2**32, 0, -4, 2**40])
    def test_ranges_outside_lemires_method_are_refused(self, n):
        stream, _ = _stream(0, 4)
        with pytest.raises(ValueError):
            stream.integers(n)


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
    passes = _counting(monkeypatch, noise, "_calibration_pass")
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
             for module in (tokenizer, noise, data)]
    passes = _counting(monkeypatch, noise, "_calibration_pass")
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


def reference_calibrate(corpus, spec):
    """``calibrate`` as it was written before: every pass one
    ``corrupt_corpus`` and one ``corpus_wer`` over the whole corpus."""
    target = spec.target_wer
    corpus = [normalize(s) for s in corpus]

    def run_pass(s):
        noisy = corrupt_corpus(corpus, s)
        return noise.Calibration(s, noisy, corpus_wer(corpus, noisy))

    other = spec.p_repeat + spec.p_abbreviate + spec.p_casual
    if spec.p_delete == 0 and spec.p_substitute == 0:
        start = min(0.25, (1.0 - other) / 2.0)
        if start <= 0:
            raise CalibrationError(target, run_pass(spec).wer[0])
        spec = replace(spec, p_delete=start, p_substitute=start)
    destructive = spec.p_delete + spec.p_substitute
    hi_scale = min(1.0 / max(spec.p_delete, spec.p_substitute),
                   (1.0 - other) / destructive)
    lo, hi = 0.0, hi_scale
    best_wer = run_pass(noise._scaled(spec, hi)).wer[0]
    if best_wer < target - noise.WER_TOLERANCE:
        raise CalibrationError(target, best_wer)
    for _ in range(noise.MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        result = run_pass(noise._scaled(spec, mid))
        got = result.wer[0]
        if abs(got - target) < abs(best_wer - target):
            best_wer = got
        if abs(got - target) <= noise.WER_TOLERANCE:
            return result
        if got < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(target, best_wer)


def _outcome(calibrate_fn, corpus, spec):
    try:
        return calibrate_fn(corpus, spec)
    except CalibrationError as error:
        return str(error), error.target, error.achieved


CALIBRATION_WORDS = WORDS + ("you", "please", "going", "night", "people")

# name: (spec, MAX_BISECTIONS, whether some pass stops early)
CALIBRATIONS = {
    "all-five": (NoiseSpec(
        p_delete=0.1, p_substitute=0.1, p_repeat=0.05, p_abbreviate=0.1,
        p_casual=0.1, pool=CALIBRATION_WORDS, seed=3, target_wer=0.35),
        30, True),
    "low-target": (NoiseSpec(
        p_delete=0.02, p_substitute=0.3, p_casual=0.1, pool=WORDS, seed=4,
        target_wer=0.08), 30, True),
    "empty-pool": (NoiseSpec(p_delete=0.2, p_substitute=0.3, seed=9,
                             target_wer=0.25), 30, True),
    "zero-start": (NoiseSpec(
        p_repeat=0.2, p_abbreviate=0.1, p_casual=0.1, pool=WORDS, seed=5,
        target_wer=0.3), 30, True),
    "nothing-to-scale": (NoiseSpec(
        p_repeat=0.5, p_abbreviate=0.3, p_casual=0.2, seed=11,
        target_wer=0.3), 30, False),
    "unreachable": (NoiseSpec(p_delete=0.2, seed=17, target_wer=1.8),
                    30, False),
    # the bisection runs out, so the passes that stopped run again in full;
    # the later one also has a bisection pass that ran to the end
    "runs-out": (NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS,
                           seed=7, target_wer=0.3), 1, True),
    "runs-out-later": (NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS,
                                 seed=7, target_wer=0.2), 3, True),
}


@pytest.mark.parametrize("name", sorted(CALIBRATIONS))
def test_calibrate_matches_the_bisection_of_full_passes(name, monkeypatch):
    spec, max_bisections, stops = CALIBRATIONS[name]
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, 80, 1, 12, CALIBRATION_WORDS)
    corpus += ["The Cat, sat!", "PLEASE... you're going"]
    monkeypatch.setattr(noise, "MAX_BISECTIONS", max_bisections)
    want = _outcome(reference_calibrate, corpus, spec)
    results, real = [], noise._calibration_pass

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(noise, "_calibration_pass", recording)
    assert _outcome(calibrate, corpus, spec) == want
    # None is a pass that stopped once its step was decided
    assert (None in results) == stops


def test_prepare_workload_corrupts_fewer_than_four_full_passes(
        monkeypatch, tmp_path):
    """The benchmark's prepare inputs at seed 101: four full passes would
    corrupt 4 x 1500 sentences; passes that stop once their step is decided
    corrupt 514 + 1319 + 1500 + 1500."""
    corpus = synthetic_corpus(500, 3, 101)
    train, test = split_corpus(corpus, 0.25, 101)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.02,
                     p_abbreviate=0.05, p_casual=0.05,
                     pool=pool_of(s for _, s in corpus), seed=101,
                     target_wer=0.35)
    corruptions = _counting(monkeypatch, noise, "_corrupt_tokens")
    make_dataset(train, test, spec, tmp_path)
    assert len(corruptions) < 4 * len(corpus)
