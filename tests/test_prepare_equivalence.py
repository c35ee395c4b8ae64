"""The fast paths of ``prepare`` against the code they replace, or against
a definition written out on its own: ``bleu`` counting n-grams as sorted
integer keys, of sentences or of word-id rows, against one ``Counter`` per
sentence and order; the channel's draws against SplitMix64 stepped one
output at a time; the channel run over a whole corpus as array ops over
every token against the channel written out one token at a time; the
clean corpus normalized once per dataset; and ``calibrate``'s array passes
against a bisection whose passes corrupt and score one sentence at a
time."""

import hashlib
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
from denoiseclf.errors import CalibrationError, ConfigError, DataError
from denoiseclf.noise import (NoiseSpec, calibrate, corrupt, corrupt_corpus,
                              pool_of)
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
        assert len(refs) > metrics._SLICE  # at least two slices
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
    """The clean tokens and the channel pass's written tokens whose iBLEU
    ``make_dataset`` writes on the benchmark's prepare inputs at seed 101;
    no sentence there is emptied, so they are the tokens on disk."""
    train, test, spec = _prepare_inputs()
    passes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "calibrate",
                      lambda *args: passes.append(calibrate(*args))
                      or passes[-1])
        manifest = make_dataset(train, test, spec,
                                tmp_path_factory.mktemp("prepare"))
    refs = [normalize(s) for _, s in train + test]
    hyps = passes[-1].tokens
    assert len(refs) == 1500 and all(refs) and all(hyps)
    assert all(normalize(" ".join(tokens)) == tokens for tokens in refs + hyps)
    assert manifest["ibleu"] == metrics.ibleu(refs, hyps)
    return refs, hyps


def id_rows(sentences, width, rng=None):
    """Sentences of word ids as rows ``width`` wide: each sentence's words
    in order, -1 in every other cell; the -1 cells all on the right, or,
    given ``rng``, anywhere in the row."""
    rows = np.full((len(sentences), width), -1, dtype=np.int64)
    for row, words in zip(rows, sentences):
        at = (np.arange(len(words)) if rng is None else
              np.sort(rng.choice(width, len(words), replace=False)))
        row[at] = words
    return rows


def row_case(seed, name):
    """Reference and hypothesis id sentences for one ``TestRowBleu`` case,
    and the first id: word k of the case's vocabulary has id first + k."""
    rng = np.random.default_rng(seed)
    lo, hi, first, drop = 1, 9, 0, 0.25
    if name == "wide":
        lo, hi = metrics.LANE_WORDS + 1, metrics.LANE_WORDS + 30
    elif name == "ids-near-2**40":
        # the largest id + 1 is 2**40: keys of order 2 pass int64 unless
        # they are ranked down first
        first = 2 ** 40 - len(WORDS)
    elif name == "empty-hyps":
        drop = 0.6
    refs = [rng.integers(0, len(WORDS), rng.integers(lo, hi + 1)).tolist()
            for _ in range(40)]
    refs[0].append(len(WORDS) - 1)  # the largest id appears
    hyps = [[w for w in ref if rng.random() >= drop]
            + rng.integers(0, 3, rng.integers(0, 3)).tolist()
            for ref in refs]
    for i in range(0, len(hyps), 7):
        hyps[i] = []  # all -1
    return rng, refs, hyps, first


class TestRowBleu:
    """``bleu`` on word-id rows against ``reference_bleu`` of the sentences
    the rows hold, with -1 gaps anywhere in the hypothesis rows."""

    @pytest.mark.parametrize("max_n", range(1, 7))
    @pytest.mark.parametrize("name", ["gaps", "empty-hyps", "wide",
                                      "ids-near-2**40"])
    def test_rows_score_as_their_compacted_sentences(self, name, max_n):
        rng, refs, hyps, first = row_case(50 + max_n, name)
        as_ids = [[[first + w for w in sentence] for sentence in side]
                  for side in (refs, hyps)]
        # two batches of their own widths, the hypotheses gapped
        batches = []
        for half in (slice(0, 25), slice(25, None)):
            ref_ids, hyp_ids = as_ids[0][half], as_ids[1][half]
            width = max(map(len, ref_ids + hyp_ids)) + 4
            batches.append((id_rows(ref_ids, max(map(len, ref_ids))),
                            id_rows(hyp_ids, width, rng)))
        # a -1 cell stands before a word of its row
        assert any((np.diff(h >= 0, axis=1) & (h[:, 1:] >= 0)).any()
                   for _, h in batches)
        assert max(r.max() for r, _ in batches) == first + len(WORDS) - 1
        words = [[" ".join(f"w{w}" for w in sentence) for sentence in side]
                 for side in (refs, hyps)]
        assert bleu(*zip(*batches), max_n) == reference_bleu(*words, max_n)

    def test_no_hypothesis_word_scores_zero(self):
        refs = id_rows([[0, 1], [2]], 2)
        hyps = np.full((2, 3), -1, dtype=np.int64)
        assert bleu([refs], [hyps]) == 0.0


SPECS = {
    "substitute-and-repeat": NoiseSpec(
        p_delete=0.05, p_substitute=0.45, p_repeat=0.4,
        pool=("a", "b", "cat", "zz"), seed=3),
    "all-five": NoiseSpec(
        p_delete=0.1, p_substitute=0.2, p_repeat=0.2, p_abbreviate=0.1,
        p_casual=0.1, pool=WORDS, seed=8),
    "empty-pool": NoiseSpec(p_delete=0.2, p_substitute=0.5, p_repeat=0.2,
                            seed=11),
    # a pool of one word, or of two where a token is one of them, leaves
    # a substitute one choice
    "one-word-pool": NoiseSpec(p_substitute=0.6, p_repeat=0.2,
                               pool=("cat",), seed=12),
    "two-word-pool": NoiseSpec(p_substitute=0.6, p_casual=0.2,
                               pool=("a", "b"), seed=13),
}


# SplitMix64 as Steele, Lea and Flood give it, written out here on its own
_GAMMA, _MASK64 = 0x9E3779B97F4A7C15, (1 << 64) - 1


class SplitMix64:
    """The sequential generator: each output adds GAMMA to the state and
    mixes the new state."""

    def __init__(self, state):
        self.state = state & _MASK64

    def next(self):
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def stream_key(seed):
    """The channel's key of ``seed``: its 64-bit words, least first, each
    xored into the key so far and taken through one generator step."""
    key = 0
    while True:
        key = SplitMix64(key ^ (seed & _MASK64)).next()
        seed >>= 64
        if not seed:
            return key


def reference_draw(seed, counter):
    """The generator started at the seed's key, jumped ``counter`` steps,
    and stepped once more."""
    return SplitMix64(stream_key(seed) + counter * _GAMMA).next()


def reference_channel(sentence, spec, index=0):
    """The channel written out from its definition: token j of sentence
    ``index`` reads draws ``index << 32 | j << 1`` (its category, 53 bits
    as a uniform) and that counter + 1 (a pick from the top 32 bits), and
    a substitute indexes the list of pool words other than the token. Each
    token's category and the word it became, None if deleted."""
    thresholds = np.cumsum(spec.probabilities()).tolist()
    out = []
    for j, token in enumerate(normalize(sentence)):
        counter = index << 32 | j << 1
        uniform = (reference_draw(spec.seed, counter) >> 11) / 2 ** 53
        top = reference_draw(spec.seed, counter + 1) >> 32
        category = bisect_right(thresholds, uniform)
        word = token
        if category == 0:
            word = None
        elif category == 1 and spec.pool:
            choices = [w for w in spec.pool if w != token] or list(spec.pool)
            word = choices[top * len(choices) >> 32]
        elif category == 2:
            word = token + token[-1] * (2 + (top * 4 >> 32))
        elif category == 3:
            word = noise.ABBREVIATIONS.get(token, token)
        elif category == 4:
            word = noise.CASUAL_SPELLINGS.get(token, token)
        out.append((category, word))
    return out


def reference_counts(corpus, spec):
    """The ``counts`` of the reference channel over ``corpus``: its tokens
    and, per category, the tokens that drew it and the tokens it
    changed."""
    draws, changed = Counter(), Counter()
    for i, sentence in enumerate(corpus):
        pairs = reference_channel(sentence, spec, i)
        draws.update(c for c, _ in pairs)
        changed.update(c for (c, w), t in zip(pairs, normalize(sentence))
                       if w != t)
    return {"tokens": sum(draws.values())} | {
        f"{name}_{kind}": counter[c]
        for c, name in enumerate(noise.CATEGORIES)
        for kind, counter in (("draws", draws), ("changed", changed))}


def reference_corrupt(sentence, spec, index=0):
    return " ".join(word for _, word in reference_channel(sentence, spec,
                                                          index)
                    if word is not None)


def _corpus(seed):
    """Random sentences with empty ones, punctuation, and two over
    ``LANE_WORDS`` words, which are scored in batches of their own."""
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, 40, 0, 12) + ["?!", "", "... the cat"]
    corpus[7] = " ".join(["the cat sat"] * 30)
    corpus[20] = " ".join(rng.choice(WORDS, size=65))
    return corpus


SEEDS = [0, 7, 101, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 2**128 + 9]


class TestStream:
    """The draws against SplitMix64 written out on its own."""

    def test_the_generator_gives_the_published_outputs(self):
        # the first outputs of the C reference seeded with 1234567
        gen = SplitMix64(1234567)
        assert [gen.next() for _ in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_draw_is_the_generator_stepped_to_its_counter(self, seed):
        key = NoiseSpec(seed=seed)._key
        assert key == stream_key(seed)
        gen = SplitMix64(key)
        stepped = [gen.next() for _ in range(300)]
        counters = np.arange(300, dtype=np.uint64)
        assert [noise._draw(key, c) for c in range(300)] == stepped
        assert noise._draw(key, counters).tolist() == stepped
        # the last counter of the layout: sentence 2**32 - 1, token
        # 2**31 - 1, draw 1
        assert noise._draw(key, _MASK64) == reference_draw(seed, _MASK64)

    def test_seeds_below_2_64_have_their_own_keys(self):
        seeds = set(SEEDS[:6]) | set(range(1, 200))
        assert len({NoiseSpec(seed=s)._key for s in seeds}) == len(seeds)
        # a seed's higher words count
        assert NoiseSpec(seed=3)._key != NoiseSpec(seed=2**64 + 3)._key


class TestCorruptCorpusReplay:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_the_reference_channel(self, name):
        spec = SPECS[name]
        corpus = _corpus(21)
        want = [reference_corrupt(s, spec, i) for i, s in enumerate(corpus)]
        assert [corrupt(s, spec, i) for i, s in enumerate(corpus)] == want
        assert corrupt_corpus(corpus, spec) == want
        # the draws and tables depend only on the seed and the pool, so a
        # pass at rescaled thresholds runs on them
        tokens = [normalize(s) for s in corpus]
        scaled = replace(spec, p_delete=spec.p_delete / 2,
                         p_substitute=spec.p_substitute / 2)
        run = noise._Run(noise._Interned(tokens, spec), scaled._thresholds)
        assert _joined(run.written()[0]) == corrupt_corpus(corpus, scaled) \
            == [reference_corrupt(s, scaled, i) for i, s in enumerate(corpus)]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_counts_are_the_reference_channel_counts(self, name):
        spec = SPECS[name]
        corpus = [s for s in _corpus(22) if normalize(s)]
        assert calibrate(corpus, spec).counts == reference_counts(corpus,
                                                                  spec)


def _joined(tokens):
    """Each noisy sentence's tokens as the sentence ``corrupt`` writes."""
    return [" ".join(t) for t in tokens]


class TestChannel:
    """What the stream gives the channel, on random corpora."""

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 45, 300])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_corrupt_is_corrupt_corpus(self, seed, size):
        # sentences up to 90 words, some from the pool, so a token in the
        # pool picks among the others and one outside it among them all
        pool = tuple(f"w{i}" for i in range(size))
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.4, p_repeat=0.2,
                         p_abbreviate=0.1, p_casual=0.1, pool=pool,
                         seed=seed)
        rng = np.random.default_rng(size)
        corpus = random_corpus(rng, 30, 0, 90, CALIBRATION_WORDS + pool[:3])
        assert max(len(s.split()) for s in corpus) > metrics.LANE_WORDS
        want = [corrupt(s, spec, i) for i, s in enumerate(corpus)]
        assert corrupt_corpus(corpus, spec) == want
        assert want[:3] == [reference_corrupt(s, spec, i)
                            for i, s in enumerate(corpus[:3])]

    @pytest.mark.parametrize("seed", [0, 2**128 + 9])
    def test_a_sentence_depends_on_seed_index_and_tokens_alone(self, seed):
        spec = replace(SPECS["all-five"], seed=seed)
        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 40, 1, 70)
        other = random_corpus(rng, 40, 1, 70)
        mixed = [a if i % 3 else b
                 for i, (a, b) in enumerate(zip(corpus, other))]
        shared = [i for i in range(40) if i % 3]
        assert [corrupt_corpus(corpus, spec)[i] for i in shared] == \
            [corrupt_corpus(mixed, spec)[i] for i in shared] == \
            [corrupt(corpus[i], spec, i) for i in shared]
        # the shorter corpus holds the same first sentences
        assert corrupt_corpus(corpus[:5], spec) == \
            corrupt_corpus(corpus, spec)[:5]

    @pytest.mark.parametrize("seed", [1, 2**64 + 3])
    def test_each_category_is_drawn_at_its_probability(self, seed):
        # 24000 tokens; a count of n draws at probability p lies within
        # 5 standard deviations, sqrt(n p (1 - p)), of n p, which a correct
        # stream misses about once in 1.7 million
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.25, p_repeat=0.15,
                         p_abbreviate=0.05, p_casual=0.3, pool=WORDS,
                         seed=seed)
        corpus = random_corpus(np.random.default_rng(seed), 3000, 8, 8)
        counts = calibrate(corpus, spec).counts
        n = counts["tokens"]
        assert n == 24000
        drawn = [counts[f"{name}_draws"] for name in noise.CATEGORIES]
        kept = 1.0 - sum(spec.probabilities())
        for count, p in zip(drawn + [n - sum(drawn)],
                            spec.probabilities() + (kept,)):
            assert abs(count - n * p) <= 5 * math.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("size", [2, 3, 7, 45, 300])
    def test_a_substitute_is_never_the_word_it_replaces(self, size):
        # every token is a pool word, and every pool word appears
        pool = tuple(f"w{i}" for i in range(size))
        spec = NoiseSpec(p_substitute=1.0, pool=pool, seed=size)
        corpus = [" ".join(pool)] * 3 + random_corpus(
            np.random.default_rng(size), 30, 1, 70, pool)
        noisy = corrupt_corpus(corpus, spec)
        pairs = [(t, w) for clean, out in zip(corpus, noisy)
                 for t, w in zip(clean.split(), out.split(), strict=True)]
        assert all(t != w for t, w in pairs)
        if size <= 7:  # and a word's substitutes are all the others
            assert {w for t, w in pairs if t == "w0"} == set(pool[1:])

    def test_a_pool_of_the_word_alone_keeps_it(self):
        spec = NoiseSpec(p_substitute=1.0, pool=("cat",), seed=4)
        assert corrupt_corpus(["the cat sat"], spec) == ["cat cat cat"]

    @pytest.mark.parametrize("seed", [0, 17])
    def test_stretches_add_two_to_five_letters(self, seed):
        spec = NoiseSpec(p_repeat=1.0, seed=seed)
        corpus = random_corpus(np.random.default_rng(seed), 40, 1, 12)
        noisy = corrupt_corpus(corpus, spec)
        extra = Counter(len(w) - len(t) for clean, out in zip(corpus, noisy)
                        for t, w in zip(clean.split(), out.split()))
        assert set(extra) == {2, 3, 4, 5}

    @pytest.mark.parametrize("index", [-1, 2**32, 2**40])
    def test_an_index_outside_32_bits_is_refused(self, index):
        # 2**32 would share sentence 0's counters
        with pytest.raises(ConfigError, match=(
                r"^sentence index must lie in \[0, 2\*\*32\), "
                rf"got {index}$")):
            corrupt("the cat sat", SPECS["all-five"], index)

    def test_the_last_32_bit_index_is_taken(self):
        spec = SPECS["all-five"]
        assert corrupt("the cat sat", spec, 2**32 - 1) == \
            reference_corrupt("the cat sat", spec, 2**32 - 1)

    @pytest.mark.parametrize("index", [5, 2**32 - 1])
    def test_a_numpy_index_is_its_int(self, index):
        sentence = " ".join(WORDS * 3)
        spec = SPECS["all-five"]
        assert corrupt(sentence, spec, np.int64(index)) == \
            corrupt(sentence, spec, np.uint32(index)) == \
            corrupt(sentence, spec, index)


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


def test_calibrate_draws_each_token_once(monkeypatch):
    # both draws of every token, as two arrays, for all of the passes
    draws = _counting(monkeypatch, noise, "_draw")
    passes = _counting(monkeypatch, noise, "_calibration_pass")
    corpus = random_corpus(np.random.default_rng(5), 50, 3, 9)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS, seed=7,
                     target_wer=0.3)
    calibrate(corpus, spec)
    assert len(passes) >= 3
    assert [len(counters) for _, counters in draws] == \
        [sum(map(len, map(normalize, corpus)))] * 2


@pytest.mark.parametrize("spec", [
    NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS, seed=7,
              target_wer=0.3),
    NoiseSpec(p_repeat=0.1, pool=WORDS, seed=7, target_wer=0.3)],
    ids=["scaled", "zero-start"])
def test_calibrate_builds_the_spec_it_returns_alone(monkeypatch, spec):
    built = _counting(monkeypatch, NoiseSpec, "__post_init__")
    corpus = random_corpus(np.random.default_rng(5), 50, 3, 9)
    passes = _counting(monkeypatch, noise, "_calibration_pass")
    result = calibrate(corpus, spec)
    assert len(passes) >= 2
    assert [args[0] for args in built] == [result.spec]
    # the last pass's thresholds, and the spec a bisection over specs
    # returns
    assert result.spec._thresholds == passes[-1][1]
    assert result.spec == reference_calibrate(corpus, spec)[0]


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


def scaled_spec(spec, scale):
    """The spec of a pass at ``scale``, as ``calibrate`` built one for each
    pass before its passes took thresholds."""
    return replace(spec, p_delete=min(spec.p_delete * scale, 1.0),
                   p_substitute=min(spec.p_substitute * scale, 1.0),
                   target_wer=None)


def reference_calibrate(corpus, spec):
    """``calibrate`` as it was written before passes stopped early: every
    pass runs the channel one sentence at a time (``reference_corrupt``)
    and scores each sentence with the Python-int ``edit_distance``."""
    target = spec.target_wer
    corpus = [normalize(s) for s in corpus]

    def run_pass(s):
        noisy = [reference_corrupt(" ".join(tokens), s, i)
                 for i, tokens in enumerate(corpus)]
        return s, noisy, metrics.pooled_and_mean(list(map(len, corpus)), [
            metrics.edit_distance(tokens, normalize(out))
            for tokens, out in zip(corpus, noisy)])

    other = spec.p_repeat + spec.p_abbreviate + spec.p_casual
    if spec.p_delete == 0 and spec.p_substitute == 0:
        start = min(0.25, (1.0 - other) / 2.0)
        if start <= 0:
            raise CalibrationError(target, run_pass(spec)[2][0])
        spec = replace(spec, p_delete=start, p_substitute=start)
    destructive = spec.p_delete + spec.p_substitute
    hi_scale = min(1.0 / max(spec.p_delete, spec.p_substitute),
                   (1.0 - other) / destructive)
    lo, hi = 0.0, hi_scale
    best_wer = run_pass(scaled_spec(spec, hi))[2][0]
    if best_wer < target - noise.WER_TOLERANCE:
        raise CalibrationError(target, best_wer)
    for _ in range(noise.MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        result = run_pass(scaled_spec(spec, mid))
        got = result[2][0]
        if abs(got - target) < abs(best_wer - target):
            best_wer = got
        if abs(got - target) <= noise.WER_TOLERANCE:
            return result
        if got < target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(target, best_wer)


def _as_reference(result):
    """A ``ChannelPass`` as ``reference_calibrate`` gives it: the spec, the
    noisy sentences and their WER; each sentence's tokens are its
    ``normalize`` tokens."""
    noisy = _joined(result.tokens)
    assert result.tokens == [normalize(s) for s in noisy]
    return result.spec, noisy, result.wer


def _outcome(calibrate_fn, corpus, spec):
    try:
        return calibrate_fn(corpus, spec)
    except CalibrationError as error:
        return str(error), error.target, error.achieved


CALIBRATION_WORDS = WORDS + ("you", "please", "going", "night", "people")

# name: (spec, MAX_BISECTIONS)
CALIBRATIONS = {
    "all-five": (NoiseSpec(
        p_delete=0.1, p_substitute=0.1, p_repeat=0.05, p_abbreviate=0.1,
        p_casual=0.1, pool=CALIBRATION_WORDS, seed=3, target_wer=0.35), 30),
    "low-target": (NoiseSpec(
        p_delete=0.02, p_substitute=0.3, p_casual=0.1, pool=WORDS, seed=4,
        target_wer=0.08), 30),
    "empty-pool": (NoiseSpec(p_delete=0.2, p_substitute=0.3, seed=9,
                             target_wer=0.25), 30),
    "zero-start": (NoiseSpec(
        p_repeat=0.2, p_abbreviate=0.1, p_casual=0.1, pool=WORDS, seed=5,
        target_wer=0.3), 30),
    "nothing-to-scale": (NoiseSpec(
        p_repeat=0.5, p_abbreviate=0.3, p_casual=0.2, seed=11,
        target_wer=0.3), 30),
    "unreachable": (NoiseSpec(p_delete=0.2, seed=17, target_wer=1.8), 30),
    # the bisection runs out: achieved is the closest pass's WER
    "runs-out": (NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS,
                           seed=7, target_wer=0.3), 1),
    "runs-out-later": (NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=WORDS,
                                 seed=7, target_wer=0.2), 3),
}


@pytest.mark.parametrize("name", sorted(CALIBRATIONS))
def test_calibrate_matches_the_bisection_of_full_passes(name, monkeypatch):
    spec, max_bisections = CALIBRATIONS[name]
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, 80, 1, 12, CALIBRATION_WORDS)
    corpus += ["The Cat, sat!", "PLEASE... you're going"]
    monkeypatch.setattr(noise, "MAX_BISECTIONS", max_bisections)
    want = _outcome(reference_calibrate, corpus, spec)
    got = _outcome(calibrate, corpus, spec)
    if isinstance(got, noise.ChannelPass):
        got = _as_reference(got)
    assert got == want


def _prepare_inputs(seed=101):
    """The benchmark's prepare inputs: train and test splits and spec."""
    corpus = synthetic_corpus(500, 3, seed)
    train, test = split_corpus(corpus, 0.25, seed)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.02,
                     p_abbreviate=0.05, p_casual=0.05,
                     pool=pool_of(s for _, s in corpus), seed=seed,
                     target_wer=0.35)
    return train, test, spec


def test_prepare_workload_runs_exactly_four_passes(monkeypatch, tmp_path):
    """Each pass runs to its end; on the benchmark's prepare inputs at
    seed 101 the bisection takes the top-scale pass and three more."""
    train, test, spec = _prepare_inputs()
    passes = _counting(monkeypatch, noise, "_calibration_pass")
    make_dataset(train, test, spec, tmp_path)
    assert len(passes) == 4


# the first 16 hex digits of each seed's digest; the channel driven one
# sentence at a time writes the same bytes
PREPARE_DIGESTS = [
    "6b9e3da375e9eec0", "c13e94bad4443164", "9e64ec8a5cb67e71",
    "6c93f062d11fdfce", "fb312b54bdff486c", "bd496e360cff9898",
    "9e20fa384540be32", "3e76c5364c3d3bc0", "1bf904be954e5c4b",
    "2c5c6e84a5b55a68"]


def test_prepare_workload_datasets_are_the_pinned_bytes(tmp_path):
    """The digest of the prepare workload's train.tsv, test.tsv and
    manifest.txt at seeds 101 to 110."""
    digests = []
    for seed in range(101, 111):
        out = tmp_path / str(seed)
        make_dataset(*_prepare_inputs(seed), out)
        files = b"".join((out / name).read_bytes() for name in
                         ("train.tsv", "test.tsv", "manifest.txt"))
        digests.append(hashlib.sha256(files).hexdigest()[:16])
    assert digests == PREPARE_DIGESTS


# the short sentences alone peak at about 2.3 MB and the long one adds about
# 0.2 MB; one int64 array of 3001 x 2000 cells would take 48 MB
PEAK_BYTES = 4_000_000


def test_a_long_sentence_keeps_the_pass_small():
    """One 2000-word sentence among short ones: it is scored in a batch
    of its own, and the batches of the others stay within the cell
    budget."""
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, 3000, 3, 9)
    corpus.insert(1500, " ".join(rng.choice(WORDS, size=2000)))
    tokens = [normalize(s) for s in corpus]
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.2, p_repeat=0.1,
                     pool=WORDS, seed=2, target_wer=0.3)
    tracemalloc.start()
    try:
        result = calibrate(tokens, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _as_reference(result) == reference_calibrate(corpus, spec)
    assert peak < PEAK_BYTES
