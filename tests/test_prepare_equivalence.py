"""The fast paths of ``prepare`` against the code they replace: ``bleu``
counting n-grams as sorted integer keys, of sentences or of word-id rows,
against one ``Counter`` per sentence and order, the channel run over a
whole corpus as array ops per token position against the channel driven
by one fresh ``default_rng`` per sentence, the start states computed in
one vectorized pass against ``default_rng``, the clean corpus normalized
once per dataset, and ``calibrate``'s array passes against a bisection
whose passes corrupt and score one sentence at a time."""

import hashlib
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from denoiseclf import data, metrics, noise, tokenizer
from denoiseclf.data import make_dataset, split_corpus, synthetic_corpus
from denoiseclf.metrics import bleu, corpus_wer
from denoiseclf.errors import CalibrationError, ConfigError, DataError
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
    # a pool of one word, or of two where a token is one of them, makes
    # no draw
    "one-word-pool": NoiseSpec(p_substitute=0.6, p_repeat=0.2,
                               pool=("cat",), seed=12),
    "two-word-pool": NoiseSpec(p_substitute=0.6, p_casual=0.2,
                               pool=("a", "b"), seed=13),
}


def reference_channel(sentence, spec, index=0):
    """The channel as it was written before: one fresh
    ``default_rng((spec.seed, index))`` per sentence, called once per
    category draw and once per substitution or stretch. Each token's
    category and the word it became, None if deleted."""
    rng = np.random.default_rng((spec.seed, index))
    thresholds = np.cumsum(spec.probabilities()).tolist()
    out = []
    for token in normalize(sentence):
        category = bisect_right(thresholds, rng.random())
        word = token
        if category == 0:
            word = None
        elif category == 1 and spec.pool:
            choices = [w for w in spec.pool if w != token] or list(spec.pool)
            word = choices[int(rng.integers(len(choices)))]
        elif category == 2:
            word = token + token[-1] * int(rng.integers(2, 6))
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
    ``LANE_WORDS`` words, which take the scalar path."""
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, 40, 0, 12) + ["?!", "", "... the cat"]
    corpus[7] = " ".join(["the cat sat"] * 30)
    corpus[20] = " ".join(rng.choice(WORDS, size=65))
    return corpus


class TestCorruptCorpusReplay:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_one_fresh_generator_per_sentence(self, name):
        spec = SPECS[name]
        corpus = _corpus(21)
        want = [reference_corrupt(s, spec, i) for i, s in enumerate(corpus)]
        assert [corrupt(s, spec, i) for i, s in enumerate(corpus)] == want
        assert corrupt_corpus(corpus, spec) == want
        # the streams and tables depend only on the seed and the pool, so
        # a rescaled spec runs on them
        tokens = [normalize(s) for s in corpus]
        scaled = noise._scaled(spec, 0.5)
        run = noise._Run(noise._Interned(tokens, spec), scaled)
        assert _joined(run.written()[0]) == corrupt_corpus(corpus, scaled) \
            == [reference_corrupt(s, scaled, i) for i, s in enumerate(corpus)]

    def test_blocks_hold_one_output_per_token_and_half_per_integer(self):
        tokens = [["a"] * n for n in (0, 1, 2, 7)]
        blocks = noise._Interned(tokens, NoiseSpec(seed=4))
        assert blocks.offsets == [0, 0, 2, 5, 16]
        assert blocks.raw.dtype == np.uint64
        for i, (a, b) in enumerate(zip(blocks.offsets, blocks.offsets[1:])):
            pcg = np.random.default_rng((4, i)).bit_generator
            assert blocks.raw[a:b].tolist() == \
                pcg.random_raw(b - a).tolist()

    @pytest.mark.parametrize("word", ["cat", "the"])
    def test_a_rejected_substitution_takes_the_scalar_path(
            self, monkeypatch, word):
        # Lemire's method rejects a low product below 2**32 % n, under
        # 1e-8 per draw here; a limit of 2**32 rejects every draw, so each
        # sentence that substitutes ``word`` takes its row from the scalar
        # path, categories included. A skip of 0 makes the lanes' own
        # substitute for ``word`` wrong, so only that row is right.
        spec = SPECS["all-five"]
        corpus = random_corpus(np.random.default_rng(23), 40, 0, 12)
        tokens = [normalize(s) for s in corpus]
        interned = noise._Interned(tokens, spec)
        interned.limits[1, interned.words.index(word)] = 2**32
        interned.skip[interned.words.index(word)] = 0
        rejected = [i for i, sentence in enumerate(corpus)
                    if any(c == 1 and t == word for (c, _), t in zip(
                        reference_channel(sentence, spec, i), tokens[i]))]
        assert 0 < len(rejected) < len(corpus)
        scalar = _counting(monkeypatch, noise, "_corrupt_tokens")
        run = noise._Run(interned, spec)
        assert [args[0] for args in scalar] == [tokens[i] for i in rejected]
        noisy, counts = run.written()
        assert _joined(noisy) == [reference_corrupt(s, spec, i)
                                  for i, s in enumerate(corpus)]
        assert counts == reference_counts(corpus, spec)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_counts_are_the_reference_channel_counts(self, name):
        spec = SPECS[name]
        corpus = [s for s in _corpus(22) if normalize(s)]
        draws, changed = Counter(), Counter()
        for i, sentence in enumerate(corpus):
            pairs = reference_channel(sentence, spec, i)
            draws.update(c for c, _ in pairs)
            changed.update(c for (c, w), t in zip(pairs, normalize(sentence))
                           if w != t)
        assert calibrate(corpus, spec).counts == {
            "tokens": sum(draws.values())} | {
            f"{name}_{kind}": counter[c]
            for c, name in enumerate(noise.CATEGORIES)
            for kind, counter in (("draws", draws), ("changed", changed))}


def _joined(tokens):
    """Each noisy sentence's tokens as the sentence ``corrupt`` writes."""
    return [" ".join(t) for t in tokens]


def _lane_run(monkeypatch, corpus, spec):
    """The noisy sentences of the lane pass over ``corpus``, once no
    sentence of it has taken the scalar path, and every sentence as the
    reference channel writes it."""
    tokens = [normalize(s) for s in corpus]
    with monkeypatch.context() as patch:
        scalar = _counting(patch, noise, "_corrupt_tokens")
        run = noise._Run(noise._Interned(tokens, spec), spec)
    assert scalar == []
    return (_joined(run.written()[0]),
            [reference_corrupt(s, spec, i) for i, s in enumerate(corpus)])


class TestLaneDraws:
    """The lane pass reads each substitution and stretch draw as
    ``np.random.Generator.integers`` does, over every range a pool gives,
    from the low half of an output or the high half kept from the one
    before, and leaves no sentence to the scalar path."""

    @pytest.mark.parametrize("seed", [0, 17, 101])
    @pytest.mark.parametrize("size", [2, 3, 4, 7, 45, 300])
    def test_each_pool_size_matches_the_generator(self, monkeypatch, size,
                                                  seed):
        # a token in the pool draws over the size - 1 other words, one
        # outside it over all of them; stretches between substitutions
        # move a sentence's next draw between halves
        pool = tuple(f"w{i}" for i in range(size))
        spec = NoiseSpec(p_substitute=0.5, p_repeat=0.3, pool=pool,
                         seed=seed)
        corpus = random_corpus(np.random.default_rng(size), 40, 0,
                               noise.LANE_WORDS, WORDS + pool[:3])
        noisy, want = _lane_run(monkeypatch, corpus, spec)
        assert noisy == want
        assert [corrupt(s, spec, i) for i, s in enumerate(corpus)] == want
        drawn = Counter((c, t in pool) for i, s in enumerate(corpus)
                        for (c, _), t in zip(reference_channel(s, spec, i),
                                             normalize(s)))
        assert {(1, True), (1, False), (2, True), (2, False)} <= set(drawn)

    @pytest.mark.parametrize("seed", [0, 17, 101])
    def test_stretches_in_either_half_match_the_generator(self, monkeypatch,
                                                          seed):
        # every token stretches, so token j of a sentence draws from the
        # low half of an output when j is even and the high half when odd
        spec = NoiseSpec(p_repeat=1.0, seed=seed)
        corpus = random_corpus(np.random.default_rng(seed), 40, 0,
                               noise.LANE_WORDS)
        noisy, want = _lane_run(monkeypatch, corpus, spec)
        assert noisy == want
        extra = {len(w) - len(t) for clean, noisy in zip(corpus, want)
                 for t, w in zip(normalize(clean), noisy.split())}
        assert extra == {2, 3, 4, 5}


def _wide(limbs):
    """Each lane's 128-bit value of ``(hi, lo)`` uint64 limb arrays."""
    hi, lo = limbs
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


class TestStartStates:
    @pytest.mark.parametrize("n", [0, 1, 600])
    @pytest.mark.parametrize("seed", [0, 7, 101, 2**32 - 1, 2**32,
                                      2**64 + 3, 2**128 + 9])
    def test_match_default_rng(self, seed, n):
        want = [np.random.default_rng((seed, i)).bit_generator.state["state"]
                for i in range(n)]
        state, inc = _start_states(NoiseSpec(seed=seed), n)
        assert _wide(state) == [pcg["state"] for pcg in want]
        assert _wide(inc) == [pcg["inc"] for pcg in want]

    def test_negative_seed_is_refused(self):
        # numpy refuses it, and the spec refuses it before any stream starts
        with pytest.raises(ValueError):
            np.random.default_rng((-1, 0))
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            NoiseSpec(seed=-1)


_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# 0, 1 and the limb boundaries, and values whose low halves carry into the
# high half when added or multiplied
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1,
          2**96 - 1, 2**127, 2**128 - 1, 2**128 - 2**64, (2**64 - 1) << 32,
          0x2360ED051FC65DA44385DF649FCCF645]


def _limbs(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _operand_pairs(seed):
    """Every pair of edge values, then seeded random 128-bit pairs."""
    rng = np.random.default_rng(seed)
    drawn = [int(hi) << 64 | int(lo) for hi, lo in
             rng.integers(0, 2**64, size=(400, 2), dtype=np.uint64)]
    pairs = [(a, b) for a in _EDGES for b in _EDGES]
    return pairs + list(zip(drawn[::2], drawn[1::2]))


class TestLimbArithmetic:
    """The 128-bit helpers on ``(hi, lo)`` uint64 limbs against Python ints
    mod 2**128."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_product_of_low_limbs_is_exact(self, seed):
        # below 2**128, so no high bit of the 64 x 64-bit product is lost
        pairs = [(a & _MASK64, b & _MASK64) for a, b in _operand_pairs(seed)]
        a, b = _limbs([a for a, _ in pairs]), _limbs([b for _, b in pairs])
        assert _wide(noise._mul128(*a, *b)) == [x * y for x, y in pairs]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mul128_and_add128_wrap_mod_2_128(self, seed):
        pairs = _operand_pairs(seed)
        a, b = _limbs([a for a, _ in pairs]), _limbs([b for _, b in pairs])
        assert _wide(noise._mul128(*a, *b)) == \
            [x * y & _MASK128 for x, y in pairs]
        assert _wide(noise._add128(*a, *b)) == \
            [x + y & _MASK128 for x, y in pairs]

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3, 2**128 + 9])
    def test_blocks_are_random_raw(self, seed):
        # lanes out of size order, so the open lanes are a prefix only once
        # sorted
        sizes = [11, 0, 96, 1, 2, 11, 0, 96]
        offsets = np.array([0, *accumulate(sizes)], dtype=np.int64)
        raw = noise._raw_blocks(*_start_states(NoiseSpec(seed=seed),
                                               len(sizes)), offsets)
        assert raw.dtype == np.uint64 and len(raw) == sum(sizes)
        for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
            pcg = np.random.default_rng((seed, i)).bit_generator
            assert raw[a:b].tolist() == pcg.random_raw(b - a).tolist()


def test_a_sentence_over_lane_words_draws_no_block():
    """Only the scalar path runs a sentence over ``LANE_WORDS`` words (a
    batch that wide runs whole on it), so it gets an empty block."""
    lengths = [3, 65, 7, 0, 64, 130, 2]
    rng = np.random.default_rng(12)
    corpus = [" ".join(rng.choice(WORDS, size=n)) for n in lengths]
    spec = SPECS["all-five"]
    interned = noise._Interned([normalize(s) for s in corpus], spec)
    assert interned.offsets == [0, 5, 5, 16, 16, 112, 112, 115]
    for i, (a, b) in enumerate(zip(interned.offsets, interned.offsets[1:])):
        pcg = np.random.default_rng((spec.seed, i)).bit_generator
        assert interned.raw[a:b].tolist() == pcg.random_raw(b - a).tolist()
    assert corrupt_corpus(corpus, spec) == \
        [corrupt(s, spec, i) for i, s in enumerate(corpus)]


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
    """``calibrate`` as it was written before passes stopped early: every
    pass runs the channel one sentence at a time (``reference_corrupt``)
    and scores each sentence with the Python-int ``edit_distance``."""
    target = spec.target_wer
    corpus = [normalize(s) for s in corpus]

    def run_pass(s):
        noisy = [reference_corrupt(" ".join(tokens), s, i)
                 for i, tokens in enumerate(corpus)]
        return s, noisy, metrics.pooled_and_mean(corpus, [
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
    best_wer = run_pass(noise._scaled(spec, hi))[2][0]
    if best_wer < target - noise.WER_TOLERANCE:
        raise CalibrationError(target, best_wer)
    for _ in range(noise.MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        result = run_pass(noise._scaled(spec, mid))
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
    seed 101 the bisection takes the top-scale pass and three more, and no
    draw there is rejected, so no sentence takes the scalar path."""
    train, test, spec = _prepare_inputs()
    passes = _counting(monkeypatch, noise, "_calibration_pass")
    scalar = _counting(monkeypatch, noise, "_corrupt_tokens")
    make_dataset(train, test, spec, tmp_path)
    assert len(passes) == 4
    assert scalar == []


# the first 16 hex digits of each seed's digest; the channel driven one
# sentence at a time writes the same bytes
PREPARE_DIGESTS = [
    "9cc58b66d83614b8", "c6a8f4a09d124197", "187e9522d538d790",
    "226be4d203453589", "2f891f2f60f076da", "1a59e8950f83b9cc",
    "19b8a1ecd66116be", "3041eeafe4ef4606", "3bb4a2824f867620",
    "23cdce5d1a729899"]


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


# the short sentences alone peak at about 2.6 MB and the long one adds about
# 0.2 MB; one int64 array of 3001 x 2000 cells would take 48 MB
PEAK_BYTES = 4_000_000


def test_a_long_sentence_keeps_the_pass_small():
    """One 2000-word sentence among short ones: it takes the scalar path,
    and the batches of the others stay within the cell budget."""
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
