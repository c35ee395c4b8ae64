import random

import pytest

from denoiseclf.tokenizer import (CLS_ID, PAD_ID, RESERVED, SEP_ID, UNK_ID,
                                  ConfigError, DataError, Vocabulary,
                                  build_vocab, encode, normalize)


class TestBuildVocab:
    def test_every_word_kept(self):
        vocab = build_vocab(["a b", "a"])
        assert set(vocab.token_to_id) - set(RESERVED) == {"a", "b"}
        assert len(vocab) == 6  # 2 words + 4 reserved

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            build_vocab([])

    def test_stable_under_shuffle(self):
        corpus = [f"word{i} filler common" for i in range(20)]
        shuffled = corpus.copy()
        random.Random(7).shuffle(shuffled)
        assert build_vocab(corpus).token_to_id == \
            build_vocab(shuffled).token_to_id

    def test_reserved_ids_never_reassigned(self):
        vocab = build_vocab(["hello world"])
        assert vocab.token_to_id["[PAD]"] == PAD_ID
        assert vocab.token_to_id["[UNK]"] == UNK_ID
        assert vocab.token_to_id["[CLS]"] == CLS_ID
        assert vocab.token_to_id["[SEP]"] == SEP_ID


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize("How, to GET there?") == ["how", "to", "get", "there"]

    def test_keeps_inner_apostrophes(self):
        assert normalize("I don't know") == ["i", "don't", "know"]


class TestEncode:
    def test_definitional_example(self):
        vocab = build_vocab(["good night"])
        seq = encode("Good night", vocab, max_len=6)
        good, night = vocab.id_of("good"), vocab.id_of("night")
        assert seq.token_ids == (CLS_ID, good, night, SEP_ID, PAD_ID, PAD_ID)
        assert seq.attention_mask == (1, 1, 1, 1, 0, 0)
        assert len(seq.token_ids) == 6

    def test_empty_sentence(self):
        vocab = build_vocab(["x"])
        seq = encode("", vocab, max_len=4)
        assert seq.token_ids == (CLS_ID, SEP_ID, PAD_ID, PAD_ID)

    def test_truncation(self):
        vocab = build_vocab(["a b c d e f g h i j"])
        seq = encode("a b c d e f g h i j", vocab, max_len=8)
        assert sum(1 for t in seq.token_ids
                   if t not in (CLS_ID, SEP_ID, PAD_ID)) == 6
        assert seq.token_ids[7] == SEP_ID

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(["known words"])
        seq = encode("unknown words", vocab, max_len=6)
        assert seq.token_ids[1] == UNK_ID

    def test_max_len_too_small(self):
        with pytest.raises(ConfigError):
            encode("x", build_vocab(["x"]), max_len=2)


class TestInvariantsAndRoundTrip:
    def test_round_trip(self):
        vocab = build_vocab(["the quick brown fox", "jumps over the dog"])
        sentence = "The quick DOG jumps!"
        seq = encode(sentence, vocab, max_len=10)
        token_of = {i: t for t, i in vocab.token_to_id.items()}
        content = [token_of[i] for i, m in zip(seq.token_ids,
                                               seq.attention_mask) if m]
        assert content == ["[CLS]", "the", "quick", "dog", "jumps", "[SEP]"]

    def test_segment_rule_on_random_encodings(self):
        corpus = [f"tok{i} tok{i+1} tok{i+2}" for i in range(50)]
        vocab = build_vocab(corpus)
        rng = random.Random(0)
        for _ in range(100):
            sentence = " ".join(rng.choices(
                [f"tok{i}" for i in range(52)], k=rng.randint(0, 12)))
            seq = encode(sentence, vocab, max_len=10)
            assert len(seq.token_ids) == len(seq.attention_mask) == 10
            sep = seq.token_ids.index(SEP_ID)
            for pos in range(10):
                # the mask is the segment id: 1 through [SEP], 0 after
                assert seq.attention_mask[pos] == (1 if pos <= sep else 0)
                assert seq.attention_mask[pos] == \
                    (1 if seq.token_ids[pos] != PAD_ID or pos <= sep else 0)
            assert seq.token_ids[0] == CLS_ID
            non_pad = [t for t, m in zip(seq.token_ids, seq.attention_mask)
                       if m]
            assert non_pad.count(SEP_ID) == 1


class TestSerialization:
    def test_tsv_round_trip(self):
        vocab = build_vocab(["alpha beta gamma"])
        text = vocab.to_lines()
        assert text.splitlines()[0] == "[PAD]\t0"  # reserved tokens first
        assert Vocabulary.from_lines(text).token_to_id == vocab.token_to_id
