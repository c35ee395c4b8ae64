import sys
from dataclasses import replace

import numpy as np
import pytest

from denoiseclf import data, metrics, noise
from denoiseclf.data import (LabelError, PairedExample, ParseError,
                             atomic_write_text, config_lines, format_config,
                             load_corpus, make_dataset,
                             sentences_of, split_corpus, synthetic_corpus)
from denoiseclf.errors import ConfigError, DataError
from denoiseclf.metrics import corpus_wer, ibleu
from denoiseclf.noise import NoiseSpec, pool_of
from denoiseclf.tokenizer import normalize


class TestLoadCorpus:
    def test_paired_train_split(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("0\tgood nite\tgood night\n1\tbad day\n")
        examples = load_corpus(path, split="train")
        assert examples[0] == PairedExample(0, "good nite", "good night")
        assert examples[1] == PairedExample(1, "bad day", None)
        assert sentences_of(examples) == ["good nite", "bad day",
                                          "good night"]

    def test_test_split_drops_complete_column(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_text("0\tgood nite\tgood night\n")
        examples = load_corpus(path, split="test")
        assert examples[0].complete is None

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tok fine\n\n1\tbad day\n")
        assert len(load_corpus(path)) == 2

    def test_missing_column_reports_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tok fine\njustoneword\n")
        with pytest.raises(ParseError, match=":2:"):
            load_corpus(path)

    @pytest.mark.parametrize("payload,line", [
        (b"0\tbad \xff\n", 1),
        (b"0\tok fine\r\n\n1\tcaf\xe9 au lait\n", 3),
        (b"0\tok fine\n1\tend \xe2\x82", 2),   # cut inside a character
    ], ids=["first", "after-crlf-and-blank", "truncated"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path,
                                                    payload, line):
        path = tmp_path / "c.tsv"
        path.write_bytes(payload)
        with pytest.raises(ParseError, match=f"c.tsv:{line}: not UTF-8: "):
            load_corpus(path)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_a_fourth_column_reports_line_number(self, tmp_path, split):
        path = tmp_path / "c.tsv"
        path.write_text("0\tok fine\tok fine\n1\tbad day\tbad day\textra\n")
        with pytest.raises(ParseError, match=":2: .*got 4 columns"):
            load_corpus(path, split=split)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("pos\tok fine\n")
        with pytest.raises(ParseError, match="not an integer"):
            load_corpus(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("5\tok fine\n")
        with pytest.raises(LabelError):
            load_corpus(path, num_classes=2)

    def test_empty_sentence_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\t...\n")
        with pytest.raises(ParseError, match="empty"):
            load_corpus(path)

    def test_empty_complete_sentence_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tok fine\n0\tok fine\t?!\n")
        with pytest.raises(ParseError, match=":2: complete sentence is empty"):
            load_corpus(path)
        # a test split drops the column unread
        assert load_corpus(path, split="test")[1].complete is None

    def test_an_empty_file_has_no_rows(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"")
        assert load_corpus(path) == []

    def test_invalid_split(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\tok fine\n")
        with pytest.raises(ValueError):
            load_corpus(path, split="dev")


class TestAtomicWrite:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("write", [
        lambda path: data.atomic_write_text(path, "0\ta b\ta c\n"),
        lambda path: data.atomic_write_bytes(path, b"new\n"),
    ], ids=["data.atomic_write_text", "data.atomic_write_bytes"])
    def test_failed_write_keeps_the_old_file(self, write, tmp_path,
                                             monkeypatch):
        path = tmp_path / "table.tsv"
        path.write_text("old\n")

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(data.os, "replace", crash)
        with pytest.raises(OSError):
            write(path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]


def written_column(out_dir):
    """The incomplete column of ``train.tsv``, then of ``test.tsv``."""
    return [ex.incomplete for ex in
            load_corpus(out_dir / "train.tsv", split="train")
            + load_corpus(out_dir / "test.tsv", split="test")]


# specs for a corpus of seed s: with and without a target, over every
# category, and one that empties many sentences
DATASET_SPECS = {
    "calibrated": lambda s, pool: NoiseSpec(
        p_delete=0.1, p_substitute=0.1, pool=("zz", "qq", "xx"), seed=s,
        target_wer=0.25),
    "all-five": lambda s, pool: NoiseSpec(
        p_delete=0.1, p_substitute=0.2, p_repeat=0.1, p_abbreviate=0.1,
        p_casual=0.2, pool=pool, seed=s),
    "calibrated-casual": lambda s, pool: NoiseSpec(
        p_substitute=0.2, p_casual=0.3, pool=pool, seed=s, target_wer=0.4),
    "emptying": lambda s, pool: NoiseSpec(p_delete=0.8, p_repeat=0.1,
                                          seed=s),
}


class TestMakeDataset:
    def make(self, tmp_path, seed=0, target=0.25):
        corpus = synthetic_corpus(30, num_classes=2, seed=seed)
        train, test = split_corpus(corpus, test_fraction=0.2, seed=seed)
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1,
                         pool=("zz", "qq", "xx"), seed=seed,
                         target_wer=target)
        return train, test, make_dataset(train, test, spec, tmp_path)

    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_manifest_ibleu_is_the_written_columns(self, tmp_path, seed,
                                                    name):
        corpus = synthetic_corpus(30, num_classes=2, seed=seed)
        # one sentence wider than a lane
        corpus.append((1, " ".join(s for _, s in corpus[:10])))
        train, test = split_corpus(corpus, test_fraction=0.2, seed=seed)
        spec = DATASET_SPECS[name](seed, pool_of(s for _, s in corpus))
        manifest = make_dataset(train, test, spec, tmp_path)
        clean = [s for _, s in train + test]
        assert manifest["ibleu"] == ibleu(clean, written_column(tmp_path))

    def test_outputs_and_manifest(self, tmp_path):
        train, test, manifest = self.make(tmp_path)
        assert (tmp_path / "train.tsv").exists()
        assert (tmp_path / "test.tsv").exists()
        assert manifest["train_size"] == len(train)
        assert manifest["test_size"] == len(test)
        assert abs(manifest["wer_pooled"] - 0.25) <= 0.05
        assert 0.0 < manifest["ibleu"] <= 1.0
        on_disk = config_lines(tmp_path / "manifest.txt")
        assert float(on_disk["wer_pooled"][1]) == manifest["wer_pooled"]

    def test_train_pairs_noisy_with_clean(self, tmp_path):
        self.make(tmp_path)
        examples = load_corpus(tmp_path / "train.tsv", split="train")
        assert all(ex.complete is not None for ex in examples)
        assert any(ex.incomplete != ex.complete for ex in examples)

    def test_test_split_has_no_clean_column(self, tmp_path):
        self.make(tmp_path)
        raw = (tmp_path / "test.tsv").read_text()
        assert all(line.count("\t") == 1
                   for line in raw.splitlines() if line)

    def test_each_calibration_pass_corrupts_and_scores_once(
            self, tmp_path, monkeypatch):
        events, thresholds = [], []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                events.append(name)
                if name == "_calibration_pass":
                    thresholds.append(args[1])
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        # a pass corrupts and scores each sentence itself; make_dataset
        # neither corrupts nor scores the corpus again
        spy(data, "corpus_wer")
        spy(noise, "corrupt_corpus")
        spy(noise, "_calibration_pass")
        # the corpus is interned once, for the passes, and iBLEU reads the
        # last pass's ids: no metric interns it again
        interned = []
        for module in (noise, metrics):
            def word_ids(*args, original=module.word_ids):
                caller = sys._getframe(1).f_locals.get("self")
                interned.append(type(caller).__name__)
                return original(*args)
            monkeypatch.setattr(module, "word_ids", word_ids)
        calibrate = data.calibrate

        def calibrate_spy(*args, **kwargs):
            events.append("calibrate")
            result = calibrate(*args, **kwargs)
            events.append("returned")
            return result

        monkeypatch.setattr(data, "calibrate", calibrate_spy)
        train, test, manifest = self.make(tmp_path)
        passes = len(thresholds)
        assert passes >= 3
        assert events == (["calibrate"] + ["_calibration_pass"] * passes
                          + ["returned"])
        # every pass tries a new scale; the last one is the written spec,
        # whose first threshold is its deletion probability
        assert len({tuple(t[:2]) for t in thresholds}) == passes
        assert thresholds[-1][0] == manifest["p_delete"]
        channel = config_lines(tmp_path / "channel.txt")
        assert channel["emptied_written_clean"][1] == "0"
        assert interned == ["_Interned"]
        # the manifest's WER is the WER of the pair on disk
        noisy = written_column(tmp_path)
        clean = [s for _, s in train] + [s for _, s in test]
        assert corpus_wer(clean, noisy) == (manifest["wer_pooled"],
                                            manifest["wer_mean"])

    def test_emptied_sentences_are_written_clean_and_scored_as_written(
            self, tmp_path):
        words = ["Cat!", "dog", "Bird.", "fish", "Owl,", "ant"]
        train = [(i % 2, w) for i, w in enumerate(words)]
        test = [(0, "The Cat sat on the mat."), (1, "Dogs run fast")]
        spec = NoiseSpec(p_delete=0.5, seed=0)
        clean = [normalize(s) for _, s in train + test]
        raw = noise.corrupt_corpus(clean, spec)
        emptied = [i for i, s in enumerate(raw) if not s.split()]
        assert 0 < len(emptied) < len(raw)  # the case mixes both kinds
        manifest = make_dataset(train, test, spec, tmp_path)
        noisy = written_column(tmp_path)
        assert noisy == [" ".join(clean[i]) if i in emptied else s
                         for i, s in enumerate(raw)]
        assert corpus_wer(clean, noisy) == (manifest["wer_pooled"],
                                            manifest["wer_mean"])
        assert manifest["ibleu"] == ibleu(clean, noisy)

    def test_deterministic_regeneration(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        self.make(dir_a, seed=3)
        self.make(dir_b, seed=3)
        assert (dir_a / "train.tsv").read_bytes() == \
            (dir_b / "train.tsv").read_bytes()
        assert (dir_a / "test.tsv").read_bytes() == \
            (dir_b / "test.tsv").read_bytes()
        assert (dir_a / "manifest.txt").read_bytes() == \
            (dir_b / "manifest.txt").read_bytes()


# clean train sentences the complete column keeps raw: capitals,
# punctuation, apostrophes, non-ASCII text, spaces at either end, and
# one-word sentences that a deletion empties
RAW_SENTENCES = ["Don't STOP, it's fine!", "Café au lait… très bon",
                 "  We'll see,  she said. ", "Naïve résumé: über 5 o'clock?",
                 "¿Qué tal? Muy bien", "It's the dog's bone.", "Hi!",
                 "Yes.", "No", "OK?", "Bye…", "Oui", "Ja!", "Wow"]


def per_example_splits(train_clean, test_clean, spec, manifest):
    """``train.tsv`` and ``test.tsv`` as one ``PairedExample`` per sentence
    formatted line by line, with the noisy column ``corrupt_corpus`` writes
    at the manifest's probabilities and an emptied sentence written clean,
    and the two lists of examples."""
    final = replace(spec, p_delete=manifest["p_delete"],
                    p_substitute=manifest["p_substitute"], target_wer=None)
    clean = [normalize(s) for _, s in train_clean + test_clean]
    noisy = [line or " ".join(tokens) for line, tokens
             in zip(noise.corrupt_corpus(clean, final), clean)]
    train = [PairedExample(label, noisy[i], s)
             for i, (label, s) in enumerate(train_clean)]
    test = [PairedExample(label, noisy[i])
            for i, (label, _) in enumerate(test_clean, len(train_clean))]
    files = tuple("".join(
        f"{ex.label}\t{ex.incomplete}"
        + ("" if ex.complete is None else f"\t{ex.complete}") + "\n"
        for ex in split).encode() for split in (train, test))
    return files, train, test


class TestWrittenSplits:
    @pytest.mark.parametrize("target", [None, 0.3], ids=["one-pass",
                                                         "calibrated"])
    def test_splits_match_the_per_example_writer(self, tmp_path, target):
        corpus = synthetic_corpus(20, num_classes=3, seed=5)
        # numpy-integer labels; a test sentence is written as its noisy
        # tokens only, so a tab or line boundary in it is no row break
        train = [(np.int64(label), s) for label, s in
                 corpus[:40] + [(i % 3, s) for i, s in
                                enumerate(RAW_SENTENCES)]]
        test = [(np.int64(label), s) for label, s in
                corpus[40:] + [(2, "a tab\there and\na line break")]]
        spec = NoiseSpec(p_delete=0.3, p_substitute=0.1, p_repeat=0.05,
                         p_abbreviate=0.1, p_casual=0.1,
                         pool=pool_of(s for _, s in train + test), seed=2,
                         target_wer=target)
        manifest = make_dataset(train, test, spec, tmp_path)
        channel = config_lines(tmp_path / "channel.txt")
        assert int(channel["emptied_written_clean"][1]) > 0
        files, train_rows, test_rows = per_example_splits(train, test, spec,
                                                          manifest)
        assert ((tmp_path / "train.tsv").read_bytes(),
                (tmp_path / "test.tsv").read_bytes()) == files
        # read back: one row per sentence, with the columns written
        assert manifest["train_size"] == len(train)
        assert manifest["test_size"] == len(test)
        assert load_corpus(tmp_path / "train.tsv") == train_rows
        assert load_corpus(tmp_path / "test.tsv", split="test") == test_rows

    @pytest.mark.parametrize("separator", list(
        "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_a_row_break_in_a_clean_train_sentence_is_refused(
            self, tmp_path, separator):
        train = synthetic_corpus(10, num_classes=2, seed=1)
        test = train[15:]
        train = train[:15]
        train[7] = (1, f"good day to you{separator}1\tbad bad day")
        out = tmp_path / "data"
        with pytest.raises(DataError, match=r"^clean train sentence 7 holds "
                           r"a tab or line boundary: 'good day to you"):
            make_dataset(train, test, NoiseSpec(p_delete=0.1, seed=0), out)
        assert not out.exists()

    @pytest.mark.parametrize("separator", ["\n", "\r\n", "\t", "\u2029"])
    def test_a_row_break_ending_the_last_train_sentence_is_refused(
            self, tmp_path, separator):
        # the joined column then ends in it too, as its only boundary
        train = synthetic_corpus(10, num_classes=2, seed=1)
        test = train[15:]
        train = train[:15]
        train[14] = (1, f"good day{separator}")
        out = tmp_path / "data"
        with pytest.raises(DataError, match="^clean train sentence 14 "):
            make_dataset(train, test, NoiseSpec(p_delete=0.1, seed=0), out)
        assert not out.exists()


class TestSplitCorpus:
    def test_partition(self):
        corpus = synthetic_corpus(20, seed=1)
        train, test = split_corpus(corpus, 0.25, seed=2)
        assert len(train) + len(test) == len(corpus)
        assert len(test) == round(0.25 * len(corpus))
        assert sorted(train + test) == sorted(corpus)

    def test_seed_determinism(self):
        corpus = synthetic_corpus(20, seed=1)
        assert split_corpus(corpus, 0.2, seed=5) == \
            split_corpus(corpus, 0.2, seed=5)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_corpus([(0, "a b")], 1.5, seed=0)

    @pytest.mark.parametrize("corpus", [[], [(0, "a b")], [(0, "a"), (1, "b")]],
                             ids=["empty", "one", "two"])
    def test_no_training_sentence_is_a_data_error(self, corpus):
        # 0.75 of two sentences rounds to both
        with pytest.raises(DataError):
            split_corpus(corpus, 0.75, seed=0)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        mapping = {"hidden_size": "64", "phase1_lr": "0.001", "mode": "stacked"}
        path = tmp_path / "run.cfg"
        atomic_write_text(path, format_config(mapping))
        assert config_lines(path) == {key: (i, value) for i, (key, value)
                                      in enumerate(mapping.items(), start=1)}

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed = 7\n")
        assert config_lines(path) == {"seed": (3, "7")}

    def test_a_key_set_twice_names_its_second_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("hidden_size = 16\n# again\nhidden_size = 32\n")
        with pytest.raises(ParseError,
                           match=":3: key 'hidden_size' is already set on "
                           "line 1"):
            config_lines(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 7\n")
        with pytest.raises(ParseError, match=":1:"):
            config_lines(path)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 7\n# caf\xe9\n")
        with pytest.raises(ParseError, match=r"run.cfg:2: not UTF-8: "
                           r"invalid continuation byte 0xe9"):
            config_lines(path)


class TestSyntheticCorpus:
    def test_balanced_and_seeded(self):
        corpus = synthetic_corpus(25, num_classes=3, seed=4)
        labels = [label for label, _ in corpus]
        assert all(labels.count(c) == 25 for c in range(3))
        assert corpus == synthetic_corpus(25, num_classes=3, seed=4)

    def test_class_signal_present(self):
        # indicative words must separate the classes on raw token overlap
        from denoiseclf.data import _CLASS_WORDS
        corpus = synthetic_corpus(50, num_classes=2, seed=5)
        for label, sentence in corpus:
            own = sum(w in _CLASS_WORDS[label] for w in sentence.split())
            other = sum(w in _CLASS_WORDS[1 - label]
                        for w in sentence.split())
            assert own >= 2 and other == 0

    def test_too_many_classes(self):
        with pytest.raises(ValueError):
            synthetic_corpus(5, num_classes=9)

    @pytest.mark.parametrize("args,message", [
        ((-3,), "synthetic sentences per class must be >= 0, got -3"),
        ((5, 0), "synthetic classes must be >= 1, got 0"),
        ((5, -2), "synthetic classes must be >= 1, got -2"),
    ])
    def test_negative_sizes_are_refused(self, args, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            synthetic_corpus(*args)

    def test_zero_per_class_is_empty(self):
        assert synthetic_corpus(0, num_classes=3) == []
