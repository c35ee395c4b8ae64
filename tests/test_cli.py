"""End-to-end command-line tests: prepare -> train -> eval -> report on a
tiny synthetic dataset, plus exit-code and precedence behaviour."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from functools import partial

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from denoiseclf import cli
from denoiseclf.checkpoint import (_config_from_dict, load_checkpoint,
                                   save_checkpoint)
from denoiseclf.cli import main
from denoiseclf.data import config_lines, load_corpus, make_dataset
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.gradcheck import CheckResult
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.noise import pool_of
from denoiseclf.tokenizer import Vocabulary, build_vocab, normalize
from denoiseclf.train import TrainConfig

PREPARE = ["prepare", "--target-wer", "0.25", "--synthetic-per-class", "20",
           "--seed", "3"]

TRAIN_FAST = ["--hidden-size", "16", "--seq-len", "12", "--num-layers", "1",
              "--num-heads", "2", "--phase1-epochs", "5",
              "--phase2-epochs", "2", "--batch-size", "8",
              "--phase2-lr", "0.005", "--seed", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One prepared dataset + trained checkpoint shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(PREPARE + ["--outdir", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--train", str(data / "train.tsv"),
                 "--outdir", str(run)] + TRAIN_FAST) == 0
    return root


class TestPrepare:
    def test_outputs(self, workspace):
        data = workspace / "data"
        assert (data / "train.tsv").exists()
        assert (data / "test.tsv").exists()
        manifest = config_lines(data / "manifest.txt")
        assert abs(float(manifest["wer_pooled"][1]) - 0.25) <= 0.05
        train = load_corpus(data / "train.tsv", split="train")
        assert all(ex.complete is not None for ex in train)

    def test_byte_identical_regeneration(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main(PREPARE + ["--outdir", str(again)]) == 0
        for name in ("train.tsv", "test.tsv", "manifest.txt"):
            assert (again / name).read_bytes() == \
                (workspace / "data" / name).read_bytes()

    def test_custom_input_corpus(self, tmp_path):
        src = tmp_path / "clean.tsv"
        lines = [f"{i % 2}\talpha beta gamma delta epsilon zeta eta theta"
                 for i in range(20)]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(src), "--outdir", str(out),
                     "--target-wer", "0.3", "--seed", "1"]) == 0
        assert (out / "train.tsv").exists()
        # mixed case and punctuation: the substitution pool holds normalized
        # words, so every token is replaced by another word, never by
        # itself in another form or with punctuation attached
        src.write_text("0\tThe cat sat.\n1\tThe Cat sat!\n"
                       "0\tDogs run, cats sit.\n" * 4)
        out = tmp_path / "out-mixed"
        assert main(["prepare", "--input", str(src), "--outdir", str(out),
                     "--p-substitute", "1", "--p-delete", "0",
                     "--p-repeat", "0", "--p-abbreviate", "0",
                     "--p-casual", "0", "--seed", "1"]) == 0
        rows = load_corpus(out / "train.tsv")
        assert rows
        for ex in rows:
            assert ex.incomplete == " ".join(normalize(ex.incomplete))
            assert all(a != b for a, b in zip(
                ex.incomplete.split(), normalize(ex.complete), strict=True))

    def test_input_pool_is_pool_of_the_clean_column(self, tmp_path,
                                                   monkeypatch):
        src = tmp_path / "clean.tsv"
        src.write_text("0\tThe cat sat.\n1\tThe Cat sat!\n"
                       "0\tDogs run, cats sit.\n1\tbirds FLY\n")
        specs = []

        def recording(train, test, spec, out_dir):
            specs.append(spec)
            return make_dataset(train, test, spec, out_dir)

        monkeypatch.setattr(cli, "make_dataset", recording)
        assert main(["prepare", "--input", str(src), "--outdir",
                     str(tmp_path / "out"), "--seed", "1"]) == 0
        clean = [ex.incomplete for ex in load_corpus(src)]
        assert [spec.pool for spec in specs] == [pool_of(clean)]
        assert specs[0].pool == ("birds", "cat", "cats", "dogs", "fly",
                                 "run", "sat", "sit", "the")

    def test_an_emptied_sentence_is_written_as_its_clean_tokens(
            self, tmp_path):
        src = tmp_path / "clean.tsv"
        src.write_text("0\tThe Cat sat!\n1\tDogs run, cats sit.\n"
                       "0\tA dog, a CAT.\n1\tBirds FLY high!\n")
        out = tmp_path / "out"
        assert main(["prepare", "--input", str(src), "--outdir", str(out),
                     "--p-delete", "1", "--p-substitute", "0",
                     "--p-repeat", "0", "--p-abbreviate", "0",
                     "--p-casual", "0", "--seed", "1"]) == 0
        clean = {" ".join(normalize(ex.incomplete))
                 for ex in load_corpus(src)}
        train = load_corpus(out / "train.tsv")
        test = load_corpus(out / "test.tsv", split="test")
        assert train and test
        for ex in train:
            assert ex.incomplete == " ".join(normalize(ex.complete))
        assert {ex.incomplete for ex in train + test} == clean
        manifest = config_lines(out / "manifest.txt")
        assert float(manifest["wer_pooled"][1]) == 0.0
        assert float(manifest["wer_mean"][1]) == 0.0
        assert float(manifest["ibleu"][1]) == 0.0

    def test_unreachable_target_exit_code(self, tmp_path):
        assert main(["prepare", "--target-wer", "1.9",
                     "--synthetic-per-class", "5", "--seed", "3",
                     "--outdir", str(tmp_path / "x")]) == 6

    def test_a_target_the_written_corpus_misses_exits_6(self, tmp_path,
                                                         capsys):
        # at seed 4, calibration reaches pooled WER 0.25 by emptying one of
        # the four one-word sentences; written clean, the corpus scores 0
        src = _file(tmp_path, "0\ta\n1\tb\n0\ta\n1\tb\n")
        out = tmp_path / "o"
        assert main(["prepare", "--input", src, "--target-wer", "0.3",
                     "--seed", "4", "--outdir", str(out)]) == 6
        assert capsys.readouterr().err == \
            "error: could not reach target WER 0.300; closest achieved 0.000\n"
        assert not out.exists()

    def test_channel_counts_show_an_abbreviation_that_changes_nothing(
            self, tmp_path):
        # no synthetic word has an abbreviation
        out = tmp_path / "o"
        assert main(["prepare", "--synthetic-per-class", "20", "--seed", "3",
                     "--p-delete", "0", "--p-substitute", "0",
                     "--p-repeat", "0", "--p-abbreviate", "0.5",
                     "--p-casual", "0", "--outdir", str(out)]) == 0
        counts = {key: int(value) for key, (_, value) in
                  config_lines(out / "channel.txt").items()}
        assert counts["tokens"] == 40 * 7
        assert counts["abbreviate_draws"] > 0
        assert counts["abbreviate_changed"] == 0
        assert counts["emptied_written_clean"] == 0
        assert sum(counts[f"{name}_draws"] for name in
                   ("delete", "substitute", "repeat", "casual")) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "channel.txt", "manifest.txt", "test.tsv", "train.tsv"]


    @pytest.mark.parametrize("argv,code,line", [
        (["--target-wer", "nan"], 8,
         "error: target WER must lie in (0, 2], got nan"),
        (["--synthetic-per-class", "0"], 5, "error: empty corpus"),
        (["--synthetic-per-class", "-3"], 8,
         "error: synthetic sentences per class must be >= 0, got -3"),
        (["--target-wer", "1.9", "--synthetic-per-class", "5", "--seed", "3"],
         6, "error: could not reach target WER 1.900; closest achieved 0.929"),
        (["--synthetic-per-class", "1", "--test-fraction", "0.75"], 5,
         "error: test fraction 0.75 holds out all 2 sentences and leaves "
         "none to train on"),
    ], ids=["nan-target", "empty-corpus", "negative-per-class",
            "unreachable-target", "empty-train-split"])
    def test_rejected_prepare_leaves_no_outdir(self, tmp_path, capsys, argv,
                                               code, line):
        out = tmp_path / "data"
        assert main(["prepare", "--outdir", str(out)] + argv) == code
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_a_row_break_in_a_clean_sentence_exits_5(self, tmp_path, capsys,
                                                    monkeypatch):
        # a file read by load_corpus holds none; a library corpus may
        monkeypatch.setattr(cli, "synthetic_corpus", lambda n, seed: [
            (i % 2, "good day\u2028to you") for i in range(8)])
        out = tmp_path / "data"
        assert main(["prepare", "--outdir", str(out)]) == 5
        assert capsys.readouterr().err == (
            "error: clean train sentence 0 holds a tab or line boundary: "
            "'good day\\u2028to you'\n")
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace / "run"
        assert (run / "model-stacked.ckpt").exists()
        log = (run / "train-stacked.log").read_text().splitlines()
        header, *records = [json.loads(line) for line in log if line]
        phases = {r["phase"] for r in records}
        assert phases == {1, 2}
        assert all({"epoch", "loss", "lr"} <= set(r) for r in records)
        # the header names the run: its configs rebuild, the seed and the
        # train file's digest
        assert set(header) == {"model", "train", "seed", "train_sha256"}
        model = header["model"]
        config = ModelConfig(
            **model | {"encoder": EncoderConfig(**model["encoder"]),
                       "denoise": DenoiseConfig(**model["denoise"])})
        assert config == load_checkpoint(run / "model-stacked.ckpt").config
        assert TrainConfig(**header["train"]).phase1_epochs == 5
        assert header["seed"] == 3
        assert header["train_sha256"] == hashlib.sha256(
            (workspace / "data" / "train.tsv").read_bytes()).hexdigest()

    def test_times_file_has_one_line_per_epoch_record(self, workspace):
        run = workspace / "run"
        records = [json.loads(line) for line in
                   (run / "train-stacked.log").read_text().splitlines()[1:]]
        times = [json.loads(line) for line in
                 (run / "train-stacked.times").read_text().splitlines()]
        assert [(t["phase"], t["epoch"]) for t in times] == \
            [(r["phase"], r["epoch"]) for r in records]
        assert len(times) == 5 + 2
        assert all(math.isfinite(t["seconds"]) and t["seconds"] >= 0
                   for t in times)

    def test_baseline_mode_skips_phase1(self, workspace, tmp_path):
        data = workspace / "data"
        run = tmp_path / "run-b"
        assert main(["train", "--train", str(data / "train.tsv"),
                     "--outdir", str(run), "--mode", "baseline"]
                    + TRAIN_FAST) == 0
        header, *records = [
            json.loads(line) for line in
            (run / "train-baseline.log").read_text().splitlines() if line]
        assert header["model"]["mode"] == "baseline"
        assert {r["phase"] for r in records} == {2}
        assert (run / "model-baseline.ckpt").exists()

    def test_non_finite_gradients_exit_10_without_checkpoint(
            self, workspace, tmp_path, capsys):
        # a step size this large overflows the forward of the next step,
        # so its loss, and the gradients it would give, are NaN: training
        # stops at the loss, before backward and before Adam writes
        run = tmp_path / "run-nan"
        argv = ["train", "--train", str(workspace / "data" / "train.tsv"),
                "--outdir", str(run)] + TRAIN_FAST + ["--phase2-lr", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 10
        assert "error: phase 2, epoch 0, step 2: batch loss is nan" in \
            capsys.readouterr().err
        # no checkpoint; the log streams, so it keeps its header, the
        # finished epochs and the error that ended the run
        assert sorted(p.name for p in run.iterdir()) == [
            "train-stacked.log", "train-stacked.times"]
        header, *records, error = [
            json.loads(line) for line in
            (run / "train-stacked.log").read_text().splitlines()]
        assert header["train"]["phase2_lr"] == 1e300
        assert [(r["phase"], r["epoch"]) for r in records] == \
            [(1, epoch) for epoch in range(5)]
        assert error == {"error": "NonFiniteError", "message":
                         "phase 2, epoch 0, step 2: batch loss is nan"}

    def test_reports_truncated_training_sentences_on_stderr(
            self, tmp_path, capsys):
        # seq_len 12 leaves room for 10 tokens; both sides of a pair count
        train = _file(tmp_path, "0\tgood day\tgood day\n"
                      "1\t" + "bad " * 11 + "\t" + "bad " * 10 + "\n"
                      "0\tgood good\t" + "good " * 12 + "\n")
        run = tmp_path / "run-t"
        assert main(["train", "--train", train, "--outdir", str(run)]
                    + TRAIN_FAST) == 0
        captured = capsys.readouterr()
        assert captured.err == \
            "truncated: 2 of 6 training sentences cut to 10 tokens\n"
        assert captured.out == \
            f"checkpoint written to {run / 'model-stacked.ckpt'}\n"

    def test_seq_len_below_three_exits_8_before_any_output(
            self, workspace, tmp_path, capsys):
        # a sentence needs room for [CLS] and [SEP]: the model rejects the
        # config before the truncation line and before the outdir exists
        run = tmp_path / "run-short"
        argv = ["train", "--train", str(workspace / "data" / "train.tsv"),
                "--outdir", str(run)] + TRAIN_FAST + ["--seq-len", "2"]
        assert main(argv) == 8
        err = capsys.readouterr().err
        assert "truncated:" not in err
        assert "seq_len must be >= 3, got 2" in err
        assert not run.exists()

    def test_negative_n_post_exits_8_before_any_output(
            self, workspace, tmp_path, capsys):
        run = tmp_path / "run-negative"
        argv = ["train", "--train", str(workspace / "data" / "train.tsv"),
                "--outdir", str(run)] + TRAIN_FAST + ["--n-post", "-2"]
        assert main(argv) == 8
        err = capsys.readouterr().err
        assert "truncated:" not in err
        assert "n_post must be >= 0, got -2" in err
        assert not run.exists()

    def test_missing_corpus_exit_code(self, tmp_path):
        assert main(["train", "--train", str(tmp_path / "nope.tsv"),
                     "--outdir", str(tmp_path)] + TRAIN_FAST) == 7

    def test_config_file_and_flag_precedence(self, workspace, tmp_path):
        data = workspace / "data"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden_size = 16\nseq_len = 12\nnum_layers = 1\n"
                       "num_heads = 2\nphase1_epochs = 400\n"
                       "phase2_epochs = 1\nbatch_size = 8\nseed = 3\n")
        run = tmp_path / "run-c"
        # flag overrides the config file's 400 epochs
        assert main(["train", "--train", str(data / "train.tsv"),
                     "--outdir", str(run), "--config", str(cfg),
                     "--phase1-epochs", "2"]) == 0
        header, *records = [
            json.loads(line) for line in
            (run / "train-stacked.log").read_text().splitlines() if line]
        assert header["train"]["phase1_epochs"] == 2
        assert sum(r["phase"] == 1 for r in records) == 2
        assert sum(r["phase"] == 2 for r in records) == 1


class TestConfigFile:
    def test_mode_from_the_file_trains_that_model(self, workspace, tmp_path):
        cfg = _file(tmp_path, "mode = baseline\n")
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run), "--config", cfg] + TRAIN_FAST) == 0
        assert sorted(p.name for p in run.iterdir()) == [
            "model-baseline.ckpt", "train-baseline.log",
            "train-baseline.times"]

    def test_empty_n_post_means_encoder_depth(self, workspace, tmp_path):
        cfg = _file(tmp_path, "n_post =\n")
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run), "--config", cfg] + TRAIN_FAST) == 0
        model = load_checkpoint(run / "model-stacked.ckpt")
        assert model.config.n_post == model.config.encoder.num_layers == 1

    def test_keys_of_other_subcommands_are_accepted(self, tmp_path,
                                                    monkeypatch):
        seeds = []
        monkeypatch.setattr(cli, "run_all",
                            lambda seed: seeds.append(seed) or [])
        cfg = _file(tmp_path, "hidden_size = 16\nmode = baseline\n"
                    "seed = 4\n")
        assert main(["gradcheck", "--config", cfg]) == 0
        assert seeds == [4]
        out = tmp_path / "data"
        assert main(["prepare", "--config", cfg, "--outdir", str(out),
                     "--synthetic-per-class", "5"]) == 0
        assert config_lines(out / "manifest.txt")["seed"][1] == "4"

    @pytest.mark.parametrize("text,line,message", [
        ("seed = 1\nphase_1_epochs = 3\n", 2,
         "unknown key 'phase_1_epochs'"),
        ("# paths are flags only\noutdir = x\n", 2, "unknown key 'outdir'"),
        ("\nhidden_size = abc\n", 2, "hidden_size: invalid value 'abc'"),
        ("# stacked or baseline\nmode = bogus\n", 2,
         "mode: invalid value 'bogus'"),
        ("n_post = 1.5\n", 1, "n_post: invalid value '1.5'"),
        ("hidden_size = 16\nhidden_size = 32\n", 2,
         "key 'hidden_size' is already set on line 1"),
    ], ids=["misspelt-key", "path-key", "not-an-int", "not-a-choice",
            "not-an-int-or-empty", "key-set-twice"])
    def test_bad_key_or_value_exits_3_naming_the_line(
            self, workspace, tmp_path, capsys, text, line, message):
        cfg = _file(tmp_path, text)
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run), "--config", cfg]) == 3
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
        assert not run.exists()

    def test_unknown_key_stops_gradcheck_before_it_runs(
            self, tmp_path, capsys, monkeypatch):
        seeds = []
        monkeypatch.setattr(cli, "run_all",
                            lambda seed: seeds.append(seed) or [])
        cfg = _file(tmp_path, "seed = 2\noutdir = x\n")
        assert main(["gradcheck", "--config", cfg]) == 3
        assert capsys.readouterr().err == \
            f"error: {cfg}:2: unknown key 'outdir'\n"
        assert seeds == []


# each subcommand with a seed option, and the arguments it requires
# besides --outdir, naming files that need not exist
SEEDED = {"prepare": [], "train": ["--train", "missing.tsv"],
          "eval": ["--checkpoint", "missing.ckpt", "--test", "missing.tsv"],
          "gradcheck": None}


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(SEEDED))
def test_a_negative_seed_exits_8_naming_the_option(command, given, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda seed: pytest.fail("ran"))
    out = tmp_path / "out"
    argv = [command]
    if SEEDED[command] is not None:
        argv += SEEDED[command] + ["--outdir", str(out)]
    argv += ["--seed", "-1"] if given == "flag" else \
        ["--config", _file(tmp_path, "seed = -1\n")]
    assert main(argv) == 8
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(SEEDED))
def test_seed_0_gets_past_the_seed_check(command, given, tmp_path, capsys,
                                         monkeypatch):
    # the bound is inclusive: seed 0 reaches the command, which stops on
    # its missing input (exit 7), or, for gradcheck, runs at seed 0
    seeds = []
    monkeypatch.setattr(cli, "run_all", lambda seed: seeds.append(seed) or [])
    monkeypatch.chdir(tmp_path)
    argv = [command]
    if SEEDED[command] is not None:
        argv += (SEEDED[command] or ["--input", "missing.tsv"]) + \
            ["--outdir", "out"]
    argv += ["--seed", "0"] if given == "flag" else \
        ["--config", _file(tmp_path, "seed = 0\n")]
    code, err = main(argv), capsys.readouterr().err
    if SEEDED[command] is None:
        assert (code, seeds, err) == (0, [0], "")
    else:
        assert code == 7
        assert err.startswith("error: [Errno 2] No such file or directory: "
                              "'missing.")
        assert not (tmp_path / "out").exists()


class TestBadHyperparameters:
    @pytest.mark.parametrize("flag,value", [
        ("--phase1-lr", "-1"), ("--phase2-lr", "nan"),
        ("--aux-mse-weight", "-1"), ("--weight-decay", "nan"),
        ("--phase2-lr", "inf")])
    def test_train_exits_8_before_any_output(self, workspace, tmp_path,
                                             capsys, flag, value):
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run)] + TRAIN_FAST + [flag, value]) == 8
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == \
            f"error: {name} must be finite and >= 0, got {float(value)}\n"
        assert not run.exists()

    def test_aux_weight_for_a_baseline_exits_8(self, workspace, tmp_path,
                                               capsys):
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run), "--mode", "baseline",
                     "--aux-mse-weight", "0.5"] + TRAIN_FAST) == 8
        assert capsys.readouterr().err == ("error: aux_mse_weight 0.5 needs "
                                           "mode stacked, got mode baseline\n")
        assert not run.exists()

    def test_config_nan_lr_exits_8(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run), "--config",
                     _file(tmp_path, "phase2_lr = nan\n")]) == 8
        assert "phase2_lr must be finite and >= 0, got nan" in \
            capsys.readouterr().err
        assert not run.exists()

    def test_prepare_nan_probability_exits_8(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["prepare", "--p-delete", "nan", "--outdir", str(out),
                     "--synthetic-per-class", "5"]) == 8
        assert capsys.readouterr().err.startswith(
            "error: probabilities must lie in [0, 1]: (nan,")
        assert not out.exists()


@pytest.mark.parametrize("command", ["prepare", "train", "eval", "report",
                                     "gradcheck"])
def test_help_shows_every_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for name, default, *_ in cli.OPTIONS[command]:
        assert "--" + name.replace("_", "-") in out
        if default is not None:
            assert f"(default: {default})" in " ".join(out.split())


class TestEvalAndReport:
    def test_eval_outputs(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval",
                     "--checkpoint",
                     str(workspace / "run" / "model-stacked.ckpt"),
                     "--test", str(workspace / "data" / "test.tsv"),
                     "--manifest",
                     str(workspace / "data" / "manifest.txt"),
                     "--outdir", str(out), "--seed", "3"]) == 0
        with (out / "metrics.csv").open() as fh:
            header, row = list(csv.reader(fh))
        assert header == ["dataset", "mode", "seed", "micro_f1", "macro_p",
                          "macro_r", "macro_f1", "wer", "ibleu"]
        record = dict(zip(header, row))
        assert record["mode"] == "stacked"
        assert 0.0 <= float(record["micro_f1"]) <= 1.0
        assert abs(float(record["wer"]) - 0.25) <= 0.05
        counts = [[float(v) for v in r] for r in
                  csv.reader((out / "confusion_counts.csv").open())]
        assert len(counts) == 2 and len(counts[0]) == 2

    def test_eval_reports_truncated_sentences_on_stderr(self, workspace,
                                                         tmp_path, capsys):
        # seq_len 12 leaves room for 10 tokens; "well-being" is two
        test = _file(tmp_path, "0\tgood day\n"
                     "1\t" + "bad " * 10 + "\n"
                     "0\twell-being " + "good " * 9 + "\n")
        assert main(["eval", "--checkpoint", _checkpoint(workspace),
                     "--test", test, "--outdir", str(tmp_path / "eval")]) == 0
        captured = capsys.readouterr()
        assert captured.err == \
            "truncated: 1 of 3 test sentences cut to 10 tokens\n"
        header, row = list(csv.reader(captured.out.splitlines()))
        assert header == ["dataset", "mode", "seed", "micro_f1", "macro_p",
                          "macro_r", "macro_f1", "wer", "ibleu"]

    def test_a_manifest_value_not_a_float_exits_3_before_any_scoring(
            self, workspace, tmp_path, capsys):
        # the checkpoint does not exist: the manifest is read first
        manifest = _file(tmp_path, "seed = 3\nwer_pooled = abc\n")
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                     "--test", str(workspace / "data" / "test.tsv"),
                     "--manifest", manifest, "--outdir", str(out)]) == 3
        assert capsys.readouterr().err == \
            f"error: {manifest}:2: wer_pooled: invalid value 'abc'\n"
        assert not out.exists()

    def test_a_manifest_key_left_out_reads_as_nan(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", _checkpoint(workspace),
                     "--test", str(workspace / "data" / "test.tsv"),
                     "--manifest", _file(tmp_path, "wer_pooled = 0.5\n"),
                     "--outdir", str(out)]) == 0
        with (out / "metrics.csv").open() as fh:
            record = dict(zip(*csv.reader(fh)))
        assert (record["wer"], record["ibleu"]) == ("0.500000", "nan")

    def test_report_from_counts(self, tmp_path):
        counts = tmp_path / "confusion_counts.csv"
        counts.write_text("15,5\n10,20\n")
        out = tmp_path / "report"
        assert main(["report", "--confusion", str(counts),
                     "--outdir", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert f"macro F1:        {119 / 169:.4f}" in text
        normalized = [[float(v) for v in r] for r in
                      csv.reader((out / "confusion_normalized.csv").open())]
        assert normalized[0] == [0.75, 0.25]

    def test_report_accepts_exponent_form_counts(self, tmp_path):
        # eval writes counts with .12g, which prints 10**12 as 1e+12
        counts = tmp_path / "confusion_counts.csv"
        counts.write_text("1e+12,0\n0,2\n")
        out = tmp_path / "report"
        assert main(["report", "--confusion", str(counts),
                     "--outdir", str(out)]) == 0
        assert "micro F1 (= micro P = micro R): 1.0000" in (
            out / "report.txt").read_text()

    @pytest.mark.parametrize("cell", ["1.7", "nan", "inf", "1e300", "two"])
    def test_report_rejects_non_whole_counts(self, tmp_path, capsys, cell):
        counts = tmp_path / "confusion_counts.csv"
        counts.write_text(f"3,0\n{cell},2\n")
        assert main(["report", "--confusion", str(counts),
                     "--outdir", str(tmp_path / "report")]) == 3
        assert f"{counts}:2:" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_report_rejects_a_ragged_counts_file(self, tmp_path, capsys):
        counts = tmp_path / "confusion_counts.csv"
        counts.write_text("3,0\n\n1,2\n4\n")
        assert main(["report", "--confusion", str(counts),
                     "--outdir", str(tmp_path / "report")]) == 3
        assert f"{counts}:4: expected 2 counts" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_report_rejects_a_counts_byte_that_is_not_utf8(self, tmp_path,
                                                           capsys):
        counts = tmp_path / "confusion_counts.csv"
        counts.write_bytes(b"3,1\n1,\xff4\n")
        assert main(["report", "--confusion", str(counts),
                     "--outdir", str(tmp_path / "report")]) == 3
        assert capsys.readouterr().err == \
            f"error: {counts}:2: not UTF-8: invalid start byte 0xff\n"
        assert not (tmp_path / "report").exists()

    def test_report_names_a_counts_file_without_counts(self, tmp_path,
                                                       capsys):
        counts = _file(tmp_path, "\n\n")
        assert main(["report", "--confusion", counts,
                     "--outdir", str(tmp_path / "report")]) == 5
        assert capsys.readouterr().err == f"error: {counts}: no counts\n"

    def test_report_rejects_counts_whose_total_wraps_int64(self, tmp_path,
                                                           capsys):
        # each count fits int64, but their sum would wrap and the micro F1
        # come out negative
        counts = tmp_path / "confusion_counts.csv"
        counts.write_text("9e18,1\n9e18,1\n")
        assert main(["report", "--confusion", str(counts),
                     "--outdir", str(tmp_path / "report")]) == 3
        assert capsys.readouterr().err == (
            f"error: {counts}:2: counts must total below 2**63, got "
            f"{2 * 9 * 10**18 + 2} by this row\n")
        assert not (tmp_path / "report").exists()

    def test_report_closes_the_counts_file(self, tmp_path):
        counts = tmp_path / "confusion_counts.csv"
        counts.write_text("15,5\n10,20\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--confusion", str(counts),
                         "--outdir", str(tmp_path / "report")]) == 0
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_eval_missing_checkpoint_exit_code(self, workspace, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--test", str(workspace / "data" / "test.tsv"),
                     "--outdir", str(tmp_path)]) == 7

    def test_eval_corrupt_checkpoint_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        payload = bytearray(
            (workspace / "run" / "model-stacked.ckpt").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        bad.write_bytes(bytes(payload))
        assert main(["eval", "--checkpoint", str(bad),
                     "--test", str(workspace / "data" / "test.tsv"),
                     "--outdir", str(tmp_path)]) == 9


class TestGradcheckCommand:
    def test_passes_and_prints_per_check_lines(self, capsys, monkeypatch):
        # the real suite's lines are checked by acceptance criterion 1
        results = [CheckResult("matmul", 2.5e-11),
                   CheckResult("phase2_loss_gelu_richardson", 7.1e-6)]
        passing = ["PASS matmul: max rel err 2.500e-11",
                   "PASS phase2_loss_gelu_richardson: max rel err 7.100e-06"]
        monkeypatch.setattr(cli, "run_all", lambda seed: results)
        assert main(["gradcheck", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == passing
        assert re.fullmatch(r"total \d+\.\ds", lines[-1])
        # a check at the tolerance fails, and so does a NaN error; the
        # lines after them still print
        results[:0] = [CheckResult("softmax", 1e-4),
                       CheckResult("tanh", float("nan"))]
        assert main(["gradcheck", "--seed", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == ["FAIL softmax: max rel err 1.000e-04",
                              "FAIL tanh: max rel err nan"] + passing
        assert re.fullmatch(r"total \d+\.\ds", lines[-1])

    def test_config_file_seed_and_flag_precedence(self, tmp_path,
                                                  monkeypatch):
        seeds = []
        monkeypatch.setattr(cli, "run_all",
                            lambda seed: seeds.append(seed) or [])
        cfg = tmp_path / "gradcheck.cfg"
        cfg.write_text("seed = 3\n")
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert main(["gradcheck", "--config", str(cfg), "--seed", "5"]) == 0
        assert main(["gradcheck"]) == 0
        assert seeds == [3, 5, 0]


# words in several cases and with punctuation, and tokens that normalize
# to nothing
_FUZZ_WORDS = ("cat", "Cat", "CAT!", "dog,", "you're", "please", "night",
               "the", "a", "...", "?", "x1")


def _with_byte(draw, raw: bytes) -> bytes:
    """``raw`` with a byte that is not UTF-8 put in at a drawn place."""
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + b"\xff" + raw[at:]


@st.composite
def _corpus_bytes(draw):
    """A clean corpus file: labeled sentences, ragged, some over 64 words,
    with blank lines; sometimes of one word only, and now and then with
    one fault: a sentence that normalizes to nothing, a bad label, a
    fourth column or a byte that is not UTF-8."""
    words = (st.sampled_from(["cat", "Dog!"]) if draw(st.integers(0, 5)) == 0
             else st.sampled_from(_FUZZ_WORDS))
    fault = draw(st.sampled_from([None] * 8 + ["empty", "label", "columns",
                                               "byte"]))
    lines = []
    for _ in range(draw(st.integers(2, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        if draw(st.integers(0, 4)) == 0:
            sentence = [draw(words)] * draw(st.integers(60, 140))
        else:
            sentence = draw(st.lists(words, min_size=1, max_size=9))
        columns = [draw(st.sampled_from(["0", "1", "2"])),
                   " ".join(sentence + ["cat"])]
        if draw(st.booleans()):
            columns.append(draw(st.sampled_from(["", "The cat."])))
        lines.append("\t".join(columns))
    at = draw(st.integers(0, len(lines) - 1))
    if fault == "empty":
        lines[at] = "0\t... ?"
    elif fault == "label":
        lines[at] = draw(st.sampled_from(["-1", "x", "1.5"])) + "\tcat"
    elif fault == "columns":
        lines[at] = "0\tcat\tcat\tz"
    raw = "\n".join(lines).encode("utf-8")
    return _with_byte(draw, raw) if fault == "byte" else raw


def _keeps_the_failure_contract(argv, name, raw):
    """Run ``argv`` with ``raw`` written to the file ``name`` in a fresh
    directory, whose path replaces ``name`` in ``argv`` (``OUT`` names an
    outdir there): exit 0, or a code from ``_ERROR_CATEGORIES`` with
    exactly one ``error:`` line and no traceback."""
    codes = {code for _, code in cli._ERROR_CATEGORIES}
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / name).write_bytes(raw)
        paths = {name: str(Path(root) / name), "OUT": str(Path(root) / "out")}
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([paths.get(arg, arg) for arg in argv])
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not [line for line in lines if line.startswith("error:")]
    else:
        assert code in codes
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestPrepareInputContract:
    """``prepare --input`` on generated corpus files keeps the failure
    contract."""

    @settings(derandomize=True, max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_corpus_bytes(),
           target=st.sampled_from([None, "0.1", "0.3", "0.9"]),
           seed=st.integers(0, 3))
    def test_exits_with_a_category_code(self, raw, target, seed):
        argv = ["prepare", "--input", "clean.tsv", "--seed", str(seed),
                "--outdir", "OUT"]
        if target is not None:
            argv += ["--target-wer", target]
        _keeps_the_failure_contract(argv, "clean.tsv", raw)


@st.composite
def _counts_bytes(draw, fault):
    """A counts file of 1 to 4 classes, with blank lines and the exponent
    form ``eval`` writes, and the ``fault`` named: a ragged row, a column
    or a row too many, a negative, fractional, nan or 1e300 cell, counts
    whose total passes 2**63, no rows, or a byte that is not UTF-8."""
    n = draw(st.integers(1, 4))
    cell = st.sampled_from(["0", "1", "7", "12", "3e2", "1e+12"])
    rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
    at = draw(st.integers(0, n - 1))
    if fault == "ragged":
        rows[at] = rows[at][:-1] if n > 1 else ["1", "2"]
    elif fault == "wide":
        rows = [row + ["1"] for row in rows]
    elif fault == "tall":
        rows.append(["1"] * n)
    elif fault == "overflow":  # two cells once there are two classes
        rows[at][-1] = rows[-1][0] = "9e18"
    elif fault == "empty":
        rows = []
    elif fault in _BAD_CELLS:
        rows[at][draw(st.integers(0, n - 1))] = _BAD_CELLS[fault]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    raw = "".join(line + "\n" for line in lines).encode("utf-8")
    return _with_byte(draw, raw) if fault == "byte" else raw


_BAD_CELLS = {"negative": "-3", "fractional": "2.5", "nan": "nan",
              "1e300": "1e300"}

# per option key, values of its type: some the command takes, some it
# rejects once the file is read
_CONFIG_VALUES = {
    "seed": ("0", "3", "-1"),
    "p_delete": ("0", "0.3", "1.5", "nan"),
    "p_substitute": ("0.2", "1", "inf"),
    "target_wer": ("", "0.3", "1.9", "1e300"),
    "test_fraction": ("0.25", "0.9", "1"),
    "synthetic_per_class": ("-1", "0", "2", "3"),
    "hidden_size": ("0", "16"),
    "mode": ("stacked", "baseline"),
    "n_post": ("", "1"),
}
# lines that break a config file: a key that is no option's, a value not
# of its option's type or choices, and a line without "="
_CONFIG_FAULTS = {
    "unknown-key": ("phase_1_epochs = 3", "outdir = x", "= 2"),
    "bad-value": ("seed = 1.5", "hidden_size = abc", "mode = bogus",
                  "p_delete = 0.1 = 3"),
    "bare": ("seed", "hidden_size 16"),
}


@st.composite
def _config_bytes(draw, fault):
    """A config file of ``key = value`` lines, each key once, with comments
    and blank lines, and the ``fault`` named: one of ``_CONFIG_FAULTS``, a
    key set twice, or a byte that is not UTF-8."""
    keys = sorted(_CONFIG_VALUES)
    lines = [f"{key} = {draw(st.sampled_from(_CONFIG_VALUES[key]))}"
             for key in draw(st.lists(st.sampled_from(keys), max_size=5,
                                      unique=True))]
    if fault == "repeated":
        key = draw(st.sampled_from(keys))
        lines += [f"{key} = {value}" for value in draw(st.lists(
            st.sampled_from(_CONFIG_VALUES[key]), min_size=2, max_size=2))]
    elif fault in _CONFIG_FAULTS:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_CONFIG_FAULTS[fault])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["", "   ", "# seed = 2", "  # no = here"])))
    raw = "".join(line + "\n" for line in lines).encode("utf-8")
    return _with_byte(draw, raw) if fault == "byte" else raw


class TestReportAndConfigContract:
    """``report --confusion`` on generated counts files, and ``prepare`` and
    ``gradcheck`` on generated ``--config`` files, keep the failure
    contract, a few examples for each kind of fault."""

    @pytest.mark.parametrize("fault", [
        None, "ragged", "wide", "tall", "overflow", "empty", "byte",
        *_BAD_CELLS])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(data=st.data())
    def test_report_exits_with_a_category_code(self, fault, data):
        _keeps_the_failure_contract(
            ["report", "--confusion", "counts.csv", "--outdir", "OUT"],
            "counts.csv", data.draw(_counts_bytes(fault)))

    @pytest.mark.parametrize("fault", [None, "repeated", "byte",
                                       *_CONFIG_FAULTS])
    @settings(derandomize=True, max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), command=st.sampled_from(["prepare", "gradcheck"]))
    def test_config_exits_with_a_category_code(self, fault, data, command):
        # the gradient suite itself is not under test
        argv = [command, "--config", "run.cfg"]
        if command == "prepare":
            argv += ["--outdir", "OUT"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "run_all", lambda seed: [])
            _keeps_the_failure_contract(argv, "run.cfg",
                                        data.draw(_config_bytes(fault)))


class TestBadCorpus:
    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("notalabel\tsentence here\n")
        assert main(["train", "--train", str(bad),
                     "--outdir", str(tmp_path)] + TRAIN_FAST) == 3

    def test_a_fourth_column_exits_3_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\tgood nite\tgood night\n1\tbad day\tbad day\tx\n")
        out = tmp_path / "run"
        assert main(["train", "--train", str(bad),
                     "--outdir", str(out)] + TRAIN_FAST) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}:2: expected label<TAB>incomplete[<TAB>complete], "
            "got 4 columns\n")
        assert not out.exists()

    def test_label_outside_num_classes_exits_at_load(self, tmp_path):
        paired = tmp_path / "paired.tsv"
        paired.write_text("0\tgood nite\tgood night\n"
                          "1\tbad day\tbad day\n"
                          "2\tsweet dreamz\tsweet dreams\n")
        out = tmp_path / "run"
        assert main(["train", "--train", str(paired), "--outdir", str(out),
                     "--num-classes", "2"] + TRAIN_FAST) == 4
        assert not out.exists()   # rejected before training wrote anything

    def test_a_byte_that_is_not_utf8_exits_3_naming_the_line(self, tmp_path,
                                                            capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"0\tgood day\n0\tbad \xff\n")
        out = tmp_path / "run"
        assert main(["train", "--train", str(bad),
                     "--outdir", str(out)] + TRAIN_FAST) == 3
        assert capsys.readouterr().err == \
            f"error: {bad}:2: not UTF-8: invalid start byte 0xff\n"
        assert not out.exists()

    def test_empty_corpus_exits_5(self, tmp_path, capsys):
        # the same data error as eval on an empty test file
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "run"
        assert main(["train", "--train", str(empty), "--outdir", str(out)]
                    + TRAIN_FAST) == 5
        assert capsys.readouterr().err == \
            "error: cannot build a vocabulary from an empty corpus\n"
        assert not out.exists()


def _file(root, text):
    path = root / "input.txt"
    path.write_text(text)
    return str(path)


def _truncated_checkpoint(workspace, root):
    payload = (workspace / "run" / "model-stacked.ckpt").read_bytes()
    path = root / "short.ckpt"
    path.write_bytes(payload[:len(payload) // 2])
    return str(path)


def _checkpoint(workspace):
    return str(workspace / "run" / "model-stacked.ckpt")


# One command per error category, each reaching its error by a path the
# single-code tests above do not take. An argv is built from the module's
# workspace and the test's tmp_path.
EXIT_CASES = [
    pytest.param(3, lambda ws, tmp: [
        "train", "--train", str(tmp / "unused.tsv"),
        "--config", _file(tmp, "hidden_size 32\n")], id="3-parse"),
    pytest.param(4, lambda ws, tmp: [
        "eval", "--checkpoint", _checkpoint(ws),
        "--test", _file(tmp, "0\tgood day\n5\tbad day\n")], id="4-label"),
    pytest.param(5, lambda ws, tmp: [
        "eval", "--checkpoint", _checkpoint(ws), "--test", _file(tmp, "")],
        id="5-data"),
    pytest.param(6, lambda ws, tmp: [
        "prepare", "--target-wer", "1.9", "--synthetic-per-class", "5",
        "--seed", "3"], id="6-calibration"),
    pytest.param(7, lambda ws, tmp: [
        "eval", "--checkpoint", _checkpoint(ws),
        "--test", str(tmp / "missing.tsv")], id="7-missing-file"),
    pytest.param(8, lambda ws, tmp: [
        "train", "--train", _file(tmp, "0\tgood day\n1\tbad day\n"),
        "--hidden-size", "32", "--num-heads", "3"], id="8-bad-value"),
    pytest.param(9, lambda ws, tmp: [
        "eval", "--checkpoint", _truncated_checkpoint(ws, tmp),
        "--test", str(ws / "data" / "test.tsv")], id="9-checkpoint"),
]


@pytest.mark.parametrize("code,argv", EXIT_CASES)
def test_each_error_category_exits_with_its_code(code, argv, workspace,
                                                  tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv(workspace, tmp_path) + ["--outdir", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")


# A path of the wrong kind for its option: each an OSError other than
# FileNotFoundError, reported on one error line, and the run stops before
# writing (train reports its truncation line first).
PATH_CASES = [
    pytest.param(lambda ws, tmp: [
        "prepare", "--synthetic-per-class", "5",
        "--outdir", _file(tmp, "")], id="prepare-outdir-is-a-file"),
    pytest.param(lambda ws, tmp: [
        "prepare", "--input", str(tmp), "--outdir", str(tmp / "out")],
        id="prepare-input-is-a-directory"),
    pytest.param(lambda ws, tmp: [
        "train", "--train", str(tmp), "--outdir", str(tmp / "out")],
        id="train-train-is-a-directory"),
    pytest.param(lambda ws, tmp: [
        "train", "--train", str(ws / "data" / "train.tsv"),
        "--outdir", _file(tmp, "")] + TRAIN_FAST,
        id="train-outdir-is-a-file"),
    pytest.param(lambda ws, tmp: [
        "eval", "--checkpoint", str(tmp),
        "--test", str(ws / "data" / "test.tsv"),
        "--outdir", str(tmp / "out")], id="eval-checkpoint-is-a-directory"),
]


@pytest.mark.parametrize("argv", PATH_CASES)
def test_a_path_of_the_wrong_kind_exits_7(argv, workspace, tmp_path,
                                          capsys):
    assert main(argv(workspace, tmp_path)) == 7
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error: ")] == err[-1:]
    assert err[-1].startswith("error: [Errno ")
    assert not (tmp_path / "out").exists()


def test_readme_exit_code_table_matches_the_error_categories():
    # README's table restates ``cli._ERROR_CATEGORIES``: one row per code,
    # naming the class raised, with ``ValueError`` as "any other"
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (\d+) \| [^|]+ \| (?:any other )?`(\w+)` \|",
                      readme.read_text(encoding="utf-8"), re.MULTILINE)
    assert [(int(code), name) for code, name in rows] == sorted(
        (code, etype.__name__) for etype, code in cli._ERROR_CATEGORIES)


DROP = object()


def _set_field(keys, value, header):
    """``header`` with the field at the path ``keys`` set to ``value``, or
    deleted if ``value`` is ``DROP``."""
    record = json.loads(header)
    target = record
    for key in keys[:-1]:
        target = target[key]
    if value is DROP:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return json.dumps(record).encode()


def _set(keys, value):
    """A header edit that sets the field at the path ``keys``, or deletes
    it if ``value`` is ``DROP``."""
    return partial(_set_field, keys, value)


VOCAB_IDS = "VocabError: vocabulary ids must be the embedding rows 0..42"

# Each edit leaves a checkpoint whose sha256 digest is valid, so only the
# header's content is at fault.
HEADER_FAULTS = [
    pytest.param(_set(["state_hash"], DROP), "KeyError: 'state_hash'",
                 id="no-state-hash"),
    pytest.param(_set(["config", "encoder", "hidden_size"], "x"),
                 "ConfigError: hidden_size must be an int, got 'x'",
                 id="hidden-size-not-a-number"),
    pytest.param(lambda header: b"{not json", "JSONDecodeError: ",
                 id="not-json"),
    pytest.param(_set(["vocabulary"], "a\tx\n"),
                 "ValueError: invalid literal for int()", id="vocabulary-id"),
    # the word with id 4 renumbered (JSON escapes the tab and newline): an
    # id outside 0..n-1 indexes past the embedding table, a repeat shares a row
    pytest.param(lambda h: h.replace(b"\\t4\\n", b"\\t97\\n"), VOCAB_IDS,
                 id="vocabulary-id-too-big"),
    pytest.param(lambda h: h.replace(b"\\t4\\n", b"\\t-3\\n"), VOCAB_IDS,
                 id="vocabulary-id-negative"),
    pytest.param(lambda h: h.replace(b"\\t4\\n", b"\\t5\\n"), VOCAB_IDS,
                 id="vocabulary-id-repeated"),
    pytest.param(_set(["config", "encoder", "num_heads"], 3),
                 "ConfigError: hidden_size 16 not divisible by num_heads 3",
                 id="heads-do-not-divide"),
    # an int field given a float or a bool, which a range check would pass
    pytest.param(_set(["config", "encoder", "num_heads"], 2.0),
                 "ConfigError: num_heads must be an int, got 2.0",
                 id="heads-a-float"),
    pytest.param(_set(["config", "denoise", "dims"], [16, 4.0, 2, 1]),
                 "ConfigError: dims[1] must be an int, got 4.0",
                 id="dims-hold-a-float"),
    pytest.param(_set(["config", "n_post"], True),
                 "ConfigError: n_post must be an int, got True",
                 id="n-post-a-bool"),
    pytest.param(_set(["config", "denoise", "dims"], [16, "4", 2, 1]),
                 "ConfigError: dims[1] must be an int, got '4'",
                 id="dims-hold-a-str"),
    pytest.param(_set(["config", "n_post"], -1),
                 "ConfigError: n_post must be >= 0, got -1",
                 id="n-post-negative"),
    # a zero width would divide by zero in the stage's fan-in init
    pytest.param(_set(["config", "denoise", "hidden_dims"], [0, 5, 3]),
                 "ConfigError: hidden_dims must be >= 1, got (0, 5, 3)",
                 id="hidden-width-zero"),
    # a field left out must not load as its default: a tanh chain whose
    # activation went missing would run as affine
    pytest.param(_set(["config", "denoise", "activation"], DROP),
                 "config omits denoise.activation", id="no-activation"),
    pytest.param(_set(["config", "mode"], DROP), "config omits mode",
                 id="no-mode"),
    pytest.param(_set(["config", "encoder", "ff_size"], DROP),
                 "config omits encoder.ff_size", id="no-ff-size"),
    # json.loads gives up on nesting this deep
    pytest.param(lambda header: b"[" * 100_000 + b"]" * 100_000,
                 "RecursionError: ", id="nested-too-deep"),
]


@pytest.mark.parametrize("edit,message", HEADER_FAULTS)
def test_eval_with_a_malformed_header_exits_9(edit, message, workspace,
                                              tmp_path, capsys):
    body = (workspace / "run" / "model-stacked.ckpt").read_bytes()[:-32]
    (length,) = struct.unpack_from("<I", body, 8)
    header = edit(body[12:12 + length])
    body = (body[:8] + struct.pack("<I", len(header)) + header
            + body[12 + length:])
    path = tmp_path / "bad.ckpt"
    path.write_bytes(body + hashlib.sha256(body).digest())
    assert main(["eval", "--checkpoint", str(path),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--outdir", str(tmp_path / "out")]) == 9
    err = capsys.readouterr().err
    assert err.startswith("error: malformed checkpoint: ")
    assert message in err


def _state_hash(arrays):
    """The header's ``state_hash`` of ``arrays`` (name -> array)."""
    digest = hashlib.sha256()
    for name, values in arrays.items():
        digest.update(name.encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


def _checkpoint_bytes(header, arrays):
    """A checkpoint file in ``save_checkpoint``'s layout: the JSON
    ``header`` bytes, then ``arrays``, then the file digest."""
    out = bytearray(b"DNCF" + struct.pack("<II", 1, len(header)) + header)
    out += struct.pack("<I", len(arrays))
    for name, values in arrays.items():
        out += struct.pack("<I", len(name.encode())) + name.encode()
        out += struct.pack(f"<BB{values.ndim}Q", 1, values.ndim,
                           *values.shape)
        out += values.astype("<f8").tobytes()
    return bytes(out) + hashlib.sha256(out).digest()


class _Tiny(NamedTuple):
    header: bytes
    arrays: dict
    test: str

    def __repr__(self):   # a failing example prints it
        return "<tiny checkpoint>"


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """An untrained stacked model at H=8 saved as a checkpoint, its header
    and arrays, and a test file to evaluate it on."""
    root = tmp_path_factory.mktemp("tiny")
    vocab = build_vocab(["good day", "bad day", "good night"])
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=8, num_layers=1,
                              num_heads=2, vocab_size=len(vocab),
                              num_classes=2),
        denoise=DenoiseConfig(dims=(8, 4, 2, 1)), n_post=1)
    save_checkpoint(TextClassifier(config, vocab), root / "model.ckpt")
    payload = (root / "model.ckpt").read_bytes()
    (length,) = struct.unpack_from("<I", payload, 8)
    header = payload[12:12 + length]
    arrays = {name: t.values for name, t in
              load_checkpoint(root / "model.ckpt").named_parameters()}
    assert _checkpoint_bytes(header, arrays) == payload
    (root / "test.tsv").write_text("0\tgood day\n1\tbad night\n")
    return _Tiny(header, arrays, str(root / "test.tsv"))


def _edited_checkpoint(tiny, edit):
    """The tiny checkpoint with ``edit`` applied to its header. When the
    edited header still builds a model, the arrays become that model's
    and, unless the edit set it, the state hash theirs; the file digest is
    always recomputed."""
    header, arrays = tiny.header, tiny.arrays
    edited = edit(header)
    try:
        record = json.loads(edited)
        model = TextClassifier(_config_from_dict(record["config"]),
                               Vocabulary.from_lines(record["vocabulary"]))
    except Exception:   # eval meets the same header, and must fail cleanly
        return _checkpoint_bytes(edited, arrays)
    rebuilt = {name: t.values for name, t in model.named_parameters()}
    if record.get("state_hash") == json.loads(header)["state_hash"]:
        record["state_hash"] = _state_hash(rebuilt)
    return _checkpoint_bytes(json.dumps(record).encode(), rebuilt)


# per header field of the tiny checkpoint's config, values its type admits
# and its range may not; every shape they give is tiny
_HEADER_VALUES = {
    ("config", "encoder", "hidden_size"): (0, -1, 4, 6),
    ("config", "encoder", "seq_len"): (0, 1, 2, 3),
    ("config", "encoder", "num_layers"): (0, -2, 2),
    ("config", "encoder", "num_heads"): (0, 1, 3, 8),
    ("config", "encoder", "ff_size"): (0, -1, 1, None),
    ("config", "encoder", "vocab_size"): (0, 1, 3, 20),
    ("config", "encoder", "num_classes"): (0, 1, 3),
    ("config", "denoise", "dims"): ([8, 4, 2, 0], [8, 2, 4, 1], [8, 4, 2],
                                    [4, 2, 1, 1], [8, 8, 8, 8]),
    ("config", "denoise", "hidden_dims"): ([0, 5, 3], [1, 1, 1],
                                           [-1, 2, 2], [3, 3], []),
    ("config", "denoise", "activation"): ("relu", "tanh", "gelu", None),
    ("config", "n_post"): (-1, 0, 2, None),
    ("config", "mode"): ("baseline", "bogus", ""),
    ("state_hash",): ("", "0" * 64, 7, None),
}
_RETYPED = ("x", 1.5, True, None, [], {}, [1])
# edits of the vocabulary text: a renumbered, negative, repeated or
# non-numeric id, a line without its tab, a blank line, a third column
_VOCABULARY_EDITS = (("\t5\n", "\t9\n"), ("\t5\n", "\t-1\n"),
                     ("\t5\n", "\t4\n"), ("\t5\n", "\tx\n"),
                     ("\t", " "), ("\n", "\n\n"),
                     ("\t5\n", "\t5\t6\n"))


def _edit_vocabulary(old, new, header):
    """``header`` with the first ``old`` of its vocabulary text made
    ``new``."""
    record = json.loads(header)
    record["vocabulary"] = record["vocabulary"].replace(old, new, 1)
    return json.dumps(record).encode()


@st.composite
def _header_edits(draw):
    """One edit of the tiny checkpoint's header: a field dropped, given
    another type or a value out of range, or the vocabulary text edited."""
    kind = draw(st.sampled_from(["drop", "retype", "value", "vocabulary"]))
    if kind == "vocabulary":
        return partial(_edit_vocabulary,
                       *draw(st.sampled_from(_VOCABULARY_EDITS)))
    paths = sorted(_HEADER_VALUES)
    if kind != "value":   # whole sections are dropped or retyped too
        paths += [("config",), ("config", "encoder"), ("config", "denoise"),
                  ("vocabulary",)]
    keys = draw(st.sampled_from(paths))
    if kind == "drop":
        return _set(keys, DROP)
    return _set(keys, draw(st.sampled_from(
        _RETYPED if kind == "retype" else _HEADER_VALUES[keys])))


class TestCheckpointHeaderContract:
    """``eval`` on checkpoints whose JSON header was edited, with their
    hashes made to match, keeps the failure contract."""

    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edit=_header_edits())
    @example(edit=_set(["config", "denoise", "hidden_dims"], [0, 5, 3]))
    @example(edit=lambda header: b"[" * 100_000 + b"]" * 100_000)
    def test_eval_exits_with_a_category_code(self, tiny_checkpoint, edit):
        _keeps_the_failure_contract(
            ["eval", "--checkpoint", "model.ckpt", "--test",
             tiny_checkpoint.test, "--outdir", "OUT"],
            "model.ckpt", _edited_checkpoint(tiny_checkpoint, edit))


SRC = Path(__file__).resolve().parents[1] / "src"


def _module_run(argv, cwd):
    """``python -m denoiseclf argv`` in its own process, against the
    source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "denoiseclf", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


class TestModuleEntryPoint:
    def test_help_and_an_error_code_pass_through(self, tmp_path):
        done = _module_run(["--help"], tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: denoiseclf ")
        done = _module_run(["report", "--confusion", "missing.csv",
                            "--outdir", "out"], tmp_path)
        assert done.returncode == 7
        assert done.stderr.startswith("error: ")

    def test_prepare_writes_the_same_bytes_under_any_hash_seed(
            self, tmp_path, monkeypatch):
        written = []
        for hash_seed in ("0", "1"):
            monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
            out = tmp_path / f"hash-seed-{hash_seed}"
            done = _module_run(["prepare", "--synthetic-per-class", "20",
                                "--target-wer", "0.3", "--outdir", str(out)],
                               tmp_path)
            assert done.returncode == 0, done.stderr
            written.append([(out / name).read_bytes() for name in
                            ("train.tsv", "test.tsv", "manifest.txt")])
        assert written[0] == written[1]

    def test_train_writes_the_same_bytes_under_any_hash_seed_and_blas_threads(
            self, workspace, tmp_path, monkeypatch):
        written = []
        for hash_seed, threads in (("0", "1"), ("1", "2")):
            monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            out = tmp_path / f"hash-seed-{hash_seed}"
            done = _module_run(
                ["train", "--train", str(workspace / "data" / "train.tsv"),
                 "--outdir", str(out), "--aux-mse-weight", "0.2"]
                + TRAIN_FAST, tmp_path)
            assert done.returncode == 0, done.stderr
            written.append([(out / name).read_bytes() for name in
                            ("model-stacked.ckpt", "train-stacked.log")])
        assert written[0] == written[1]

    def test_a_diverging_run_reports_only_its_error(self, workspace,
                                                    tmp_path):
        # the forward of step 2 overflows to NaN; numpy warns of nothing on
        # the way, so stderr is the truncation line and the error line
        done = _module_run(
            ["train", "--train", str(workspace / "data" / "train.tsv"),
             "--outdir", str(tmp_path / "run")] + TRAIN_FAST
            + ["--phase2-lr", "1e300"], tmp_path)
        assert done.returncode == 10
        assert done.stderr.splitlines() == [
            "truncated: 0 of 60 training sentences cut to 10 tokens",
            "error: phase 2, epoch 0, step 2: batch loss is nan"]
