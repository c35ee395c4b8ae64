"""End-to-end command-line tests: prepare -> train -> eval -> report on a
tiny synthetic dataset, plus exit-code and precedence behaviour."""

import csv
import gc
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from denoiseclf import cli
from denoiseclf.checkpoint import load_checkpoint
from denoiseclf.cli import main
from denoiseclf.data import load_corpus, make_dataset, parse_config
from denoiseclf.noise import pool_of
from denoiseclf.tokenizer import normalize

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
        manifest = parse_config(data / "manifest.txt")
        assert abs(float(manifest["wer_pooled"]) - 0.25) <= 0.05
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
        manifest = parse_config(out / "manifest.txt")
        assert float(manifest["wer_pooled"]) == 0.0
        assert float(manifest["wer_mean"]) == 0.0
        assert float(manifest["ibleu"]) == 0.0

    def test_unreachable_target_exit_code(self, tmp_path):
        assert main(["prepare", "--target-wer", "1.9",
                     "--synthetic-per-class", "5", "--seed", "3",
                     "--outdir", str(tmp_path / "x")]) == 6


    @pytest.mark.parametrize("argv,code,line", [
        (["--target-wer", "nan"], 8,
         "error: target WER must lie in (0, 2], got nan"),
        (["--synthetic-per-class", "0"], 5, "error: empty corpus"),
        (["--target-wer", "1.9", "--synthetic-per-class", "5", "--seed", "3"],
         6, "error: could not reach target WER 1.900; closest achieved 0.871"),
        (["--synthetic-per-class", "1", "--test-fraction", "0.75"], 5,
         "error: test fraction 0.75 holds out all 2 sentences and leaves "
         "none to train on"),
    ], ids=["nan-target", "empty-corpus", "unreachable-target",
            "empty-train-split"])
    def test_rejected_prepare_leaves_no_outdir(self, tmp_path, capsys, argv,
                                               code, line):
        out = tmp_path / "data"
        assert main(["prepare", "--outdir", str(out)] + argv) == code
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace / "run"
        assert (run / "model-stacked.ckpt").exists()
        log = (run / "train-stacked.log").read_text().splitlines()
        import json
        records = [json.loads(line) for line in log if line]
        phases = {r["phase"] for r in records}
        assert phases == {1, 2}
        assert all({"epoch", "loss", "lr"} <= set(r) for r in records)

    def test_baseline_mode_skips_phase1(self, workspace, tmp_path):
        data = workspace / "data"
        run = tmp_path / "run-b"
        assert main(["train", "--train", str(data / "train.tsv"),
                     "--outdir", str(run), "--mode", "baseline"]
                    + TRAIN_FAST) == 0
        import json
        records = [json.loads(line) for line in
                   (run / "train-baseline.log").read_text().splitlines()
                   if line]
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
        assert list(run.iterdir()) == []

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
        import json
        records = [json.loads(line) for line in
                   (run / "train-stacked.log").read_text().splitlines()
                   if line]
        assert sum(r["phase"] == 1 for r in records) == 2
        assert sum(r["phase"] == 2 for r in records) == 1


class TestConfigFile:
    def test_mode_from_the_file_trains_that_model(self, workspace, tmp_path):
        cfg = _file(tmp_path, "mode = baseline\n")
        run = tmp_path / "run"
        assert main(["train", "--train", str(workspace / "data" / "train.tsv"),
                     "--outdir", str(run), "--config", cfg] + TRAIN_FAST) == 0
        assert sorted(p.name for p in run.iterdir()) == [
            "model-baseline.ckpt", "train-baseline.log"]

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
        assert parse_config(out / "manifest.txt")["seed"] == "4"

    @pytest.mark.parametrize("text,line,message", [
        ("seed = 1\nphase_1_epochs = 3\n", 2,
         "unknown key 'phase_1_epochs'"),
        ("# paths are flags only\noutdir = x\n", 2, "unknown key 'outdir'"),
        ("\nhidden_size = abc\n", 2, "hidden_size: invalid value 'abc'"),
        ("mode = stacked\nmode = bogus\n", 2, "mode: invalid value 'bogus'"),
        ("n_post = 1.5\n", 1, "n_post: invalid value '1.5'"),
    ], ids=["misspelt-key", "path-key", "not-an-int", "not-a-choice",
            "not-an-int-or-empty"])
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
    def test_passes_and_prints_per_check_lines(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 12
        names = {l.split()[1] for l in lines}
        assert {"phase2_loss_affine:", "phase2_loss_gelu_richardson:"} <= names
        assert not any(l.startswith("FAIL") for l in out.splitlines())

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


class TestBadCorpus:
    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("notalabel\tsentence here\n")
        assert main(["train", "--train", str(bad),
                     "--outdir", str(tmp_path)] + TRAIN_FAST) == 3

    def test_label_outside_num_classes_exits_at_load(self, tmp_path):
        paired = tmp_path / "paired.tsv"
        paired.write_text("0\tgood nite\tgood night\n"
                          "1\tbad day\tbad day\n"
                          "2\tsweet dreamz\tsweet dreams\n")
        out = tmp_path / "run"
        assert main(["train", "--train", str(paired), "--outdir", str(out),
                     "--num-classes", "2"] + TRAIN_FAST) == 4
        assert not out.exists()   # rejected before training wrote anything

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


def test_readme_exit_code_table_matches_the_error_categories():
    # README's table restates ``cli._ERROR_CATEGORIES``: one row per code,
    # naming the class raised, with ``ValueError`` as "any other"
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (\d+) \| [^|]+ \| (?:any other )?`(\w+)` \|",
                      readme.read_text(encoding="utf-8"), re.MULTILINE)
    assert [(int(code), name) for code, name in rows] == sorted(
        (code, etype.__name__) for etype, code in cli._ERROR_CATEGORIES)


DROP = object()


def _set(keys, value):
    """A header edit that sets the field at the path ``keys``, or deletes
    it if ``value`` is ``DROP``."""
    def edit(header):
        record = json.loads(header)
        target = record
        for key in keys[:-1]:
            target = target[key]
        if value is DROP:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return json.dumps(record).encode()
    return edit


VOCAB_IDS = "VocabError: vocabulary ids must be the embedding rows 0..44"

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
    # a field left out must not load as its default: a tanh chain whose
    # activation went missing would run as affine
    pytest.param(_set(["config", "denoise", "activation"], DROP),
                 "config omits denoise.activation", id="no-activation"),
    pytest.param(_set(["config", "mode"], DROP), "config omits mode",
                 id="no-mode"),
    pytest.param(_set(["config", "encoder", "ff_size"], DROP),
                 "config omits encoder.ff_size", id="no-ff-size"),
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
