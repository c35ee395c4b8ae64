"""End-to-end command-line tests: prepare -> train -> eval -> report on a
tiny synthetic dataset, plus exit-code and precedence behaviour."""

import csv

import pytest

from denoiseclf import cli
from denoiseclf.cli import main
from denoiseclf.data import load_corpus, parse_config

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

    def test_unreachable_target_exit_code(self, tmp_path):
        assert main(["prepare", "--target-wer", "1.9",
                     "--synthetic-per-class", "5", "--seed", "3",
                     "--outdir", str(tmp_path / "x")]) == 6


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
