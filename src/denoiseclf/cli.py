"""Command-line surface: dataset preparation, training, evaluation,
reporting, and the gradient-verification suite.

Option precedence is flag > config file > built-in default. Config files
are flat ``key = value`` text where keys match the long flag names with
underscores (e.g. ``hidden_size = 32``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (atomic_write_text, format_config, load_corpus,
                   make_dataset, parse_config, split_corpus, synthetic_corpus)
from .denoise import DenoiseConfig
from .encoder import EncoderConfig
from .errors import (CalibrationError, CheckpointError, DataError, LabelError,
                     NonFiniteError, ParseError)
from .gradcheck import run_all
from .metrics import ConfusionMatrix, MetricsReport
from .model import ModelConfig, TextClassifier
from .noise import NoiseSpec
from .tokenizer import build_vocab, normalize
from .train import TrainConfig, evaluate, train_phase1, train_phase2


def _resolve(args: argparse.Namespace, key: str, default, cast=None):
    """flag > config file > default."""
    value = getattr(args, key, None)
    if value is None and getattr(args, "config_values", None):
        value = args.config_values.get(key)
    if value is None:
        return default
    return cast(value) if cast else value


def _load_config_file(args: argparse.Namespace) -> None:
    args.config_values = (parse_config(args.config)
                          if getattr(args, "config", None) else {})


def cmd_prepare(args) -> int:
    _load_config_file(args)
    seed = _resolve(args, "seed", 0, int)
    target = _resolve(args, "target_wer", None, float)
    spec = NoiseSpec(
        p_delete=_resolve(args, "p_delete", 0.1, float),
        p_substitute=_resolve(args, "p_substitute", 0.1, float),
        p_repeat=_resolve(args, "p_repeat", 0.02, float),
        p_abbreviate=_resolve(args, "p_abbreviate", 0.05, float),
        p_casual=_resolve(args, "p_casual", 0.05, float),
        seed=seed,
        target_wer=target,
    )
    if args.input:
        rows = load_corpus(args.input, split="train")
        clean = [(ex.label, ex.complete or ex.incomplete) for ex in rows]
    else:
        clean = synthetic_corpus(
            _resolve(args, "synthetic_per_class", 60, int), seed=seed)
    pool = sorted({w for _, s in clean for w in s.split()})
    spec = replace(spec, pool=tuple(pool))
    train_clean, test_clean = split_corpus(
        clean, _resolve(args, "test_fraction", 0.25, float), seed)
    manifest = make_dataset(train_clean, test_clean, spec, args.outdir)
    print(format_config(manifest), end="")
    return 0


def _model_config(args, vocab_size: int) -> ModelConfig:
    hidden = _resolve(args, "hidden_size", 32, int)
    return ModelConfig(
        encoder=EncoderConfig(
            hidden_size=hidden,
            seq_len=_resolve(args, "seq_len", 16, int),
            num_layers=_resolve(args, "num_layers", 1, int),
            num_heads=_resolve(args, "num_heads", 2, int),
            ff_size=_resolve(args, "ff_size", 2 * hidden, int),
            vocab_size=vocab_size,
            num_classes=_resolve(args, "num_classes", 2, int),
        ),
        denoise=DenoiseConfig.for_hidden_size(hidden),
        n_post=_resolve(args, "n_post", None,
                        lambda v: None if v in (None, "") else int(v)),
        mode=args.mode,
    )


def _report_truncation(sentences, seq_len: int, kind: str) -> None:
    """One stderr line: how many of ``sentences`` ``encode`` cuts to its
    ``seq_len - 2`` word tokens."""
    limit = seq_len - 2
    cut = sum(len(normalize(s)) > limit for s in sentences)
    print(f"truncated: {cut} of {len(sentences)} {kind} sentences cut to "
          f"{limit} tokens", file=sys.stderr)


def cmd_train(args) -> int:
    _load_config_file(args)
    seed = _resolve(args, "seed", 0, int)
    train_data = load_corpus(args.train, split="train",
                             num_classes=_resolve(args, "num_classes", 2, int))
    sentences = [ex.incomplete for ex in train_data]
    sentences += [ex.complete for ex in train_data if ex.complete]
    vocab = build_vocab(sentences)
    config = _model_config(args, len(vocab))
    model = TextClassifier(config, vocab, seed=seed)
    _report_truncation(sentences, config.encoder.seq_len, "training")
    cfg = TrainConfig(
        phase1_epochs=_resolve(args, "phase1_epochs", 200, int),
        phase1_lr=_resolve(args, "phase1_lr", 1e-3, float),
        weight_decay=_resolve(args, "weight_decay", 1e-5, float),
        phase2_epochs=_resolve(args, "phase2_epochs", 5, int),
        phase2_lr=_resolve(args, "phase2_lr", 5e-3, float),
        warmup_proportion=_resolve(args, "warmup_proportion", 0.1, float),
        batch_size=_resolve(args, "batch_size", 8, int),
        seed=seed,
        aux_mse_weight=_resolve(args, "aux_mse_weight", 0.0, float),
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log_lines: list[str] = []

    def log(record):
        log_lines.append(json.dumps(record))

    paired = [ex for ex in train_data if ex.complete is not None]
    if config.mode == "stacked" and paired:
        train_phase1(paired, model, cfg, log=log)
    train_phase2(train_data, model, cfg, log=log)
    checkpoint_path = outdir / f"model-{config.mode}.ckpt"
    save_checkpoint(model, checkpoint_path)
    atomic_write_text(outdir / f"train-{config.mode}.log",
                      "\n".join(log_lines) + "\n")
    print(f"checkpoint written to {checkpoint_path}")
    return 0


def _write_confusion_csv(path: Path, matrix: np.ndarray) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in matrix:
        writer.writerow([f"{v:.12g}" for v in row])
    atomic_write_text(path, buf.getvalue())


def cmd_eval(args) -> int:
    _load_config_file(args)
    model = load_checkpoint(args.checkpoint)
    test = load_corpus(args.test, split="test",
                       num_classes=model.config.encoder.num_classes)
    cm = evaluate(test, model)
    _report_truncation([ex.incomplete for ex in test],
                       model.config.encoder.seq_len, "test")
    wer_pooled = ibleu_score = None
    if args.manifest:
        manifest = parse_config(args.manifest)
        wer_pooled = float(manifest.get("wer_pooled", "nan"))
        ibleu_score = float(manifest.get("ibleu", "nan"))
    report = MetricsReport.from_confusion(cm, wer_pooled=wer_pooled,
                                          ibleu_score=ibleu_score)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["dataset", "mode", "seed", "micro_f1", "macro_p",
                     "macro_r", "macro_f1", "wer", "ibleu"])
    writer.writerow([
        Path(args.test).stem, model.config.mode,
        _resolve(args, "seed", 0, int),
        f"{report.micro_f1:.6f}", f"{report.macro.precision:.6f}",
        f"{report.macro.recall:.6f}", f"{report.macro.f1:.6f}",
        "" if wer_pooled is None else f"{wer_pooled:.6f}",
        "" if ibleu_score is None else f"{ibleu_score:.6f}",
    ])
    atomic_write_text(outdir / "metrics.csv", buf.getvalue())
    _write_confusion_csv(outdir / "confusion_counts.csv",
                         cm.counts.astype(float))
    print(buf.getvalue(), end="")
    return 0


def _read_counts(path: str) -> np.ndarray:
    """The counts CSV that ``eval`` writes. Every row must have as many
    cells as the first, and every cell must be a whole number that fits
    int64, so a fractional count is rejected, not truncated, and nan, inf
    or 1e300 cannot cast to garbage."""
    reader = csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8")))
    rows = []
    for row in reader:
        try:
            cells = [float(v) for v in row]
            if not all(abs(v) < 2.0 ** 63 and v.is_integer() for v in cells):
                raise ValueError
        except ValueError:
            raise ParseError(path, reader.line_num, "counts must be whole "
                             f"numbers below 2**63, got {row}") from None
        if not cells:
            continue
        if rows and len(cells) != len(rows[0]):
            raise ParseError(path, reader.line_num, f"expected {len(rows[0])} "
                             f"counts like the first row, got {len(cells)}")
        rows.append(cells)
    return np.array(rows).astype(np.int64)


def cmd_report(args) -> int:
    cm = ConfusionMatrix.from_counts(_read_counts(args.confusion))
    report = MetricsReport.from_confusion(cm)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_confusion_csv(outdir / "confusion_normalized.csv",
                         report.normalized_matrix)
    lines = ["normalized confusion matrix (rows = true, cols = predicted)"]
    for row in report.normalized_matrix:
        lines.append("  " + "  ".join(f"{v:6.3f}" for v in row))
    lines.append("")
    lines.append(f"micro F1 (= micro P = micro R): {report.micro_f1:.4f}")
    lines.append(f"macro precision: {report.macro.precision:.4f}")
    lines.append(f"macro recall:    {report.macro.recall:.4f}")
    lines.append(f"macro F1:        {report.macro.f1:.4f}")
    for c, (p, r, f1) in enumerate(zip(report.macro.per_class_precision,
                                       report.macro.per_class_recall,
                                       report.macro.per_class_f1)):
        lines.append(f"class {c}: P={p:.4f} R={r:.4f} F1={f1:.4f}")
    if report.macro.degenerate_classes:
        lines.append("warning: zero-denominator classes "
                     f"{list(report.macro.degenerate_classes)} scored as 0")
    text = "\n".join(lines) + "\n"
    atomic_write_text(outdir / "report.txt", text)
    print(text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    _load_config_file(args)
    seed = _resolve(args, "seed", 0, int)
    start = time.time()
    results = run_all(seed)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max rel err {res.max_rel_err:.3e}")
        ok = ok and res.passed
    print(f"total {time.time() - start:.1f}s")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denoiseclf",
        description="Noise-robust text classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", help="flat key = value config file")

    p = sub.add_parser("prepare", help="corrupt a clean corpus into "
                       "paired train/test splits")
    p.add_argument("--input", help="clean corpus TSV (label<TAB>sentence); "
                   "omitted = built-in synthetic corpus")
    p.add_argument("--outdir", required=True)
    p.add_argument("--target-wer", dest="target_wer", type=float)
    for name in ("p-delete", "p-substitute", "p-repeat", "p-abbreviate",
                 "p-casual"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--synthetic-per-class", dest="synthetic_per_class",
                   type=int)
    common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="run two-phase training")
    p.add_argument("--train", required=True, help="paired train TSV")
    p.add_argument("--outdir", required=True)
    p.add_argument("--mode", choices=("stacked", "baseline"),
                   default="stacked")
    p.add_argument("--aux-mse-weight", dest="aux_mse_weight", type=float)
    for name in ("hidden-size", "seq-len", "num-layers", "num-heads",
                 "ff-size", "num-classes", "n-post", "phase1-epochs",
                 "phase2-epochs", "batch-size"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int)
    for name in ("phase1-lr", "phase2-lr", "weight-decay",
                 "warmup-proportion"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--manifest", help="dataset manifest for noise scores")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="normalized confusion matrix and "
                       "macro score table")
    p.add_argument("--confusion", required=True,
                   help="confusion counts CSV from eval")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(p)
    p.set_defaults(func=cmd_gradcheck)
    return parser


_ERROR_CATEGORIES = (
    (ParseError, 3), (LabelError, 4), (DataError, 5),
    (CalibrationError, 6), (FileNotFoundError, 7), (CheckpointError, 9),
    (NonFiniteError, 10), (ValueError, 8),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # categorized nonzero exits
        for etype, code in _ERROR_CATEGORIES:
            if isinstance(exc, etype):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
