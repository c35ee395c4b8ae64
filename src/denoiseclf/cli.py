"""Command-line surface: dataset preparation, training, evaluation,
reporting, and the gradient-verification suite.

Each option is declared once, in ``OPTIONS``: flag ``--hidden-size``,
config key ``hidden_size``. Precedence is flag > config file > the table's
default. Path flags (``--train``, ``--outdir``, ...) are flag-only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import get_args

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (atomic_write_text, config_lines, format_config,
                   load_corpus, make_dataset, sentences_of, split_corpus,
                   synthetic_corpus, text_lines)
from .encoder import EncoderConfig
from .errors import (CalibrationError, CheckpointError, ConfigError,
                     DataError, LabelError, NonFiniteError, ParseError,
                     field_types)
from .gradcheck import run_all
from .metrics import (ConfusionMatrix, macro_scores, micro_scores,
                      normalize_matrix)
from .model import MODES, ModelConfig, TextClassifier
from .noise import NoiseSpec, pool_of
from .tokenizer import build_vocab, normalize
from .train import TrainConfig, evaluate, fit


_SEED = ("seed", 0, "random seed")

# (name, default, help[, type or choices]) of each option, per subcommand;
# the type is stated only where no config field's annotation gives it.
# The CLI's 200 phase-1 epochs, 5 phase-2 epochs and phase-2 lr 5e-3 suit
# its small corpora; TrainConfig's 500, 3 and 2e-5 are the paper's scale.
OPTIONS = {
    "prepare": (
        ("target_wer", None, "scale the noise to this pooled WER"),
        ("p_delete", 0.1, "word deletion probability"),
        ("p_substitute", 0.1, "word substitution probability"),
        ("p_repeat", 0.02, "word repetition probability"),
        ("p_abbreviate", 0.05, "abbreviation probability"),
        ("p_casual", 0.05, "casual-spelling probability"),
        ("test_fraction", 0.25, "share of sentences held out", float),
        ("synthetic_per_class", 60, "built-in corpus size per class", int),
        _SEED),
    "train": (
        ("mode", "stacked", "model to train", MODES),
        ("hidden_size", 32, "hidden width"),
        ("seq_len", 16, "tokens per sentence"),
        ("num_layers", 1, "encoder blocks"),
        ("num_heads", 2, "attention heads"),
        ("ff_size", None, "feed-forward width (default: 2 * hidden)"),
        ("num_classes", 2, "number of classes"),
        ("n_post", None, "post blocks (default: num_layers)"),
        ("phase1_epochs", 200, "reconstruction epochs"),
        ("phase1_lr", 1e-3, "reconstruction learning rate"),
        ("phase2_epochs", 5, "fine-tuning epochs"),
        ("phase2_lr", 5e-3, "fine-tuning peak learning rate"),
        ("weight_decay", 1e-5, "decoupled weight decay"),
        ("warmup_proportion", 0.1, "phase-2 warmup share of steps"),
        ("batch_size", 8, "examples per step"),
        ("aux_mse_weight", 0.0, "phase-2 reconstruction MSE weight"),
        _SEED),
    "eval": (_SEED,),
    "report": (),
    "gradcheck": (_SEED,),
}


def _parser(kind):
    """A field's parser: its type; ``X | None`` reads "" as None."""
    if type(None) not in get_args(kind):
        return kind
    inner = get_args(kind)[0]

    def optional(text: str):
        return None if text == "" else inner(text)
    optional.__name__ = inner.__name__   # argparse's error names the type
    return optional


_FIELDS = {name: kind for cls in (EncoderConfig, ModelConfig, TrainConfig,
           NoiseSpec) for name, kind in field_types(cls).items()}
_KINDS = {name: own[0] if own else _parser(_FIELDS[name])
          for opts in OPTIONS.values() for name, _, _, *own in opts}


def _command(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    """The subparser ``name`` with a flag per table option, each argparse
    default None, and ``--config`` if it has options."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func, config=None)
    for option, default, text, *_ in OPTIONS[name]:
        kind = _KINDS[option]
        how = {"type": kind} if callable(kind) else {"choices": kind}
        text += "" if default is None else f" (default: {default})"
        p.add_argument("--" + option.replace("_", "-"), help=text, **how)
    if OPTIONS[name]:
        p.add_argument("--config", help="flat key = value config file")
    return p


def _fill_options(args: argparse.Namespace) -> None:
    """Set each option not given as a flag from the config file, else from
    its default. A config key that is no subcommand's option, or a value
    not of its type or choices, is a ParseError naming the line; a negative
    seed is a ConfigError."""
    given = {}
    lines = config_lines(args.config) if args.config else {}
    for key, (lineno, text) in lines.items():
        if key not in _KINDS:
            raise ParseError(args.config, lineno, f"unknown key {key!r}")
        kind = _KINDS[key]
        try:  # index() raises ValueError for a value not in the choices
            given[key] = kind(text) if callable(kind) else \
                kind[kind.index(text)]
        except ValueError:
            raise ParseError(args.config, lineno,
                             f"{key}: invalid value {text!r}") from None
    for name, default, *_ in OPTIONS[args.command]:
        if getattr(args, name) is None:
            setattr(args, name, given.get(name, default))
    # numpy's seeding would refuse it without naming the option, and eval
    # would write it into metrics.csv
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")


def _from_options(cls, args, **given):
    """A ``cls`` whose fields named like an option of the subcommand take
    that option's value; ``given`` sets or overrides fields."""
    return cls(**{name: getattr(args, name) for name, *_ in
                  OPTIONS[args.command] if name in field_types(cls)} | given)


def cmd_prepare(args) -> int:
    if args.input:
        rows = load_corpus(args.input, split="train")
        clean = [(ex.label, ex.complete or ex.incomplete) for ex in rows]
    else:
        clean = synthetic_corpus(args.synthetic_per_class, seed=args.seed)
    spec = _from_options(NoiseSpec, args, pool=pool_of(s for _, s in clean))
    train_clean, test_clean = split_corpus(clean, args.test_fraction,
                                           args.seed)
    manifest = make_dataset(train_clean, test_clean, spec, args.outdir)
    print(format_config(manifest), end="")
    return 0


def _report_truncation(sentences, seq_len: int, kind: str) -> None:
    """One stderr line: how many of ``sentences`` ``encode`` cuts to its
    ``seq_len - 2`` word tokens."""
    limit = seq_len - 2
    cut = sum(len(normalize(s)) > limit for s in sentences)
    print(f"truncated: {cut} of {len(sentences)} {kind} sentences cut to "
          f"{limit} tokens", file=sys.stderr)


def cmd_train(args) -> int:
    train_data = load_corpus(args.train, split="train",
                             num_classes=args.num_classes)
    sentences = sentences_of(train_data)
    vocab = build_vocab(sentences)
    encoder = _from_options(EncoderConfig, args, vocab_size=len(vocab))
    config = _from_options(ModelConfig, args, encoder=encoder)
    model = TextClassifier(config, vocab, seed=args.seed)
    cfg = _from_options(TrainConfig, args)
    if cfg.aux_mse_weight and config.mode != "stacked":
        # _with_aux would drop it: a baseline has no reconstruction loss
        raise ConfigError(f"aux_mse_weight {cfg.aux_mse_weight} needs mode "
                          f"stacked, got mode {config.mode}")
    _report_truncation(sentences, config.encoder.seq_len, "training")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # a header naming the run, then one line per epoch as it ends, so a
    # run that fails keeps its record and ends it with its error; the side
    # file times each epoch record from the record before it, so the first
    # epoch of a phase includes that phase's set-up
    with open(outdir / f"train-{config.mode}.log", "w",
              encoding="utf-8") as log_file, \
            open(outdir / f"train-{config.mode}.times", "w",
                 encoding="utf-8") as times_file:
        last = time.perf_counter()

        def log(record):
            nonlocal last
            log_file.write(json.dumps(record) + "\n")
            log_file.flush()
            now = time.perf_counter()
            if "epoch" in record:
                times_file.write(json.dumps(
                    {"phase": record["phase"], "epoch": record["epoch"],
                     "seconds": now - last}) + "\n")
                times_file.flush()
            last = now

        log({"model": asdict(config), "train": asdict(cfg),
             "seed": args.seed, "train_sha256": hashlib.sha256(
                 Path(args.train).read_bytes()).hexdigest()})
        try:
            fit(train_data, model, cfg, log=log)
        except Exception as exc:
            log({"error": type(exc).__name__, "message": str(exc)})
            raise
    checkpoint_path = outdir / f"model-{config.mode}.ckpt"
    save_checkpoint(model, checkpoint_path)
    print(f"checkpoint written to {checkpoint_path}")
    return 0


def _write_confusion_csv(path: Path, matrix: np.ndarray) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in matrix:
        writer.writerow([f"{v:.12g}" for v in row])
    atomic_write_text(path, buf.getvalue())


def _manifest_scores(path: str) -> tuple[float, float]:
    """The manifest's ``wer_pooled`` and ``ibleu``, nan where a key is
    missing; a value that is not a float is a ParseError naming its line."""
    lines = config_lines(path)
    scores = []
    for key in ("wer_pooled", "ibleu"):
        lineno, text = lines.get(key, (0, "nan"))
        try:
            scores.append(float(text))
        except ValueError:
            raise ParseError(path, lineno,
                             f"{key}: invalid value {text!r}") from None
    return tuple(scores)


def cmd_eval(args) -> int:
    wer_pooled = ibleu_score = None
    if args.manifest:
        wer_pooled, ibleu_score = _manifest_scores(args.manifest)
    model = load_checkpoint(args.checkpoint)
    test = load_corpus(args.test, split="test",
                       num_classes=model.config.encoder.num_classes)
    cm = evaluate(test, model)
    _report_truncation([ex.incomplete for ex in test],
                       model.config.encoder.seq_len, "test")
    macro = macro_scores(cm)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["dataset", "mode", "seed", "micro_f1", "macro_p",
                     "macro_r", "macro_f1", "wer", "ibleu"])
    writer.writerow([
        Path(args.test).stem, model.config.mode, args.seed,
        f"{micro_scores(cm):.6f}", f"{macro.precision:.6f}",
        f"{macro.recall:.6f}", f"{macro.f1:.6f}",
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
    or 1e300 cannot cast to garbage. The counts' magnitudes must total
    below 2**63 too, or the matrix's int64 sums would wrap."""
    reader = csv.reader(text_lines(path))
    rows, total = [], 0
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
        total += sum(abs(int(v)) for v in cells)
        if total >= 2 ** 63:
            raise ParseError(path, reader.line_num, "counts must total "
                             f"below 2**63, got {total} by this row")
        rows.append(cells)
    if not rows:
        raise DataError(f"{path}: no counts")
    return np.array(rows).astype(np.int64)


def cmd_report(args) -> int:
    cm = ConfusionMatrix.from_counts(_read_counts(args.confusion))
    macro = macro_scores(cm)
    normalized = normalize_matrix(cm)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_confusion_csv(outdir / "confusion_normalized.csv", normalized)
    lines = ["normalized confusion matrix (rows = true, cols = predicted)"]
    for row in normalized:
        lines.append("  " + "  ".join(f"{v:6.3f}" for v in row))
    lines.append("")
    lines.append(f"micro F1 (= micro P = micro R): {micro_scores(cm):.4f}")
    lines.append(f"macro precision: {macro.precision:.4f}")
    lines.append(f"macro recall:    {macro.recall:.4f}")
    lines.append(f"macro F1:        {macro.f1:.4f}")
    for c, (p, r, f1) in enumerate(zip(macro.per_class_precision,
                                       macro.per_class_recall,
                                       macro.per_class_f1)):
        lines.append(f"class {c}: P={p:.4f} R={r:.4f} F1={f1:.4f}")
    if macro.degenerate_classes:
        lines.append("warning: zero-denominator classes "
                     f"{list(macro.degenerate_classes)} scored as 0")
    text = "\n".join(lines) + "\n"
    atomic_write_text(outdir / "report.txt", text)
    print(text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    start = time.time()
    results = run_all(args.seed)
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
    p = _command(sub, "prepare", cmd_prepare,
                 "corrupt a clean corpus into paired train/test splits")
    p.add_argument("--input", help="clean corpus TSV (label<TAB>sentence); "
                   "omitted = built-in synthetic corpus")
    p.add_argument("--outdir", required=True)
    p = _command(sub, "train", cmd_train, "run two-phase training")
    p.add_argument("--train", required=True, help="paired train TSV")
    p.add_argument("--outdir", required=True)
    p = _command(sub, "eval", cmd_eval,
                 "evaluate a checkpoint on a test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--manifest", help="dataset manifest for noise scores")
    p = _command(sub, "report", cmd_report,
                 "normalized confusion matrix and macro score table")
    p.add_argument("--confusion", required=True,
                   help="confusion counts CSV from eval")
    p.add_argument("--outdir", required=True)
    _command(sub, "gradcheck", cmd_gradcheck,
             "finite-difference gradient suite")
    return parser


_ERROR_CATEGORIES = (
    (ParseError, 3), (LabelError, 4), (DataError, 5),
    (CalibrationError, 6), (OSError, 7), (CheckpointError, 9),
    (NonFiniteError, 10), (ValueError, 8),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_options(args)
        return args.func(args)
    except Exception as exc:  # categorized nonzero exits
        for etype, code in _ERROR_CATEGORIES:
            if isinstance(exc, etype):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
