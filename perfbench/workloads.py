"""The four benchmark workloads, each a seeded set-up plus a repeatable round.

A workload's ``setup`` builds every input from the seed and returns the
state a round needs; the runner times it. ``run_round`` performs one fixed
unit of work through the library API, checks its outputs and returns a
``Round``. Rounds of one run are identical work, so their fingerprints must
match bit for bit and their timings can be pooled.

Sizes follow the acceptance criteria the workloads are named after; the
``smoke`` scale shrinks them so the whole benchmark runs in seconds.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from denoiseclf.checkpoint import load_checkpoint, save_checkpoint
from denoiseclf.data import (PairedExample, load_corpus, make_dataset,
                             split_corpus, synthetic_corpus)
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.metrics import ConfusionMatrix, micro_scores
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.noise import NoiseSpec, corrupt
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import TrainConfig, evaluate, train_phase1, train_phase2


@dataclass
class Round:
    """One measured unit of work and the outcome of its output checks."""
    items: int             # work units done in ``busy_s``
    busy_s: float          # time of the calls that did them
    op_ms: list[float]     # latency samples of the workload's unit operation
    examples: int          # sentences pushed through the model (or corrupted)
    attempted: int
    failed: int
    fingerprint: tuple     # must repeat exactly across rounds of one seed
    report: dict = field(default_factory=dict)  # named values for humans


def _timed_epochs(clock):
    """A training ``log`` callback that stamps the end of every epoch."""
    stamps: list[float] = []
    return stamps, lambda record: stamps.append(clock())


def _epoch_ms(stamps: list[float]) -> list[float]:
    return [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]


def _snapshot(model: TextClassifier) -> dict[str, np.ndarray]:
    return {name: p.values.copy() for name, p in model.named_parameters()}


def _restore(model: TextClassifier, snapshot: dict[str, np.ndarray]) -> None:
    for name, p in model.named_parameters():
        p.values = snapshot[name].copy()
        p.grad = None


def _pool(sentences) -> tuple[str, ...]:
    return tuple(sorted({w for s in sentences for w in s.split()}))


def _file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    setup_reps = 5      # set-ups per run; the median is setup_s
    op_name = ""        # the unit operation whose latency op_mean_ms reports

    def __init__(self, seed: int, workdir: Path, smoke: bool, clock):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.clock = clock   # seconds; every timing in a round uses it

    def setup(self):
        raise NotImplementedError

    def check_setup(self, state) -> tuple[int, int]:
        """(attempted, failed) for checks that run once per set-up."""
        return 0, 0

    def run_round(self, state, index: int) -> Round:
        raise NotImplementedError


class Pretrain(Workload):
    name = "pretrain"
    op_name = "epoch"
    setup_reps = 15

    def setup(self):
        n_pairs, epochs = (24, 3) if self.smoke else (200, 20)
        corpus = synthetic_corpus(n_pairs // 2, num_classes=2,
                                  seed=self.seed)[:n_pairs]
        spec = NoiseSpec(p_delete=0.15, p_substitute=0.15,
                         pool=_pool(s for _, s in corpus), seed=self.seed)
        pairs = [PairedExample(label, corrupt(s, spec, i) or s, s)
                 for i, (label, s) in enumerate(corpus)]
        vocab = build_vocab([p.incomplete for p in pairs] +
                            [p.complete for p in pairs])
        config = ModelConfig(
            encoder=EncoderConfig(hidden_size=64, seq_len=32, num_layers=2,
                                  num_heads=4, vocab_size=len(vocab) + 4),
            denoise=DenoiseConfig(dims=(64, 32, 16, 8), activation="tanh"))
        model = TextClassifier(config, vocab, seed=self.seed)
        cfg = TrainConfig(phase1_epochs=epochs, phase1_lr=1e-3,
                          batch_size=8, seed=self.seed)
        return pairs, model, cfg, _snapshot(model)

    def run_round(self, state, index):
        pairs, model, cfg, initial = state
        _restore(model, initial)
        stamps, log = _timed_epochs(self.clock)
        start = self.clock()
        curve = train_phase1(pairs, model, cfg, log=log)
        wall = self.clock() - start
        ok = all(math.isfinite(x) for x in curve) and curve[-1] < curve[0]
        items = len(pairs) * cfg.phase1_epochs
        # the first epoch also pays for caching the embeddings: left out
        epoch_ms = _epoch_ms(stamps)
        return Round(items, wall, epoch_ms, items, 1, int(not ok), tuple(curve),
                     {"train_examples_per_s": (items / wall, "1/s"),
                      "final_loss": (curve[-1], "mse")})


class Finetune(Workload):
    name = "finetune"
    op_name = "epoch"

    def _config(self, vocab_len: int, mode: str) -> ModelConfig:
        return ModelConfig(
            encoder=EncoderConfig(hidden_size=16, seq_len=12, num_layers=1,
                                  num_heads=2, ff_size=32,
                                  vocab_size=vocab_len + 4, num_classes=2),
            denoise=DenoiseConfig(dims=(16, 12, 10, 8), activation="tanh"),
            n_post=1, mode=mode)

    def setup(self):
        epochs = 4 if self.smoke else 10
        corpus = synthetic_corpus(70, num_classes=2, seed=self.seed)
        train_clean, test_clean = split_corpus(corpus, 0.4, self.seed)
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1,
                         pool=_pool(s for _, s in corpus), seed=self.seed,
                         target_wer=0.30)
        out = self.workdir / "finetune-data"
        make_dataset(train_clean, test_clean, spec, out)
        train = load_corpus(out / "train.tsv", split="train")
        test = load_corpus(out / "test.tsv", split="test")
        vocab = build_vocab([ex.incomplete for ex in train] +
                            [ex.complete for ex in train])
        # An end-to-end stacked model trained from a random init sits at
        # chance for dozens of epochs at this scale, so, as in the
        # robustness criterion, the encoder and head start from a baseline
        # fine-tuned on the clean sentences.
        baseline = TextClassifier(self._config(len(vocab), "baseline"),
                                  vocab, seed=self.seed)
        train_phase2([PairedExample(ex.label, ex.complete) for ex in train],
                     baseline, TrainConfig(phase2_epochs=12,
                                           phase2_lr=5e-3, batch_size=8,
                                           seed=self.seed))
        model = TextClassifier(self._config(len(vocab), "stacked"), vocab,
                               seed=self.seed)
        shared = dict(baseline.named_parameters())
        for name, p in model.named_parameters():
            if name in shared:
                p.values = shared[name].values.copy()
        cfg = TrainConfig(phase2_epochs=epochs, phase2_lr=2e-3,
                          batch_size=8, seed=self.seed, aux_mse_weight=0.1)
        return train, test, model, cfg, _snapshot(model)

    def run_round(self, state, index):
        train, test, model, cfg, initial = state
        _restore(model, initial)
        stamps, log = _timed_epochs(self.clock)
        start = self.clock()
        history = train_phase2(train, model, cfg, log=log)
        wall = self.clock() - start
        cm = evaluate(test, model)
        f1 = micro_scores(cm)
        losses = [h["loss"] for h in history]
        ok = all(math.isfinite(x) for x in losses) and f1 > 1.0 / cm.num_classes
        items = len(train) * cfg.phase2_epochs
        return Round(items, wall, _epoch_ms([start] + stamps),
                     items + len(test), 1, int(not ok),
                     (*losses, f1, cm.counts.tobytes()),
                     {"train_examples_per_s": (items / wall, "1/s"),
                      "final_loss": (losses[-1], "nats"),
                      "micro_f1": (f1, "share")})


class Classify(Workload):
    name = "classify"
    op_name = "predict"
    setup_reps = 15
    n_identity = 32   # test sentences compared between saved and reloaded model

    def setup(self):
        per_class = 8 if self.smoke else 200
        corpus = synthetic_corpus(per_class, num_classes=2, seed=self.seed)
        train_clean, test_clean = split_corpus(corpus, 0.5, self.seed)
        spec = NoiseSpec(p_delete=0.15, p_substitute=0.15,
                         pool=_pool(s for _, s in corpus), seed=self.seed)
        test = [PairedExample(label, corrupt(s, spec, i) or s)
                for i, (label, s) in enumerate(test_clean)]
        vocab = build_vocab([s for _, s in train_clean])
        config = ModelConfig(
            encoder=EncoderConfig(hidden_size=64, seq_len=32, num_layers=2,
                                  num_heads=4, vocab_size=len(vocab) + 4),
            denoise=DenoiseConfig(dims=(64, 32, 16, 8), activation="tanh"),
            n_post=2)
        model = TextClassifier(config, vocab, seed=self.seed)
        path = self.workdir / "classify.ckpt"
        save_checkpoint(model, path)
        return test, model, load_checkpoint(path)

    def check_setup(self, state):
        test, saved, loaded = state
        same = all(np.array_equal(saved.predict_sentence(ex.incomplete)[0],
                                  loaded.predict_sentence(ex.incomplete)[0])
                   for ex in test[:self.n_identity])
        return 1, int(not same)

    def run_round(self, state, index):
        test, _, model = state
        start = self.clock()
        cm = evaluate(test, model)
        wall = self.clock() - start
        # closed loop: one client sends the next sentence once the last
        # prediction has returned
        one_by_one = ConfusionMatrix(cm.num_classes)
        op_ms = []
        for ex in test:
            t0 = self.clock()
            _, label = model.predict_sentence(ex.incomplete)
            op_ms.append(1000.0 * (self.clock() - t0))
            one_by_one.add(ex.label, label)
        same = np.array_equal(cm.counts, one_by_one.counts)
        return Round(len(test), wall, op_ms, 2 * len(test), 1 + len(test),
                     int(not same), (cm.counts.tobytes(),),
                     {"eval_sentences_per_s": (len(test) / wall, "1/s")})


class Prepare(Workload):
    name = "prepare"
    op_name = "prepare"
    setup_reps = 9
    # Bisection reaches this target at its fourth pass on every seed tried;
    # at 0.30 the pass count flips between 4 and 5 with the seed, which
    # moves the work per round by a fifth.
    target_wer = 0.35
    tolerance = 0.05   # calibrate()'s default; make_dataset does not change it

    def setup(self):
        per_class = 20 if self.smoke else 500
        corpus = synthetic_corpus(per_class, num_classes=3, seed=self.seed)
        train_clean, test_clean = split_corpus(corpus, 0.25, self.seed)
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.02,
                         p_abbreviate=0.05, p_casual=0.05,
                         pool=_pool(s for _, s in corpus), seed=self.seed,
                         target_wer=self.target_wer)
        return train_clean, test_clean, spec

    def run_round(self, state, index):
        train_clean, test_clean, spec = state
        out = self.workdir / f"prepare-{index}"
        start = self.clock()
        manifest = make_dataset(train_clean, test_clean, spec, out)
        wall = self.clock() - start
        files = [out / n for n in ("train.tsv", "test.tsv", "manifest.txt")]
        digest = _file_digest(files)
        shutil.rmtree(out)
        ok = abs(manifest["wer_pooled"] - self.target_wer) <= self.tolerance
        n = len(train_clean) + len(test_clean)
        return Round(n, wall, [1000.0 * wall], n, 1, int(not ok), (digest,),
                     {"prepare_sentences_per_s": (n / wall, "1/s"),
                      "wer_pooled": (manifest["wer_pooled"], "share")})


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Classify, Prepare)}

