"""Two-phase training: reconstruction pre-training, then end-to-end
classification fine-tuning with a linear warmup/decay schedule.

Phase 1 freezes the encoder, caches the (incomplete, complete) embedding
pairs once, and optimizes only the denoising stacks under MSE. Phase 2
unfreezes everything and minimizes cross-entropy on the incomplete
sentences, optionally keeping the reconstruction MSE as an auxiliary term.
Every step runs one forward and one backward over the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .denoise import denoise_loss
from .metrics import ConfusionMatrix, DataError
from .model import TextClassifier
from .tensor import Adam, Tensor

# Sentences per forward in graph-free inference (evaluate, cache_embeddings).
# At H=64, L=32, 4 heads, 8 is faster than 4 or 16 and holds peak RSS where
# one-sentence forwards left it; 16 adds about 3.5 MB.
INFERENCE_CHUNK = 8


@dataclass(frozen=True)
class TrainConfig:
    phase1_epochs: int = 500
    phase1_lr: float = 1e-3
    weight_decay: float = 1e-5
    phase2_epochs: int = 3
    phase2_lr: float = 2e-5
    warmup_proportion: float = 0.1
    batch_size: int = 8
    seed: int = 0
    aux_mse_weight: float = 0.0  # keep reconstruction loss during phase 2
    include_complete_phase2: bool = False  # also train on complete sentences

    def __post_init__(self):
        if self.phase1_epochs <= 0 or self.phase2_epochs <= 0:
            raise ValueError("epoch counts must be positive")
        if not 0.0 <= self.warmup_proportion <= 1.0:
            raise ValueError("warmup proportion must lie in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


def warmup_linear(step: int, total_steps: int, warmup_proportion: float) -> float:
    """Piecewise-linear schedule factor: 0 -> 1 over the warmup steps, then
    1 -> 0 over the remainder. Continuous, peaks exactly once."""
    if total_steps <= 0:
        return 0.0
    w = max(1, math.ceil(warmup_proportion * total_steps))
    if step <= w:
        return step / w
    if total_steps == w:
        return 1.0
    return max(0.0, (total_steps - step) / (total_steps - w))


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _require_pairs(pairs) -> None:
    for i, ex in enumerate(pairs):
        if ex.complete is None:
            raise DataError(
                f"example {i} has no complete sentence; phase 1 needs pairs")


def _chunks(items, size: int = INFERENCE_CHUNK):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def cache_embeddings(pairs, model: TextClassifier) -> list[tuple[Tensor, Tensor]]:
    """Graph-free (h_inc, h_comp), each [H, L], per pair; valid while the
    encoder is frozen."""
    cached = []
    with T.no_grad():
        for chunk in _chunks(pairs):
            h_inc = model.intermediate(
                [model.encode_sentence(ex.incomplete) for ex in chunk])
            h_comp = model.intermediate(
                [model.encode_sentence(ex.complete) for ex in chunk])
            cached += [(Tensor(a), Tensor(b)) for a, b in zip(
                np.split(h_inc.values, len(chunk), axis=1),
                np.split(h_comp.values, len(chunk), axis=1))]
    return cached


def _columns(cached, batch, side: int) -> Tensor:
    """The batch's cached [H, L] maps side by side -> [H, B*L]."""
    return Tensor(np.concatenate([cached[i][side].values for i in batch],
                                 axis=1))


def phase1_loss(model: TextClassifier, cached, batch) -> Tensor:
    """Mean reconstruction MSE of the batch (indices into ``cached``).

    Every map has the same L, so one MSE over the concatenated columns is
    the mean of the per-example MSEs.
    """
    return denoise_loss(model.stack(_columns(cached, batch, 0)),
                        _columns(cached, batch, 1))


def train_phase1(pairs, model: TextClassifier, cfg: TrainConfig,
                 log=None) -> list[float]:
    """Train only the denoising stacks; returns the per-epoch mean MSE."""
    if not pairs:
        raise DataError("phase 1 needs a non-empty paired corpus")
    _require_pairs(pairs)
    cached = cache_embeddings(pairs, model)
    params = model.denoise_parameters()
    for p in params:
        p.requires_grad = True
    opt = Adam(params, lr=cfg.phase1_lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    curve = []
    for epoch in range(cfg.phase1_epochs):
        epoch_loss, count = 0.0, 0
        for batch in _batches(len(cached), cfg.batch_size, rng):
            loss = phase1_loss(model, cached, batch)
            epoch_loss += float(loss.values) * len(batch)
            count += len(batch)
            if cfg.phase1_lr > 0:
                loss.backward()
                opt.step()
        curve.append(epoch_loss / count)
        if log is not None:
            log({"phase": 1, "epoch": epoch, "loss": curve[-1],
                 "lr": cfg.phase1_lr})
    return curve


def _aux_loss(model: TextClassifier, exs, h_inc: Tensor) -> Tensor | None:
    """Sum over the batch's paired examples of their reconstruction MSE,
    divided by the batch size; ``h_inc`` is the batch's [H, B*L] encoding."""
    have = [j for j, ex in enumerate(exs) if ex.complete is not None]
    if not have:
        return None
    with T.no_grad():
        h_comp = model.intermediate(
            [model.encode_sentence(exs[j].complete) for j in have])
    if len(have) < len(exs):
        seq_len = h_inc.shape[1] // len(exs)
        cols = (np.asarray(have)[:, None] * seq_len
                + np.arange(seq_len)).reshape(-1)
        h_inc = h_inc[:, cols]
    aux = denoise_loss(model.stack(h_inc), h_comp)
    return T.mul(aux, Tensor(len(have) / len(exs)))


def phase2_loss(model: TextClassifier, exs, aux_mse_weight: float) -> Tensor:
    """Mean over the batch of each example's cross-entropy plus, for paired
    examples of a stacked model, ``aux_mse_weight`` times its
    reconstruction MSE."""
    seqs = [model.encode_sentence(ex.incomplete) for ex in exs]
    h_inc = model.intermediate(seqs)
    loss = T.cross_entropy(model.logits(seqs, h_inc), [ex.label for ex in exs])
    if aux_mse_weight > 0 and model.config.mode == "stacked":
        aux = _aux_loss(model, exs, h_inc)
        if aux is not None:
            loss = loss + T.mul(aux, Tensor(aux_mse_weight))
    return loss


def train_phase2(data, model: TextClassifier, cfg: TrainConfig,
                 log=None) -> list[dict]:
    """End-to-end fine-tuning on the classification objective."""
    if not data:
        raise DataError("phase 2 needs a non-empty corpus")
    examples = list(data)
    if cfg.include_complete_phase2:
        from .data import PairedExample
        examples += [PairedExample(ex.label, ex.complete, None)
                     for ex in data if ex.complete is not None]
    params = model.trainable_parameters()
    for p in params:
        p.requires_grad = True
    opt = Adam(params, lr=0.0, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed + 1)
    total_steps = cfg.phase2_epochs * math.ceil(len(examples) / cfg.batch_size)
    history = []
    step = 0
    for epoch in range(cfg.phase2_epochs):
        epoch_loss, count = 0.0, 0
        for batch in _batches(len(examples), cfg.batch_size, rng):
            step += 1
            lr = cfg.phase2_lr * warmup_linear(step, total_steps,
                                               cfg.warmup_proportion)
            loss = phase2_loss(model, [examples[i] for i in batch],
                               cfg.aux_mse_weight)
            epoch_loss += float(loss.values) * len(batch)
            count += len(batch)
            loss.backward()
            opt.lr = lr
            opt.step()
        history.append({"phase": 2, "epoch": epoch,
                        "loss": epoch_loss / count, "lr": lr})
        if log is not None:
            log(history[-1])
    return history


def evaluate(test, model: TextClassifier) -> ConfusionMatrix:
    """Accumulate predictions over the incomplete sentences only."""
    examples = list(test)
    if not examples:
        raise DataError("cannot evaluate on an empty test set")
    cm = ConfusionMatrix(model.config.encoder.num_classes)
    for chunk in _chunks(examples):
        _, labels = model.predict(
            [model.encode_sentence(ex.incomplete) for ex in chunk])
        for ex, label in zip(chunk, labels):
            cm.add(ex.label, int(label))
    return cm
