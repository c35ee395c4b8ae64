"""Two-phase training: reconstruction pre-training, then end-to-end
classification fine-tuning with a linear warmup/decay schedule.

Phase 1 freezes the encoder, caches the (incomplete, complete) embedding
pairs once, and optimizes only the denoising stacks under MSE. Phase 2
unfreezes everything and minimizes cross-entropy on the incomplete
sentences, optionally keeping the reconstruction MSE as an auxiliary term.
Both phases run the same epoch loop; every step runs one forward and one
backward over the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, NonFiniteError, check_fields
from .metrics import ConfusionMatrix
from .model import TextClassifier
from .tensor import Adam, Tensor

# Positions (sentences x width) per graph-free inference forward. 256 is
# the embedding cache's forward at the criterion scale, 8 sentences at
# L=32, so no forward holds more positions than that one. evaluate packs
# length-sorted sentences up to it: classify's evaluate (H=64, L=32, two
# post blocks, 200 noisy sentences) runs at 5070 sentences/s, against
# 4430 when the last post block computed every row and 3360 with 8
# sentences per trimmed forward before that (medians of 10 alternating
# pairs each, at reference speed, 1 BLAS thread, 2-vCPU Xeon host).
INFERENCE_ROWS = 256


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

    def __post_init__(self):
        check_fields(self)
        if self.phase1_epochs <= 0 or self.phase2_epochs <= 0:
            raise ConfigError("epoch counts must be positive")
        if not 0.0 <= self.warmup_proportion <= 1.0:
            raise ConfigError("warmup proportion must lie in [0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("phase1_lr", "phase2_lr", "weight_decay",
                     "aux_mse_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, "
                                  f"got {value}")


def warmup_linear(step: int, total_steps: int, warmup_proportion: float) -> float:
    """Piecewise-linear schedule factor at a step in 0..``total_steps``
    (>= 1): 0 -> 1 over the warmup steps, then 1 -> 0 over the remainder.
    Continuous, peaks exactly once."""
    w = max(1, math.ceil(warmup_proportion * total_steps))
    if step <= w:
        return step / w
    return max(0.0, (total_steps - step) / (total_steps - w))


def _require_pairs(pairs) -> None:
    for i, ex in enumerate(pairs):
        if ex.complete is None:
            raise DataError(
                f"example {i} has no complete sentence; phase 1 needs pairs")


def _length_packed(lengths):
    """Index lists over sentences of real ``lengths``, shortest first (a
    stable sort): each list grows while its size times its longest length
    stays within INFERENCE_ROWS, read per call; a sentence longer than the
    budget runs alone."""
    budget = INFERENCE_ROWS
    chunk = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and (len(chunk) + 1) * lengths[i] > budget:
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def cache_embeddings(pairs, model: TextClassifier
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Graph-free encoder outputs of the incomplete and of the complete
    sentences, each one [n, L, H] array of rows in pair order; valid while
    the encoder is frozen. These forwards run at the full width L, so they
    are packed as sentences of length L: ``INFERENCE_ROWS // L`` per forward
    (at least one), in pair order."""
    cfg = model.config.encoder
    inc, comp = np.empty((2, len(pairs), cfg.seq_len, cfg.hidden_size))
    with T.no_grad():
        for chunk in _length_packed([cfg.seq_len] * len(pairs)):
            for side, name in ((inc, "incomplete"), (comp, "complete")):
                side[chunk] = model.intermediate(
                    [model.encode_sentence(getattr(pairs[i], name))
                     for i in chunk]).values
    return inc, comp


def phase1_loss(model: TextClassifier, cached, batch) -> Tensor:
    """Mean reconstruction MSE of the batch, indices into the pairs of
    ``cached`` from ``cache_embeddings``. Every sentence has the same L, so
    one MSE over the batch is the mean of the per-example MSEs."""
    inc, comp = cached
    return model.stack.loss(Tensor(inc[batch]), comp[batch])


def _train_epochs(phase: int, epochs: int, n: int, params, batch_loss,
                  lr_at, seed: int, cfg: TrainConfig, log) -> list[dict]:
    """The epoch loop of both phases: Adam over ``params``; per step the lr
    ``lr_at(step)`` (steps count from 1), one forward ``batch_loss(batch)``
    on a shuffled batch of indices into the ``n`` items, one backward and
    one Adam step. A batch loss that is not finite raises
    ``NonFiniteError`` before its backward, so Adam writes nothing; numpy
    warns of no overflow on the way, so that error is all a diverging run
    reports. Makes one record per epoch, its mean loss and last lr, and
    hands it to ``log`` after the epoch's last step."""
    opt = Adam(params, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)
    records = []
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            epoch_loss = 0.0
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                step += 1
                opt.lr = lr_at(step)
                loss = batch_loss(batch)
                value = float(loss.values)
                if not math.isfinite(value):
                    raise NonFiniteError(
                        f"phase {phase}, epoch {epoch}, step {step}: batch "
                        f"loss is {value}")
                epoch_loss += value * len(batch)
                loss.backward()
                opt.step()
            records.append({"phase": phase, "epoch": epoch,
                            "loss": epoch_loss / n, "lr": opt.lr})
            if log is not None:
                log(records[-1])
    return records


def train_phase1(pairs, model: TextClassifier, cfg: TrainConfig,
                 log=None) -> list[float]:
    """Train only the denoising stacks; returns the per-epoch mean MSE."""
    if not pairs:
        raise DataError("phase 1 needs a non-empty paired corpus")
    _require_pairs(pairs)
    cached = cache_embeddings(pairs, model)
    records = _train_epochs(
        1, cfg.phase1_epochs, len(pairs), model.denoise_parameters(),
        lambda batch: phase1_loss(model, cached, batch),
        lambda step: cfg.phase1_lr, cfg.seed, cfg, log)
    return [r["loss"] for r in records]


def _with_aux(model: TextClassifier, aux_mse_weight: float) -> bool:
    return aux_mse_weight > 0 and model.config.mode == "stacked"


def _encode_examples(model: TextClassifier, exs, complete: bool) -> list:
    """Each example as (incomplete sequence, label, complete sequence or
    None); the complete sentence is encoded only when ``complete``."""
    return [(model.encode_sentence(ex.incomplete), ex.label,
             model.encode_sentence(ex.complete)
             if complete and ex.complete is not None else None)
            for ex in exs]


def _aux_loss(model: TextClassifier, comps, partial: Tensor) -> Tensor | None:
    """Sum over the batch's paired examples of their reconstruction MSE,
    divided by the batch size; ``comps`` holds each example's complete
    sequence or None, and ``partial`` is the denoise stack's [B, L, H]
    output for the batch's incomplete sentences. The target ``h_comp`` is
    computed under ``no_grad``, so training holds it constant (a
    stop-gradient): the encoder gets gradient only through ``partial``."""
    have = [j for j, seq in enumerate(comps) if seq is not None]
    if not have:
        return None
    with T.no_grad():
        h_comp = model.intermediate([comps[j] for j in have])
    if len(have) < len(comps):
        partial = partial[have]
    return T.mul(T.mse_loss(partial, h_comp), Tensor(len(have) / len(comps)))


def _encoded_phase2_loss(model: TextClassifier, items,
                         aux_mse_weight: float) -> Tensor:
    """``phase2_loss`` of examples already encoded by ``_encode_examples``."""
    seqs, labels, comps = zip(*items)
    with_aux = _with_aux(model, aux_mse_weight)
    partial = model.stack(model.intermediate(seqs)) if with_aux else None
    loss = T.cross_entropy(model.logits(seqs, partial), list(labels))
    aux = _aux_loss(model, comps, partial) if with_aux else None
    if aux is not None:
        loss = loss + T.mul(aux, Tensor(aux_mse_weight))
    return loss


def phase2_loss(model: TextClassifier, exs, aux_mse_weight: float) -> Tensor:
    """Mean over the batch of each example's cross-entropy plus, for paired
    examples of a stacked model, ``aux_mse_weight`` times its
    reconstruction MSE. The aux term reads the stack output of the
    classification forward, so the stack runs once per step. Its target,
    the complete sentence's embedding, is held constant (see
    ``_aux_loss``), so finite differences that move the target with the
    encoder do not match this loss's gradient."""
    items = _encode_examples(model, exs, _with_aux(model, aux_mse_weight))
    return _encoded_phase2_loss(model, items, aux_mse_weight)


def train_phase2(data, model: TextClassifier, cfg: TrainConfig,
                 log=None) -> list[dict]:
    """End-to-end fine-tuning on the classification objective. Every
    sentence is encoded once per call, not once per epoch."""
    if not data:
        raise DataError("phase 2 needs a non-empty corpus")
    items = _encode_examples(model, data,
                             _with_aux(model, cfg.aux_mse_weight))
    total_steps = cfg.phase2_epochs * math.ceil(len(items) / cfg.batch_size)
    return _train_epochs(
        2, cfg.phase2_epochs, len(items), model.trainable_parameters(),
        lambda batch: _encoded_phase2_loss(
            model, [items[i] for i in batch], cfg.aux_mse_weight),
        lambda step: cfg.phase2_lr * warmup_linear(
            step, total_steps, cfg.warmup_proportion),
        cfg.seed + 1, cfg, log)


def fit(data, model: TextClassifier, cfg: TrainConfig,
        log=None) -> tuple[list[float], list[dict]]:
    """Phase 1 on the paired examples of ``data`` if the model is stacked
    and has any, then phase 2 on all of ``data``: phase 1's curve, empty if
    it did not run, and phase 2's records."""
    paired = [ex for ex in data if ex.complete is not None]
    curve = []
    if model.config.mode == "stacked" and paired:
        curve = train_phase1(paired, model, cfg, log)
    return curve, train_phase2(data, model, cfg, log)


def evaluate(test, model: TextClassifier) -> ConfusionMatrix:
    """Accumulate predictions over the incomplete sentences only, run in
    forwards of similar-length sentences (``_length_packed``), since
    ``predict`` cuts each forward to its longest one."""
    examples = list(test)
    if not examples:
        raise DataError("cannot evaluate on an empty test set")
    seqs = [model.encode_sentence(ex.incomplete) for ex in examples]
    cm = ConfusionMatrix(model.config.encoder.num_classes)
    for chunk in _length_packed([sum(s.attention_mask) for s in seqs]):
        _, labels = model.predict([seqs[i] for i in chunk])
        for i, label in zip(chunk, labels):
            cm.add(examples[i].label, int(label))
    return cm
