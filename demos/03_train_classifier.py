"""End-to-end run: prepare a noisy dataset, train the stacked denoising
classifier and the plain-encoder baseline, and compare them on the noisy
test split.

Takes a minute or two on one CPU core.

Run with:  python3 demos/03_train_classifier.py
"""

import tempfile
from pathlib import Path

from denoiseclf.data import (load_corpus, make_dataset, sentences_of,
                             split_corpus, synthetic_corpus)
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.metrics import macro_scores, micro_scores
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.noise import NoiseSpec, pool_of
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import TrainConfig, evaluate, fit

# ---------------------------------------------------------------------------
# 1. Build a paired noisy dataset (clean sentences kept for the train split)
# ---------------------------------------------------------------------------
out = Path(tempfile.mkdtemp())
corpus = synthetic_corpus(50, num_classes=2, seed=7)
train_clean, test_clean = split_corpus(corpus, test_fraction=0.3, seed=7)
spec = NoiseSpec(p_delete=0.1, p_substitute=0.1,
                 pool=pool_of(s for _, s in corpus), seed=7, target_wer=0.30)
manifest = make_dataset(train_clean, test_clean, spec, out)
print(f"dataset written to {out}")
print(f"  pooled WER {manifest['wer_pooled']:.3f}, "
      f"iBLEU {manifest['ibleu']:.3f}, "
      f"{manifest['train_size']} train / {manifest['test_size']} test")

train = load_corpus(out / "train.tsv", split="train")
test = load_corpus(out / "test.tsv", split="test")
print(f"  sample pair: {train[0].incomplete!r} <- {train[0].complete!r}")

# ---------------------------------------------------------------------------
# 2. Train both modes with the same budget
# ---------------------------------------------------------------------------
vocab = build_vocab(sentences_of(train))


def run(mode: str):
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=16, seq_len=12, num_layers=1,
                              num_heads=2, ff_size=32,
                              vocab_size=len(vocab) + 4, num_classes=2),
        denoise=DenoiseConfig.for_hidden_size(16),
        n_post=1, mode=mode)
    model = TextClassifier(config, vocab, seed=0)
    cfg = TrainConfig(phase1_epochs=30, phase1_lr=5e-3,
                      phase2_epochs=10, phase2_lr=5e-3, batch_size=8, seed=0)
    # phase 1 (stacked only): freeze the encoder, fit the denoising stacks
    # under MSE; phase 2: end-to-end cross-entropy with linear warmup/decay
    curve, history = fit(train, model, cfg)
    if curve:
        print(f"  [{mode}] phase-1 MSE {curve[0]:.4f} -> {curve[-1]:.4f}")
    print(f"  [{mode}] phase-2 CE  {history[0]['loss']:.4f} -> "
          f"{history[-1]['loss']:.4f}")
    return model


print("\n== stacked (denoising) model ==")
stacked = run("stacked")
print("\n== baseline (encoder-only) model ==")
baseline = run("baseline")

# ---------------------------------------------------------------------------
# 3. Evaluate on the noisy test split (clean text is never available there)
# ---------------------------------------------------------------------------
print("\n== noisy test split ==")
for name, model in (("stacked ", stacked), ("baseline", baseline)):
    cm = evaluate(test, model)
    print(f"  {name}: micro F1 {micro_scores(cm):.3f}  "
          f"macro F1 {macro_scores(cm).f1:.3f}")

probs, label = stacked.predict_sentence(test[0].incomplete)
print(f"\n  example: {test[0].incomplete!r}")
print(f"  stacked prediction: class {label} "
      f"(p = {probs[label]:.3f}, true = {test[0].label})")
