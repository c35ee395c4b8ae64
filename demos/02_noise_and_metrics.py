"""The corruption channel and the noise/classification metrics.

Shows how clean sentences are corrupted into "incomplete" versions, how the
channel is calibrated to a target word error rate, and how WER, iBLEU and
the confusion-matrix scores are computed.

Run with:  python3 demos/02_noise_and_metrics.py
"""

from denoiseclf.data import synthetic_corpus
from denoiseclf.metrics import (ConfusionMatrix, corpus_wer, ibleu,
                                macro_scores, micro_scores, normalize_matrix,
                                wer)
from denoiseclf.noise import (NoiseSpec, calibrate, corrupt,
                              load_stt_fixture_pairs, pool_of)

# ---------------------------------------------------------------------------
# 1. One sentence through each corruption category
# ---------------------------------------------------------------------------
print("== corruption categories ==")
sentence = "please send the message about tomorrow night"
for name, spec in [
        ("delete    ", NoiseSpec(p_delete=0.5, seed=1)),
        ("repeat    ", NoiseSpec(p_repeat=0.5, seed=1)),
        ("abbreviate", NoiseSpec(p_abbreviate=1.0)),
        ("casual    ", NoiseSpec(p_casual=1.0)),
]:
    print(f"  {name}: {corrupt(sentence, spec)}")

# ---------------------------------------------------------------------------
# 2. Calibrating the channel to a target WER
# ---------------------------------------------------------------------------
print("\n== calibration to WER 0.25 ==")
corpus = [s for _, s in synthetic_corpus(40, num_classes=2, seed=0)]
spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, pool=pool_of(corpus),
                 seed=0, target_wer=0.25)
# the last bisection pass comes back with the spec: its corpus and WER
calibrated, noisy, (pooled, mean) = calibrate(corpus, spec)
print(f"  calibrated p_delete={calibrated.p_delete:.3f} "
      f"p_substitute={calibrated.p_substitute:.3f}")
print(f"  pooled WER = {pooled:.3f}  per-sentence mean = {mean:.3f}")
print(f"  corpus iBLEU (1 - BLEU, higher = noisier) = "
      f"{ibleu(corpus, noisy):.3f}")
print(f"  sample: {corpus[0]!r}\n      ->  {noisy[0]!r}")

# ---------------------------------------------------------------------------
# 3. Real speech-transcription noise shipped as a fixture
# ---------------------------------------------------------------------------
print("\n== shipped transcription pairs ==")
triples = load_stt_fixture_pairs()
for engine, ref, hyp in triples[:3]:
    print(f"  [{engine}] {ref!r}")
    print(f"      -> {hyp!r}  (wer {wer(ref, hyp):.3f})")
refs = [r for _, r, _ in triples]
hyps = [h for _, _, h in triples]
print(f"  pooled WER over all {len(triples)} pairs: "
      f"{corpus_wer(refs, hyps)[0]:.3f}")

# ---------------------------------------------------------------------------
# 4. Classification scores from a confusion matrix
# ---------------------------------------------------------------------------
print("\n== confusion-matrix scores ==")
cm = ConfusionMatrix.from_counts([[15, 5], [10, 20]])
scores = macro_scores(cm)
print(f"  counts:\n    {cm.counts[0]}\n    {cm.counts[1]}")
print(f"  normalized rows: {normalize_matrix(cm).round(3).tolist()}")
print(f"  micro F1 (= accuracy): {micro_scores(cm):.4f}")
print(f"  macro P = {scores.precision:.4f}, macro R = {scores.recall:.4f}, "
      f"macro F1 = {scores.f1:.4f}")
