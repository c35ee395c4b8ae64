"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line. Run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they complete.

The heavier criteria (denoising convergence, stacked-vs-baseline robustness)
train real models at toy scale and take a few minutes combined.
"""

import itertools
import math
import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from denoiseclf.checkpoint import (CheckpointError, load_checkpoint,
                                   save_checkpoint)
from denoiseclf.data import (PairedExample, config_lines, load_corpus,
                             make_dataset, sentences_of, split_corpus,
                             synthetic_corpus)
from denoiseclf.denoise import DenoiseConfig, DenoiseStack
from denoiseclf.encoder import EncoderConfig, ParamTable
from denoiseclf.metrics import (ConfusionMatrix, bleu, corpus_wer,
                                edit_distance, ibleu, macro_scores,
                                micro_scores, wer)
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.noise import NoiseSpec, load_stt_fixture_pairs, pool_of
from denoiseclf.tensor import Tensor
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import (TrainConfig, evaluate, train_phase1,
                              train_phase2)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {name}{suffix}", flush=True)
    sys.stdout.flush()
    assert passed, f"criterion {number}: {name}{suffix}"


# -- 1. gradient integrity ---------------------------------------------------

def test_criterion_1_gradient_integrity():
    from denoiseclf.gradcheck import run_all
    start = time.time()
    results = run_all(seed=0)
    elapsed = time.time() - start
    worst = max(r.max_rel_err for r in results)
    names = {r.name for r in results}
    ok = (all(r.passed for r in results) and elapsed < 60.0
          and len(results) >= 12
          and {"phase2_loss_affine", "phase2_loss_gelu_richardson"} <= names)
    _report(1, "gradcheck passes for every op and the end-to-end loss",
            ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2. shape fidelity at reference scale ------------------------------------

def test_criterion_2_reference_scale_shapes():
    cfg = DenoiseConfig(dims=(768, 128, 32, 12))
    stack = DenoiseStack(cfg, ParamTable(np.random.default_rng(0)))
    h = Tensor(np.zeros((768, 128)))
    z1, z2, z = stack.compress(h)
    rec = stack.reconstruct(z)
    ok = (z1.shape == (128, 128) and z2.shape == (32, 128)
          and z.shape == (12, 128) and rec.shape == (768, 128))
    _report(2, "denoise chain latents are (128,128), (32,128), (12,128) "
            "at hidden size 768, length 128", ok,
            f"got {z1.shape}, {z2.shape}, {z.shape}")


# -- 3. denoising convergence ------------------------------------------------

def test_criterion_3_denoising_convergence(tmp_path):
    corpus = synthetic_corpus(100, num_classes=2, seed=0)[:200]
    spec = NoiseSpec(p_delete=0.15, p_substitute=0.15,
                     pool=pool_of(s for _, s in corpus), seed=0)
    make_dataset(corpus, [], spec, tmp_path)
    pairs = load_corpus(tmp_path / "train.tsv")
    vocab = build_vocab(sentences_of(pairs))
    assert len(vocab) <= 120
    # the pure-affine default chain is a rank-limited linear map per
    # position, whose best achievable MSE (PCA floor) sits well above the
    # 10% target; the smooth-stage variant is used here
    config = ModelConfig(
        encoder=EncoderConfig(vocab_size=len(vocab) + 4),
        denoise=DenoiseConfig(dims=(64, 32, 16, 8), activation="tanh"))
    model = TextClassifier(config, vocab, seed=0)
    cfg = TrainConfig(phase1_epochs=500, phase1_lr=1e-3, batch_size=8, seed=0)
    start = time.time()
    curve = train_phase1(pairs, model, cfg)
    elapsed = time.time() - start
    ratio = curve[-1] / curve[0]
    ok = ratio <= 0.10 and elapsed < 300.0
    _report(3, "phase-1 MSE after 500 epochs is <= 10% of epoch-1 MSE "
            "on 200 pairs", ok,
            f"ratio {ratio:.4f}, {elapsed:.0f}s")


# -- 4. directional robustness -----------------------------------------------
#
# Protocol: both arms share one classifier fine-tuned on the clean side of
# the paired train split. The stacked arm then attaches the denoising
# stacks, trained in phase 1 against the (frozen) clean-sentence embeddings,
# so the comparison isolates the reconstruction mechanism. Both arms are
# scored on the noisy test split. Per-seed variation covers model init,
# batching and the stack's phase-1 run.

def _noisy_dataset(target_wer: float, seed: int, out_dir):
    corpus = synthetic_corpus(70, num_classes=2, seed=seed)
    train_clean, test_clean = split_corpus(corpus, 0.4, seed)
    spec = NoiseSpec(p_delete=0.1, p_substitute=0.1,
                     pool=pool_of(s for _, s in corpus), seed=seed,
                     target_wer=target_wer)
    manifest = make_dataset(train_clean, test_clean, spec, out_dir)
    return (load_corpus(out_dir / "train.tsv", split="train"),
            load_corpus(out_dir / "test.tsv", split="test"),
            manifest)


def _robustness_config(vocab_len: int, mode: str) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(hidden_size=16, seq_len=12, num_layers=1,
                              num_heads=2, ff_size=32,
                              vocab_size=vocab_len + 4, num_classes=2),
        denoise=DenoiseConfig(dims=(16, 12, 10, 8), activation="tanh"),
        n_post=0 if mode == "stacked" else None, mode=mode)


def _stacked_vs_baseline(train, test, seed: int) -> tuple[float, float]:
    vocab = build_vocab(sentences_of(train))
    clean_train = [PairedExample(ex.label, ex.complete, None)
                   for ex in train]
    cfg = TrainConfig(phase1_epochs=200, phase1_lr=5e-3, phase2_epochs=12,
                      phase2_lr=2e-3, batch_size=8, seed=seed)
    baseline = TextClassifier(_robustness_config(len(vocab), "baseline"),
                              vocab, seed=seed)
    train_phase2(clean_train, baseline, cfg)
    stacked = TextClassifier(_robustness_config(len(vocab), "stacked"),
                             vocab, seed=seed)
    shared = dict(baseline.named_parameters())
    for name, p in stacked.named_parameters():
        if name in shared:
            p.values = shared[name].values.copy()
    train_phase1(train, stacked, cfg)
    return (micro_scores(evaluate(test, stacked)),
            micro_scores(evaluate(test, baseline)))


def test_criterion_4_directional_robustness(tmp_path):
    gaps = {}
    wins = {}
    for target in (0.15, 0.30):
        train, test, manifest = _noisy_dataset(target, seed=100,
                                               out_dir=tmp_path / str(target))
        assert abs(manifest["wer_pooled"] - target) <= 0.05
        per_seed = []
        for seed in range(5):
            stacked, baseline = _stacked_vs_baseline(train, test, seed)
            per_seed.append(stacked - baseline)
        gaps[target] = float(np.mean(per_seed))
        wins[target] = sum(g >= -1e-9 for g in per_seed)
    ok = (wins[0.15] >= 4 and wins[0.30] >= 4
          and gaps[0.30] >= gaps[0.15] - 0.02)
    _report(4, "stacked >= baseline micro F1 in >= 4/5 seeds at both noise "
            "levels, and the margin does not shrink as WER rises", ok,
            f"wins {wins[0.15]}/5 and {wins[0.30]}/5, mean gap "
            f"{gaps[0.15]:+.3f} -> {gaps[0.30]:+.3f}")


# -- 5. metric oracle equivalence --------------------------------------------

@lru_cache(maxsize=None)
def _oracle_cost(a: tuple, b: tuple) -> int:
    """Independent memoized recursion; oracle for the DP implementation."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(_oracle_cost(a[1:], b) + 1,
               _oracle_cost(a, b[1:]) + 1,
               _oracle_cost(a[1:], b[1:]) + (a[0] != b[0]))


def test_criterion_5_metric_oracles():
    alphabet = ("a", "b", "c")
    seqs = [s for n in range(6)
            for s in itertools.product(alphabet, repeat=n)]
    exhaustive_ok = all(
        edit_distance(list(ref), list(hyp)) == _oracle_cost(ref, hyp)
        for ref in seqs for hyp in seqs)

    trigram = bleu(["the cat sat on mat"], ["the cat sat on rug"], max_n=3)
    expected_trigram = math.exp(
        (math.log(4 / 5) + math.log(3 / 4) + math.log(2 / 3)) / 3)
    bleu_ok = (
        abs(trigram - expected_trigram) < 1e-12
        and abs(bleu(["a b c d"], ["a b"], max_n=1) - math.exp(-1.0)) < 1e-12
        and bleu(["a b c d"], ["x y z w"]) == 0.0)

    micro = micro_scores(ConfusionMatrix.from_counts([[20, 5], [7, 18]]))
    macro = macro_scores(ConfusionMatrix.from_counts([[15, 5], [10, 20]]))
    # the worked F1_macro is 119/169 = 0.7041420...; asserted exactly.
    # micro == 38/50 is exact float equality: both sides are the same
    # correctly-rounded IEEE division, and Fraction confirms the rational.
    worked_ok = (
        micro == 38 / 50
        and Fraction(micro).limit_denominator(50) == Fraction(38, 50)
        and macro.precision == pytest.approx(0.7, abs=1e-15)
        and macro.recall == pytest.approx(17 / 24, abs=1e-15)
        and macro.f1 == pytest.approx(119 / 169, abs=1e-15))

    ok = exhaustive_ok and bleu_ok and worked_ok
    _report(5, "wer matches the exhaustive oracle (length <= 5), bleu "
            "matches hand counts to 1e-12, micro/macro match the worked "
            "examples", ok,
            f"exhaustive={exhaustive_ok} bleu={bleu_ok} worked={worked_ok}")


# -- 6. micro identity -------------------------------------------------------

def test_criterion_6_micro_identity():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(1000):
        n = int(rng.choice([2, 3, 5]))
        counts = rng.integers(0, 50, size=(n, n))
        counts.flat[int(rng.integers(n * n))] += 1  # nonzero total
        cm = ConfusionMatrix.from_counts(counts)
        micro = micro_scores(cm)
        # pooled one-vs-rest counts: TP = diagonal, FP/FN = off-diagonal
        tp = int(np.trace(counts))
        fp = int(counts.sum() - tp)
        fn = int(counts.sum() - tp)
        p = tp / (tp + fp)
        r = tp / (tp + fn)
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        total = counts.sum()
        # 2pr/(p+r) with p == r can land one ulp off p, so F1 gets a
        # relative tolerance; the P/R/accuracy identities stay exact
        if not (micro == p == r and micro == tp / total
                and math.isclose(f1, micro, rel_tol=1e-12)):
            ok = False
            break
    _report(6, "micro P == micro R == micro F1 == trace/total on 1000 "
            "random confusion matrices", ok)


# -- 7. noise calibration ----------------------------------------------------

def test_criterion_7_noise_calibration(tmp_path):
    from denoiseclf.cli import main
    argv = ["prepare", "--target-wer", "0.25", "--synthetic-per-class", "50",
            "--seed", "7"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code_a = main(argv + ["--outdir", str(dir_a)])
    code_b = main(argv + ["--outdir", str(dir_b)])
    manifest = config_lines(dir_a / "manifest.txt")
    pooled = float(manifest["wer_pooled"][1])
    noise_ibleu = float(manifest["ibleu"][1])
    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("train.tsv", "test.tsv", "manifest.txt"))
    ok = (code_a == 0 and code_b == 0 and 0.20 <= pooled <= 0.30
          and noise_ibleu > 0.0 and identical)
    _report(7, "prepare hits pooled WER in [0.20, 0.30] with positive "
            "iBLEU, byte-identical across runs", ok,
            f"wer {pooled:.3f}, ibleu {noise_ibleu:.3f}, "
            f"identical={identical}")


# -- 8. shipped-fixture noise scoring ----------------------------------------

def test_criterion_8_fixture_noise_scores():
    triples = load_stt_fixture_pairs()
    refs = [r for _, r, _ in triples]
    hyps = [h for _, _, h in triples]
    pooled, mean = corpus_wer(refs, hyps)
    score = ibleu(refs, hyps)
    exact = wer("how to get from bonner platz to freimann?",
                "how to get from bonner platz to fry.")
    ok = (math.isfinite(pooled) and math.isfinite(mean)
          and math.isfinite(score) and exact == 0.125)
    _report(8, "shipped transcription pairs score finite wer/ibleu and the "
            "freimann/fry pair scores exactly 0.125", ok,
            f"pooled wer {pooled:.3f}, ibleu {score:.3f}, pair {exact}")


# -- 9. persistence ----------------------------------------------------------

def test_criterion_9_persistence(tmp_path):
    vocab = build_vocab(["good night sweet dreams",
                         "bad day hard work trouble"])
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12, vocab_size=32,
                              num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2)), n_post=1)
    model = TextClassifier(config, vocab, seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    round_trip_ok = True
    for sentence in ("good night", "bad day trouble", "sweet work"):
        probs_a, _ = model.predict_sentence(sentence)
        probs_b, _ = loaded.predict_sentence(sentence)
        round_trip_ok &= bool(np.array_equal(probs_a, probs_b))

    payload = path.read_bytes()
    rng = np.random.default_rng(9)
    detected = 0
    trials = 60
    for _ in range(trials):
        pos = int(rng.integers(len(payload)))
        flipped = bytearray(payload)
        flipped[pos] ^= 1 + int(rng.integers(255))
        path.write_bytes(bytes(flipped))
        try:
            load_checkpoint(path)
        except CheckpointError:
            detected += 1
    ok = round_trip_ok and detected == trials
    _report(9, "checkpoint round-trip is bit-identical and every "
            "single-byte corruption is detected", ok,
            f"round_trip={round_trip_ok}, detected {detected}/{trials}")
