"""Pinned SHA-256 digests of the synthetic corpora, of the corruption
channel's output and of checkpoint files.

Regenerated corpora must stay byte-identical across versions of the
package, not only across runs of one version: a faster kernel in
``noise``, ``metrics`` or ``data.synthetic_corpus`` that shifts one
random draw, one threshold or one WER float changes these digests.
Checkpoints of seeded, untrained models pin the parameter init and the
file format the same way; a trained model's bytes depend on the host's
BLAS kernels, so a tiny trained run's losses, parameter checksums and
probabilities are pinned to 1e-10 instead.
A deliberate change to any of these outputs has to update its pins and say
so.
"""

import hashlib

import numpy as np
import pytest

from denoiseclf.checkpoint import save_checkpoint
from denoiseclf.data import (PairedExample, make_dataset, sentences_of,
                             split_corpus, synthetic_corpus)
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.noise import NoiseSpec, corrupt_corpus, pool_of
from denoiseclf.tokenizer import build_vocab
from denoiseclf.train import TrainConfig, fit

# words from both replacement tables, so all five categories change text
WORDS = ("please", "you", "your", "message", "people", "tomorrow", "thanks",
         "want", "going", "know", "about", "night", "the", "good", "dreams",
         "send", "train", "late", "station", "really", "day", "so")


def labeled_corpus(n=48, seed=4):
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(3)),
             " ".join(rng.choice(WORDS, size=int(rng.integers(4, 10)))))
            for _ in range(n)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def all_kinds_spec(**extra) -> NoiseSpec:
    return NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.05,
                     p_abbreviate=0.1, p_casual=0.1,
                     pool=pool_of(s for _, s in labeled_corpus()), seed=4,
                     **extra)


DATASET_DIGESTS = {
    "fixed": {
        "train.tsv": "cbe00b8501312b3d1c5d9fd655704f6225f6a14ddb6eef6235ebd2f314d17ab6",
        "test.tsv": "7407802f501c1873ee2a485177a8b95c18da7b31be4572eb39135145e89b6033",
        "manifest.txt": "81a89017248d940c9a9e68e55cce0d02ae3f5ec3a7fac9e01fa92fc8f0aabef5",
    },
    "target": {
        "train.tsv": "69815c52aec5c3978b01fbece0f2cf6cf7e7c20daa44ca47f95f61392d56aa84",
        "test.tsv": "7fd19863af3b1a9efae4c53a8d9c5b9b9753a058a3baa43ef6552215269b3e4d",
        "manifest.txt": "6380b22ce995ee6467ed2b07b66fc38f66fae9578d29bf57c10c794d7048c76a",
    },
    # the prepare benchmark workload's dataset at seed 101
    "prepare": {
        "train.tsv": "5c27c81ed67100d2a515191e459f00a06c1c8ba5f6f0909248438062b12aa763",
        "test.tsv": "965dc82f1ab4e67948e4ebbe383b1e3c5932ed90769b4dc7c3e0414899b63dfb",
        "manifest.txt": "e870b5fc1ba4ba77813d2b11ec48fa38ba04908fe03ad4a3ebbe65ed3339f046",
    },
}


@pytest.mark.parametrize("case", sorted(DATASET_DIGESTS))
def test_make_dataset_files(case, tmp_path):
    if case == "prepare":
        corpus = synthetic_corpus(500, 3, 101)
        spec = NoiseSpec(p_delete=0.1, p_substitute=0.1, p_repeat=0.02,
                         p_abbreviate=0.05, p_casual=0.05,
                         pool=pool_of(s for _, s in corpus),
                         seed=101, target_wer=0.35)
        train, test = split_corpus(corpus, 0.25, 101)
    else:
        spec = all_kinds_spec(target_wer=0.3 if case == "target" else None)
        train, test = split_corpus(labeled_corpus(), 0.25, 4)
    make_dataset(train, test, spec, tmp_path)
    got = {name: sha256((tmp_path / name).read_bytes())
           for name in DATASET_DIGESTS[case]}
    assert got == DATASET_DIGESTS[case]


# (n_per_class, num_classes, seed) of the benchmark workloads at seed 101
# (prepare, classify, pretrain, finetune), criterion 3 and demo 03
SYNTHETIC_DIGESTS = {
    (500, 3, 101): "54abd165b48dfbb29636e2d8efcd7e452dd3492a7538b17faaf8db00211e56ea",
    (200, 2, 101): "25f9f6ab09ca0a98c23f660bb8d5cf7cebd2fa421d45913f4ef2aa107b3db635",
    (100, 2, 101): "ea8d19561cb0ac134becebe244dced659d784ebf0d123bfe4fc369ad3f7b2182",
    (70, 2, 101): "ca213dd0307bff0563ae97ff8dfd7661c2320e349d35810c22471859338bb816",
    (100, 2, 0): "031b3f7e126f10965d0c695fc49d76d469593a360c513e65ed7ae0b2ccae303c",
    (50, 2, 7): "b123efda3e5883a93a56fbdb4a49fce92faf30b4d7efd8cd4f474c26e499ce7d",
}


@pytest.mark.parametrize("args", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_corpus_output(args):
    corpus = synthetic_corpus(*args)
    text = "".join(f"{label}\t{sentence}\n" for label, sentence in corpus)
    assert sha256(text.encode("utf-8")) == SYNTHETIC_DIGESTS[args]


CORPUS_DIGESTS = {
    "empty_pool": (
        NoiseSpec(p_delete=0.1, p_substitute=0.4, p_repeat=0.1,
                  p_abbreviate=0.1, p_casual=0.1, seed=6),
        "7ef9847c951603e38488f3c07867beb02f2c491adad34c9c3011ba202d2ec7c0"),
}


@pytest.mark.parametrize("case", sorted(CORPUS_DIGESTS))
def test_corrupt_corpus_output(case):
    spec, expected = CORPUS_DIGESTS[case]
    noisy = corrupt_corpus([s for _, s in labeled_corpus()], spec)
    assert sha256("\n".join(noisy).encode("utf-8")) == expected


CHECKPOINT_DIGESTS = {
    "stacked_tanh": "ab8f20229428612e8e2af4877760470a4f4e4266ce7176334af711b9adb2e71b",
    "baseline": "ba5983d39508b9ddfa6d20a9336b82d8499fada13162a8d78d54fb5185900b05",
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_DIGESTS))
def test_untrained_checkpoint_bytes(case, tmp_path):
    vocab = build_vocab([s for _, s in labeled_corpus()])
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab) + 4, num_classes=3),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
        n_post=1, mode="stacked" if case == "stacked_tanh" else "baseline")
    path = tmp_path / "model.ckpt"
    save_checkpoint(TextClassifier(config, vocab, seed=12), path)
    assert sha256(path.read_bytes()) == CHECKPOINT_DIGESTS[case]


# A seeded tiny stacked run: phase 1, then phase 2 with the aux MSE and one
# unpaired example. A refactor that only moves a summation order keeps
# these within TRAINED_RTOL; any other change to the training math moves
# them further.
TRAINED_RTOL = 1e-10
TRAINED_CORPUS = [
    PairedExample(0, "good nite", "good night"),
    PairedExample(0, "sweet dreamz tonight", "sweet dreams tonight"),
    PairedExample(0, "happy fun day", "happy fun day"),
    PairedExample(1, "bad day", "bad day"),
    PairedExample(1, "awful trouble", "awful trouble again"),
    PairedExample(1, "hard work pain", "hard work pain"),
    PairedExample(1, "late train again", None),
]


def checksum(values: np.ndarray) -> float:
    """Position-weighted sum of magnitudes: no cancellation, and a moved
    entry changes it."""
    return float(np.abs(values).ravel() @ np.linspace(1.0, 2.0, values.size))


def trained_run():
    vocab = build_vocab(sentences_of(TRAINED_CORPUS))
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab) + 4, num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
        n_post=1)
    model = TextClassifier(config, vocab, seed=9)
    cfg = TrainConfig(phase1_epochs=4, phase1_lr=1e-2, phase2_epochs=3,
                      phase2_lr=2e-2, batch_size=3, seed=3,
                      aux_mse_weight=0.5)
    curve, records = fit(TRAINED_CORPUS, model, cfg)
    probs, _ = model.predict([model.encode_sentence(ex.incomplete)
                              for ex in TRAINED_CORPUS])
    return {"phase1": curve, "phase2": [r["loss"] for r in records],
            "params": {name: checksum(p.values)
                       for name, p in model.named_parameters()},
            "probs": probs.ravel().tolist()}


TRAINED = {
    "phase1": [
        0.9660510276024216, 0.8664881563282084, 0.8040963195642467,
        0.7463881274467767],
    "phase2": [
        1.0975575511344549, 0.9644035555568479, 0.9213638100922491],
    "params": {
        "encoder.token_table": 10.954387079040862,
        "encoder.segment_table": 1.3071232560353487,
        "encoder.position_table": 3.7733961624864634,
        "encoder.block0.wq": 1.433726026111637,
        "encoder.block0.bq": 0.2991677715133695,
        "encoder.block0.wk": 1.638605766379875,
        "encoder.block0.bk": 6.821293520785083e-16,
        "encoder.block0.wv": 5.022153558180991,
        "encoder.block0.bv": 0.6771137716516151,
        "encoder.block0.wo": 4.249096733475437,
        "encoder.block0.bo": 0.6265056154051867,
        "encoder.block0.w1": 7.121647419770134,
        "encoder.block0.b1": 0.9564207126901287,
        "encoder.block0.w2": 7.272317141357227,
        "encoder.block0.b2": 0.605528033406383,
        "encoder.block0.ln1_g": 11.902600046617772,
        "encoder.block0.ln1_b": 0.6060411643832877,
        "encoder.block0.ln2_g": 11.913078928691315,
        "encoder.block0.ln2_b": 0.6043798060376747,
        "stack.down1.w1": 20.697396521610383,
        "stack.down1.b1": 0.3888197912087596,
        "stack.down1.w2": 16.55549370648343,
        "stack.down1.b2": 0.5569298111570697,
        "stack.down2.w1": 10.755446679198569,
        "stack.down2.b1": 0.36886207320436554,
        "stack.down2.w2": 9.672979700734123,
        "stack.down2.b2": 0.2895379355926575,
        "stack.down3.w1": 7.824561073656729,
        "stack.down3.b1": 0.21165013690752735,
        "stack.down3.w2": 3.408155760844634,
        "stack.down3.b2": 0.22623743462997623,
        "stack.up1.w1": 5.014413650340982,
        "stack.up1.b1": 0.4168067839243236,
        "stack.up1.w2": 7.840930289654444,
        "stack.up1.b2": 0.5056018787185098,
        "stack.up2.w1": 9.998184397382698,
        "stack.up2.b1": 0.6065868508999114,
        "stack.up2.w2": 18.52682797689804,
        "stack.up2.b2": 0.6870408824560694,
        "stack.up3.w1": 21.687763961673493,
        "stack.up3.b1": 0.8446258291741777,
        "stack.up3.w2": 20.800429417614662,
        "stack.up3.b2": 0.8572685793599398,
        "post.post0.wq": 4.221373515420377,
        "post.post0.bq": 0.569246271274295,
        "post.post0.wk": 3.5353682132712745,
        "post.post0.bk": 4.020972077682631e-14,
        "post.post0.wv": 4.0214903022139,
        "post.post0.bv": 0.65118671042122,
        "post.post0.wo": 4.020246842134473,
        "post.post0.bo": 0.6922076650444222,
        "post.post0.w1": 8.229368947813171,
        "post.post0.b1": 1.077370996535761,
        "post.post0.w2": 7.3244614293863135,
        "post.post0.b2": 0.6837311448839838,
        "post.post0.ln1_g": 11.65401976758713,
        "post.post0.ln1_b": 0.6851271538045991,
        "post.post0.ln2_g": 11.44619151688589,
        "post.post0.ln2_b": 0.5897407329106121,
        "head.w": 0.3281823307195111,
        "head.b": 0.013219740089564641,
    },
    "probs": [
        0.4965646449545973, 0.5034353550454026, 0.4965644602283413,
        0.5034355397716588, 0.4965663809610125, 0.5034336190389875,
        0.4965790249890019, 0.5034209750109981, 0.4965822255061894,
        0.5034177744938105, 0.49656905327231105, 0.5034309467276891,
        0.49655942817141413, 0.5034405718285859],
}


def test_trained_run_numbers():
    # the key biases get only rounding noise as gradient (a constant added
    # to all of a query's scores cancels in the softmax), so they stay near
    # 1e-14; the absolute term covers them
    got = trained_run()
    for key in ("phase1", "phase2", "probs"):
        np.testing.assert_allclose(got[key], TRAINED[key], rtol=TRAINED_RTOL,
                                   atol=1e-12, err_msg=key)
    assert list(got["params"]) == list(TRAINED["params"])
    for name, value in TRAINED["params"].items():
        np.testing.assert_allclose(got["params"][name], value,
                                   rtol=TRAINED_RTOL, atol=1e-12,
                                   err_msg=name)
