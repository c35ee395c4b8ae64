"""Inference runs only as wide as the batch's longest sentence; training
keeps the full ``seq_len`` width.

The full-width reference below is ``predict`` as it was before pads were
cut: the same graph-free forward over sequences padded to ``seq_len``.
"""

import numpy as np
import pytest

from denoiseclf import encoder
from denoiseclf import tensor as T
from denoiseclf.data import PairedExample, sentences_of
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.tokenizer import build_vocab, encode, trim_to_longest
from denoiseclf.train import (TrainConfig, cache_embeddings, fit,
                              phase2_loss)

SEQ_LEN = 10
PAIRS = [
    PairedExample(0, "good nite", "good night"),
    PairedExample(0, "sweet dreamz tonight my friend",
                  "sweet dreams tonight my friend"),
    PairedExample(0, "happy fun day", "happy fun day"),
    PairedExample(1, "bad day", "bad day"),
    PairedExample(1, "awful trouble again and again today",
                  "awful trouble again and again today"),
    PairedExample(1, "hard work pain", "hard work pain"),
]
LONGEST = 6 + 2    # "awful trouble ... today" framed as [CLS] ... [SEP]
TOO_LONG = "bad " * SEQ_LEN   # encode cuts it to SEQ_LEN - 2 words
TOL = 1e-12


def trained_model(mode):
    vocab = build_vocab(sentences_of(PAIRS))
    cfg = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=SEQ_LEN, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab) + 4, num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
        n_post=1, mode=mode)
    model = TextClassifier(cfg, vocab, seed=7)
    train_cfg = TrainConfig(phase1_epochs=3, phase2_epochs=3, phase2_lr=5e-3,
                            batch_size=4, seed=7, aux_mse_weight=0.5)
    fit(PAIRS, model, train_cfg)
    return model


@pytest.fixture(scope="module", params=["stacked", "baseline"])
def model(request):
    return trained_model(request.param)


def full_width_predict(model, seqs):
    with T.no_grad():
        probs = T.softmax(model.logits(seqs)).values
    return probs, np.argmax(probs, axis=-1)


def embed_widths(monkeypatch):
    """A list that collects the width L of every [B, L, H] embedding."""
    widths = []
    embed = encoder.embed

    def spy(seqs, params):
        out = embed(seqs, params)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(encoder, "embed", spy)
    return widths


def test_trim_keeps_every_real_position():
    vocab = build_vocab([ex.incomplete for ex in PAIRS])
    seqs = [encode(ex.incomplete, vocab, SEQ_LEN) for ex in PAIRS]
    for seq, cut in zip(seqs, trim_to_longest(seqs)):
        assert len(cut.token_ids) == len(cut.attention_mask) == LONGEST
        assert sum(cut.attention_mask) == sum(seq.attention_mask)
        for field in ("token_ids", "attention_mask"):
            assert getattr(cut, field) == getattr(seq, field)[:LONGEST]


def test_matches_full_width_on_a_mixed_length_batch(model):
    seqs = [model.encode_sentence(ex.incomplete) for ex in PAIRS]
    probs, labels = model.predict(seqs)
    ref_probs, ref_labels = full_width_predict(model, seqs)
    np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=TOL)
    np.testing.assert_array_equal(labels, ref_labels)
    # the sentences score apart by far more than TOL, so a lost real token
    # would show
    assert np.ptp(ref_probs[:, 0]) > 1e3 * TOL


def test_forward_width_is_the_longest_real_length(model, monkeypatch):
    widths = embed_widths(monkeypatch)
    model.predict([model.encode_sentence(ex.incomplete) for ex in PAIRS])
    model.predict_sentence("bad day")
    model.predict([model.encode_sentence(s) for s in ("bad day", TOO_LONG)])
    assert widths == [LONGEST, 4, SEQ_LEN]


def test_sentence_scores_the_same_alone_and_beside_a_longer_one(model):
    short, longer = PAIRS[3].incomplete, PAIRS[4].incomplete
    alone, alone_label = model.predict_sentence(short)
    for partner in (longer, TOO_LONG):
        probs, labels = model.predict(
            [model.encode_sentence(s) for s in (short, partner)])
        np.testing.assert_allclose(probs[0], alone, rtol=0, atol=TOL)
        assert labels[0] == alone_label


def test_training_runs_at_full_width(monkeypatch):
    model = trained_model("stacked")
    widths = embed_widths(monkeypatch)
    cached = cache_embeddings(PAIRS, model)
    assert widths and set(widths) == {SEQ_LEN}
    assert {h.shape for h in cached} == {(len(PAIRS), SEQ_LEN, 8)}
    widths.clear()
    phase2_loss(model, PAIRS[:4], aux_mse_weight=0.5)
    # the classification forward and the aux loss's complete sentences
    assert widths == [SEQ_LEN, SEQ_LEN]
