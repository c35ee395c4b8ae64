"""The block that feeds the classifier head computes only the [CLS] row:
its query, residual, layernorms and feed-forward run on [B, 1, H], while
keys and values still come from every row. Checked here against row 0 of
the full block, the path every other caller still takes."""

import numpy as np
import pytest

from denoiseclf import tensor as T
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig, field_rows, run_blocks
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.tokenizer import build_vocab

# one to six words at L=8: every sentence but the longest has pads
SENTENCES = ["good nite", "sweet dreamz tonight my good friend", "happy",
             "bad day again", "awful", "hard work and pain"]
LABELS = [0, 1, 2, 1, 0, 2]
FF = 12


def make_model(mode, n_post, num_layers=2, seed=1):
    vocab = build_vocab(SENTENCES)
    config = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=8,
                              num_layers=num_layers, num_heads=2,
                              ff_size=FF, vocab_size=len(vocab),
                              num_classes=3),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="tanh"),
        n_post=n_post, mode=mode)
    return TextClassifier(config, vocab, seed=seed)


def full_row_logits(model, seqs):
    """The head on row 0 of the full [B, L, H] features."""
    if model.config.mode == "baseline":
        h = model.intermediate(seqs)
    else:
        h = run_blocks(model.stack(model.intermediate(seqs)),
                       field_rows(seqs, "attention_mask"), model.post,
                       model.config.encoder.num_heads, cls_only=False)
    return T.affine(h[:, 0], model.head_w, model.head_b)


def logits_and_gradients(model, logits_fn):
    for p in model.parameters():
        p.grad = None
    logits = logits_fn()
    T.cross_entropy(logits, LABELS).backward()
    return logits.values, {name: p.grad for name, p
                           in model.named_parameters()}


@pytest.mark.parametrize("n_post", [0, 1, 2])
@pytest.mark.parametrize("mode", ["stacked", "baseline"])
def test_head_row_matches_row_zero_of_the_full_block(mode, n_post):
    model = make_model(mode, n_post)
    seqs = [model.encode_sentence(s) for s in SENTENCES]
    assert len({sum(s.attention_mask) for s in seqs}) > 1
    logits, grads = logits_and_gradients(model, lambda: model.logits(seqs))
    ref_logits, ref_grads = logits_and_gradients(
        model, lambda: full_row_logits(model, seqs))
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-14)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        if ref_grads[name] is None:   # baseline: the stack and post blocks
            assert g is None, name
            continue
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)
    assert any(g is not None and np.abs(g).max() > 0
               for g in ref_grads.values())


@pytest.mark.parametrize("mode,n_post,full_blocks",
                         [("stacked", 2, 3), ("stacked", 0, 2),
                          ("baseline", 1, 1)])
def test_the_final_block_feed_forward_sees_one_row(mode, n_post, full_blocks,
                                                   monkeypatch):
    # the GELU of each block's feed-forward gets its [B, rows, ff] hidden
    # values; only the block that feeds the head runs on one row. With no
    # post block, the stacked model's encoder blocks all keep full rows
    model = make_model(mode, n_post)
    seqs = [model.encode_sentence(s) for s in SENTENCES]
    shapes = []
    activation = T._activation

    def spy(kind, xv):
        if kind == "gelu":
            shapes.append(xv.shape)
        return activation(kind, xv)

    monkeypatch.setattr(T, "_activation", spy)
    T.cross_entropy(model.logits(seqs), LABELS).backward()
    b, length = len(seqs), model.config.encoder.seq_len
    head_blocks = 0 if mode == "stacked" and n_post == 0 else 1
    assert shapes == [(b, length, FF)] * full_blocks + \
        [(b, 1, FF)] * head_blocks
