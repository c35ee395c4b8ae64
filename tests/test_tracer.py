"""The benchmark's tracer (``perfbench/tracer.py``) patches library
functions by name. These tests install and uninstall it, so a rename or a
merge in the library that breaks ``perfbench/run.py --trace 1`` fails here
first."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import denoiseclf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _library_namespaces():
    """Every module namespace of the package and every class namespace in
    it, as {owner name: {attribute: object}} snapshots."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != denoiseclf.__name__:
            continue
        found[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                found[f"{name}.{attr}"] = dict(vars(value))
    return found


def _changed(before, after):
    return sorted(f"{owner}.{attr}" for owner, attrs in before.items()
                  for attr, value in attrs.items()
                  if after.get(owner, {}).get(attr) is not value)


def test_install_patches_and_uninstall_restores_everything(tracer_module):
    for modname, _ in tracer_module.SPANS:
        importlib.import_module(f"{denoiseclf.__name__}.{modname}")
    before = _library_namespaces()
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        patched = _changed(before, _library_namespaces())
    finally:
        tracer.uninstall()
    assert "denoiseclf.data.atomic_write_text" in patched
    assert "denoiseclf.tensor.Tensor.backward" in patched
    assert "denoiseclf.tensor.matmul" in patched
    assert _changed(before, _library_namespaces()) == []


def test_a_text_write_is_one_span(tracer_module, tmp_path):
    from denoiseclf import data
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        data.atomic_write_text(tmp_path / "f.txt", "payload")
        data.atomic_write_bytes(tmp_path / "f.bin", b"payload")
    finally:
        tracer.uninstall()
    names = [tracer.names[record[0]] for record in tracer.spans]
    assert names == ["data.atomic_write_text", "data.atomic_write_bytes"]
    assert [record[3] for record in tracer.spans] == [-1, -1]


def test_a_checkpoint_save_is_one_byte_write(tracer_module, tmp_path):
    # ``checkpoint`` writes through the writer it imports from ``data``,
    # and that import is the object the tracer patches
    from denoiseclf import checkpoint
    from denoiseclf.denoise import DenoiseConfig
    from denoiseclf.encoder import EncoderConfig
    from denoiseclf.model import ModelConfig, TextClassifier
    from denoiseclf.tokenizer import build_vocab

    vocab = build_vocab(["good day", "bad day"])
    model = TextClassifier(ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=4, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab), num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2))), vocab, seed=0)
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        checkpoint.save_checkpoint(model, tmp_path / "m.ckpt")
    finally:
        tracer.uninstall()
    names = [tracer.names[record[0]] for record in tracer.spans]
    assert names == ["checkpoint.save_checkpoint", "data.atomic_write_bytes"]
    assert [record[3] for record in tracer.spans] == [-1, 0]


def test_an_encode_records_its_real_tokens_and_width(tracer_module):
    # the source of tokenizer.real_token_share: the mask of encode's result
    from denoiseclf import tokenizer
    vocab = tokenizer.build_vocab(["good night sweet dreams"])
    sentence = "Good night, sweet!"
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        tokenizer.encode(sentence, vocab, 8)
    finally:
        tracer.uninstall()
    assert tracer.encodes == [(sentence, 5, 8)]


def test_affine_is_one_op_and_not_matmul_time(tracer_module):
    from denoiseclf import tensor as T
    tracer = tracer_module.Tracer("t")
    start = tracer.mark()
    try:
        tracer.install()
        T.affine(T.Tensor(np.ones((4, 6))), T.Tensor(np.ones((6, 3))),
                 T.Tensor(np.zeros(3)))
    finally:
        tracer.uninstall()
    assert dict(tracer.op_calls) == {"affine": 1}
    assert set(tracer.op_time) == {"affine"}
    metrics = tracer.phase_metrics(start, examples=1)
    assert metrics["tensor.ops_per_example"] == 1.0
    assert metrics["tensor.matmul_s"] == 0.0


def test_fused_layers_keep_their_spans_and_count_as_their_own_ops(
        tracer_module):
    # what ``perfbench/run.py --trace 1`` reads off a stacked forward and
    # backward: one span per layer function, and the fused kernels booked
    # under their own names, with no softmax or GELU op of their own
    from denoiseclf import tensor as T
    from denoiseclf.denoise import DenoiseConfig
    from denoiseclf.encoder import EncoderConfig
    from denoiseclf.model import ModelConfig, TextClassifier
    from denoiseclf.tokenizer import build_vocab

    vocab = build_vocab(["good day", "bad day"])
    model = TextClassifier(ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=4, num_layers=1,
                              num_heads=2, ff_size=12,
                              vocab_size=len(vocab), num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation="gelu"),
        n_post=1), vocab, seed=0)
    seqs = [model.encode_sentence(s) for s in ("good day", "bad")]
    tracer = tracer_module.Tracer("t")
    try:
        tracer.install()
        T.cross_entropy(model.logits(seqs), [0, 1]).backward()
    finally:
        tracer.uninstall()
    spans = {tracer.names[record[0]] for record in tracer.spans}
    assert {"encoder.self_attention", "encoder.transformer_block",
            "denoise.compress", "denoise.reconstruct", "denoise.refine",
            "tensor.backward"} <= spans
    # one encoder block and one post block; three stages each way
    assert tracer.op_calls["attention"] == 2
    assert tracer.op_calls["mlp"] == 2 + 6
    assert "softmax" not in tracer.op_calls
    assert "gelu" not in tracer.op_calls
    assert "matmul" not in tracer.op_calls
    # the only layout changes are the denoise stack's rows -> columns on
    # entry and back on exit; the two indexes are the last block's [CLS]
    # query rows and the head's [CLS] pick
    assert tracer.op_calls["transpose"] == 2
    assert tracer.op_calls["reshape"] == 2
    assert tracer.op_calls["index"] == 2
