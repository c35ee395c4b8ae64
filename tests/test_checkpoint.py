import hashlib
import json
import struct

import numpy as np
import pytest

from denoiseclf.checkpoint import (FORMAT_VERSION, CorruptionError,
                                   MigrationError, load_checkpoint,
                                   save_checkpoint)
from denoiseclf.errors import NonFiniteError
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.model import ModelConfig, TextClassifier
from denoiseclf.tokenizer import build_vocab


def tiny_model(seed=0, mode="stacked", activation=None, n_post=1,
               ff_size=12):
    cfg = ModelConfig(
        encoder=EncoderConfig(hidden_size=8, seq_len=6, num_layers=1,
                              num_heads=2, ff_size=ff_size, vocab_size=32,
                              num_classes=2),
        denoise=DenoiseConfig(dims=(8, 6, 4, 2), activation=activation),
        n_post=n_post,
        mode=mode,
    )
    vocab = build_vocab(["good night sweet dreams",
                         "bad day hard work trouble"])
    return TextClassifier(cfg, vocab, seed=seed)


def assert_models_equal(a, b):
    pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
    assert set(pa) == set(pb)
    for name in pa:
        np.testing.assert_array_equal(pa[name].values, pb[name].values)
    assert a.vocab.token_to_id == b.vocab.token_to_id
    assert a.config == b.config


class TestRoundTrip:
    def test_bitwise_identical_parameters(self, tmp_path):
        # the config comparison also covers the header's lists turning back
        # into the denoise chain's tuples
        for activation, n_post in ((None, 1), ("tanh", 0)):
            model = tiny_model(seed=3, activation=activation, n_post=n_post)
            path = tmp_path / "m.ckpt"
            save_checkpoint(model, path)
            assert_models_equal(model, load_checkpoint(path))

    def test_predictions_survive_round_trip(self, tmp_path):
        model = tiny_model(seed=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for sentence in ("good night", "bad day", "sweet dreams trouble"):
            probs_a, label_a = model.predict_sentence(sentence)
            probs_b, label_b = loaded.predict_sentence(sentence)
            np.testing.assert_array_equal(probs_a, probs_b)
            assert label_a == label_b

    def test_baseline_mode_round_trip(self, tmp_path):
        model = tiny_model(seed=5, mode="baseline")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert load_checkpoint(path).config.mode == "baseline"

    def test_null_optional_fields_load_as_their_defaults(self, tmp_path):
        # ff_size 2 * hidden and n_post the encoder depth: what null means
        model = tiny_model(seed=7, ff_size=16, n_post=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        body = path.read_bytes()[:-32]
        (length,) = struct.unpack_from("<I", body, 8)
        header = json.loads(body[12:12 + length])
        header["config"]["encoder"]["ff_size"] = None
        header["config"]["n_post"] = None
        encoded = json.dumps(header).encode()
        body = (body[:8] + struct.pack("<I", len(encoded)) + encoded
                + body[12 + length:])
        path.write_bytes(body + hashlib.sha256(body).digest())
        assert_models_equal(model, load_checkpoint(path))

    def test_save_is_deterministic(self, tmp_path):
        model = tiny_model(seed=6)
        save_checkpoint(model, tmp_path / "a.ckpt")
        save_checkpoint(model, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()


class TestCorruptionDetection:
    def test_truncation(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        payload = path.read_bytes()
        for cut in (0, 3, len(payload) // 2, len(payload) - 1):
            path.write_bytes(payload[:cut])
            with pytest.raises(CorruptionError):
                load_checkpoint(path)

    def test_single_byte_flips_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        payload = bytearray(path.read_bytes())
        rng = np.random.default_rng(0)
        for _ in range(25):
            pos = int(rng.integers(len(payload)))
            flipped = bytearray(payload)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises((CorruptionError, MigrationError)):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        import hashlib
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        body = bytearray(path.read_bytes()[:-32])
        body[:4] = b"XXXX"
        path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        with pytest.raises(CorruptionError, match="magic"):
            load_checkpoint(path)

    def test_future_version_raises_migration_error(self, tmp_path):
        import hashlib
        import struct
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        body = bytearray(path.read_bytes()[:-32])
        body[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        with pytest.raises(MigrationError):
            load_checkpoint(path)

    def test_failed_load_returns_nothing(self, tmp_path):
        # a corrupt file never produces a partially constructed model
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"DNCF short")
        with pytest.raises(CorruptionError):
            load_checkpoint(path)


def _state_hash(model) -> str:
    """The header's parameter hash, as ``save_checkpoint`` forms it."""
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(p.values.tobytes())
    return digest.hexdigest()


class TestNonFinite:
    def test_save_refuses_a_nan_parameter_and_writes_nothing(self, tmp_path):
        model = tiny_model()
        name, p = list(model.named_parameters())[5]
        p.values.flat[1] = np.nan
        with pytest.raises(NonFiniteError, match=f"parameter {name} is not "
                           "finite; no checkpoint written"):
            save_checkpoint(model, tmp_path / "m.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_load_rejects_a_nan_array_with_valid_hashes(self, tmp_path):
        model = tiny_model()
        name, p = list(model.named_parameters())[5]
        p.values.flat[1] = 1234.5
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        finite_hash = _state_hash(model)
        p.values.flat[1] = np.nan
        body = path.read_bytes()[:-32]
        assert body.count(np.float64(1234.5).tobytes()) == 1
        body = body.replace(np.float64(1234.5).tobytes(),
                            np.float64(np.nan).tobytes())
        body = body.replace(finite_hash.encode(), _state_hash(model).encode())
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptionError,
                           match=f"array {name} is not finite"):
            load_checkpoint(path)


def _with_arrays(path, arrays):
    """Rewrite the checkpoint at ``path`` to hold ``arrays``, (name, values)
    pairs in file order, with its state hash and digest recomputed, so the
    arrays disagree with the config but every hash holds."""
    body = path.read_bytes()[:-32]
    (length,) = struct.unpack_from("<I", body, 8)
    header = json.loads(body[12:12 + length])
    state_hash = hashlib.sha256()
    for name, values in arrays:
        state_hash.update(name.encode())
        state_hash.update(values.tobytes())
    header["state_hash"] = state_hash.hexdigest()
    encoded = json.dumps(header).encode()
    out = body[:8] + struct.pack("<I", len(encoded)) + encoded
    out += struct.pack("<I", len(arrays))
    for name, values in arrays:
        out += struct.pack("<I", len(name.encode())) + name.encode()
        out += struct.pack("<BB", 1, values.ndim)
        out += struct.pack(f"<{values.ndim}Q", *values.shape)
        out += values.astype("<f8").tobytes()
    path.write_bytes(out + hashlib.sha256(out).digest())


def _renamed(arrays):
    name, values = arrays[5]
    return arrays[:5] + [(name + "x", values)] + arrays[6:]


def _reshaped(arrays):
    name, values = arrays[5]
    return arrays[:5] + [(name, values.reshape(-1))] + arrays[6:]


class TestArraysAgainstConfig:
    # index 5 is encoder.block0.wk, an [8, 8] weight
    @pytest.mark.parametrize("edit,message", [
        (_renamed, "array encoder.block0.wk is missing"),
        (lambda arrays: arrays[:5] + arrays[6:],
         "array encoder.block0.wk is missing"),
        (lambda arrays: arrays + [("head.extra", np.zeros(2))],
         "checkpoint holds 62 arrays; its config names 61"),
        (_reshaped,
         r"array encoder.block0.wk has shape \(64,\), expected \(8, 8\)"),
    ], ids=["renamed", "missing", "extra", "reshaped"])
    def test_mismatch_raises_corruption_error(self, edit, message, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        arrays = [(name, p.values) for name, p in model.named_parameters()]
        assert arrays[5][0] == "encoder.block0.wk"
        _with_arrays(path, edit(arrays))
        with pytest.raises(CorruptionError, match=message):
            load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint made a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert_models_equal(model, load_checkpoint(path))
