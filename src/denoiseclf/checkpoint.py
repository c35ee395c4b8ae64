"""Versioned binary checkpoints with integrity checking.

Layout (little-endian throughout):

    magic "DNCF" | u32 format version | u32 json-header length | header
    | u32 array count | arrays | 32-byte sha256 of everything before it

The JSON header carries the model configuration, the vocabulary (as the
token<TAB>id text), and a hash of the parameter payload. Each array record
is: u32 name length, utf-8 name, u8 dtype tag (1 = float64), u8 rank,
u64 dims, raw row-major payload. A checksum mismatch always fails the load;
a partially constructed model is never returned.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .denoise import DenoiseConfig
from .encoder import EncoderConfig
from .errors import CheckpointError, CorruptionError, MigrationError  # noqa: F401
from .fileio import atomic_write_bytes
from .model import ModelConfig, TextClassifier
from .tokenizer import Vocabulary

MAGIC = b"DNCF"
FORMAT_VERSION = 1
_DTYPE_F64 = 1


def _config_dict(cfg: ModelConfig) -> dict:
    return {
        "encoder": vars(cfg.encoder).copy(),
        "denoise": {"dims": list(cfg.denoise.dims),
                    "hidden_dims": list(cfg.denoise.hidden_dims),
                    "activation": cfg.denoise.activation},
        "n_post": cfg.n_post,
        "mode": cfg.mode,
    }


def _config_from_dict(d: dict) -> ModelConfig:
    return ModelConfig(
        encoder=EncoderConfig(**d["encoder"]),
        denoise=DenoiseConfig(dims=tuple(d["denoise"]["dims"]),
                              hidden_dims=tuple(d["denoise"]["hidden_dims"]),
                              activation=d["denoise"]["activation"]),
        n_post=d["n_post"],
        mode=d["mode"],
    )


def save_checkpoint(model: TextClassifier, path: str | Path) -> None:
    arrays = [(name, p.values) for name, p in model.named_parameters()]
    state_hash = hashlib.sha256()
    for name, values in arrays:
        state_hash.update(name.encode())
        state_hash.update(values.tobytes())
    header = json.dumps({
        "config": _config_dict(model.config),
        "vocabulary": model.vocab.to_lines(),
        "state_hash": state_hash.hexdigest(),
    }).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(header))
    out += header
    out += struct.pack("<I", len(arrays))
    for name, values in arrays:
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<BB", _DTYPE_F64, values.ndim)
        out += struct.pack(f"<{values.ndim}Q", *values.shape)
        out += np.ascontiguousarray(values, dtype="<f8").tobytes()
    out += hashlib.sha256(bytes(out)).digest()
    atomic_write_bytes(path, bytes(out))


class _Reader:
    def __init__(self, payload: bytes):
        self.payload = payload
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.payload):
            raise CorruptionError("checkpoint truncated")
        chunk = self.payload[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str | Path) -> TextClassifier:
    payload = Path(path).read_bytes()
    if len(payload) < 32 + len(MAGIC):
        raise CorruptionError("checkpoint too small to be valid")
    body, digest = payload[:-32], payload[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptionError("checkpoint checksum mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CorruptionError("bad checkpoint magic")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise MigrationError(
            f"checkpoint format {version} not supported "
            f"(expected {FORMAT_VERSION})")
    (header_len,) = r.unpack("<I")
    header = json.loads(r.take(header_len).decode("utf-8"))
    config = _config_from_dict(header["config"])
    vocab = Vocabulary.from_lines(header["vocabulary"])
    (count,) = r.unpack("<I")
    arrays = {}
    for _ in range(count):
        (name_len,) = r.unpack("<I")
        name = r.take(name_len).decode("utf-8")
        dtype_tag, ndim = r.unpack("<BB")
        if dtype_tag != _DTYPE_F64:
            raise CorruptionError(f"unknown dtype tag {dtype_tag}")
        shape = r.unpack(f"<{ndim}Q")
        n_bytes = 8 * int(np.prod(shape)) if ndim else 8
        arrays[name] = np.frombuffer(
            r.take(n_bytes), dtype="<f8").reshape(shape).astype(np.float64)
    model = TextClassifier(config, vocab, seed=0)
    expected = dict(model.named_parameters())
    if set(arrays) != set(expected):
        raise CorruptionError("parameter names do not match the config")
    state_hash = hashlib.sha256()
    for name, p in model.named_parameters():
        values = arrays[name]
        if values.shape != p.values.shape:
            raise CorruptionError(
                f"array {name} has shape {values.shape}, "
                f"expected {p.values.shape}")
        p.values = values.copy()
        state_hash.update(name.encode())
        state_hash.update(p.values.tobytes())
    if state_hash.hexdigest() != header["state_hash"]:
        raise CorruptionError("parameter payload does not match state hash")
    return model
