"""Versioned binary checkpoints with integrity checking.

Layout (little-endian throughout):

    magic "DNCF" | u32 format version | u32 json-header length | header
    | u32 array count | arrays | 32-byte sha256 of everything before it

The JSON header carries the model configuration, the vocabulary (as the
token<TAB>id text), and a hash of the parameter payload. Each array record
is: u32 name length, utf-8 name, u8 dtype tag (1 = float64), u8 rank,
u64 dims, raw row-major payload. A checksum mismatch, a malformed header or
an array that does not match the config fails the load with
``CorruptionError``; a partially constructed model is never returned.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import atomic_write_bytes
from .denoise import DenoiseConfig
from .encoder import EncoderConfig
from .errors import (CheckpointError, CorruptionError,  # noqa: F401
                     MigrationError, NonFiniteError)
from .model import ModelConfig, TextClassifier
from .tokenizer import Vocabulary

MAGIC = b"DNCF"
FORMAT_VERSION = 1
_DTYPE_F64 = 1


def _config_from_dict(d: dict) -> ModelConfig:
    """The header's ``asdict`` config back as dataclasses. The header must
    name every field: one left out would load as its default."""
    config = ModelConfig(**d | {"encoder": EncoderConfig(**d["encoder"]),
                                "denoise": DenoiseConfig(**d["denoise"])})
    for prefix, part, cls in (("", d, ModelConfig),
                              ("encoder.", d["encoder"], EncoderConfig),
                              ("denoise.", d["denoise"], DenoiseConfig)):
        missing = [prefix + f.name for f in fields(cls) if f.name not in part]
        if missing:
            raise CorruptionError(
                f"malformed checkpoint: config omits {', '.join(missing)}")
    return config


def save_checkpoint(model: TextClassifier, path: str | Path) -> None:
    arrays = [(name, p.values) for name, p in model.named_parameters()]
    state_hash = hashlib.sha256()
    for name, values in arrays:
        if not np.isfinite(values).all():
            raise NonFiniteError(f"parameter {name} is not finite; "
                                 "no checkpoint written")
        state_hash.update(name.encode())
        state_hash.update(values.tobytes())
    header = json.dumps({
        "config": asdict(model.config),
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
    try:
        (header_len,) = r.unpack("<I")
        header = json.loads(r.take(header_len).decode("utf-8"))
        config = _config_from_dict(header["config"])
        vocab = Vocabulary.from_lines(header["vocabulary"])
        (count,) = r.unpack("<I")
        arrays = {}
        state_hash = hashlib.sha256()
        for _ in range(count):
            (name_len,) = r.unpack("<I")
            name = r.take(name_len).decode("utf-8")
            dtype_tag, ndim = r.unpack("<BB")
            if dtype_tag != _DTYPE_F64:
                raise CorruptionError(f"unknown dtype tag {dtype_tag}")
            shape = r.unpack(f"<{ndim}Q")
            n_bytes = 8 * int(np.prod(shape)) if ndim else 8
            # astype copies, so no parameter is a view of the file's bytes
            arrays[name] = np.frombuffer(
                r.take(n_bytes), dtype="<f8").reshape(shape).astype(np.float64)
            state_hash.update(name.encode())
            state_hash.update(arrays[name].tobytes())
        if state_hash.hexdigest() != header["state_hash"]:
            raise CorruptionError(
                "parameter payload does not match state hash")
        model = TextClassifier(config, vocab, arrays=arrays)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise CorruptionError(
            f"malformed checkpoint: {type(err).__name__}: {err}") from err
    if len(model.params.tensors) != count:
        raise CorruptionError(f"checkpoint holds {count} arrays; its config "
                              f"names {len(model.params.tensors)}")
    return model
