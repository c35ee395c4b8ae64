"""Atomic file writes: the package's one writer of files.

A leaf module, importing nothing from the package, so every other module
(``tokenizer`` and ``noise`` as well as ``data`` and ``checkpoint``) can
write through it. ``data`` re-exports both public writers under their old
names.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 via a temp file, then rename."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` via a temp file, then rename."""
    _atomic_write(path, payload)


def _atomic_write(path: str | Path, payload: bytes) -> None:
    """Write to a temp file in ``path``'s directory, then rename it over
    ``path``, so a reader sees the old file or the new one, never a part.
    The public writers call this body, not each other, so wrapping either
    by name (as ``perfbench/tracer.py`` does) sees each write once."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
