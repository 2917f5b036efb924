"""Atomic file output: every file the package writes appears whole or not
at all, so a failed or interrupted run never leaves a truncated output or a
stray temporary file behind.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Write through a uniquely named temporary file beside ``path``.

    On a clean exit from the block the temporary file replaces ``path``;
    if the block raises, it is removed and ``path`` keeps its old contents.
    Text is UTF-8 with ``\\n`` line endings on every platform.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb" if binary else "x",
                  encoding=None if binary else "utf-8",
                  newline=None if binary else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically, as ``atomic_open`` does."""
    with atomic_open(path) as fh:
        fh.write(text)
