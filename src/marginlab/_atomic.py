"""The file layer: every file the package writes is one finished payload,
written whole or not at all, and every JSON file it reads is read here.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

from .errors import ConfigError


def write_file(path, payload: str | bytes) -> None:
    """Write ``payload`` (text as UTF-8) to a uniquely named temporary file
    beside ``path``, which then replaces ``path``; if that fails, the
    temporary file is removed and ``path`` keeps its old contents."""
    path = Path(path)
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """Write ``doc`` as one line of JSON with sorted keys."""
    # dumps runs the C encoder; dump into a file would run the Python one
    write_file(path, json.dumps(doc, sort_keys=True) + "\n")


def read_json(path, what: str):
    """The JSON document in the UTF-8 file at ``path``; ConfigError, naming
    the file as ``what``, when it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers bad JSON and bad UTF-8; deep nesting recurses
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: cannot read {what} ({exc})") from exc
