"""Atomic artifact writes.

Checkpoints, logs, reports and score tables are written to a temporary file
in the destination directory and then renamed over the destination, so a
reader sees either the previous file or the complete new one, and a write
that fails midway leaves the previous file and no temporary file behind.
The file is not fsynced: this guards against a failing or killed process,
not against losing power.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8)."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
