"""Atomic file writes, content hashing, CSV emission and run manifests.

Outputs are written to a temp file in the target directory and renamed into
place, so a crashed run never leaves a half-written artifact. Every command
records a manifest (resolved config plus input/output hashes); re-running a
command with the manifest's config reproduces the outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import tempfile
from pathlib import Path
from typing import Iterable


# (device, inode, size, mtime): a file renamed over, truncated or rewritten gets another
STAMP = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def atomic_write_bytes(path: str | Path, blob: bytes | Iterable[bytes]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines([blob] if isinstance(blob, bytes) else blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def format_float(x: float) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV output."""
    return repr(float(x))


def write_csv(path: str | Path, header: list[str],
              rows: Iterable[Iterable]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(path: str | Path, command: str, config: dict,
                   inputs: dict[str, str], outputs: dict[str, str],
                   metrics: dict | None = None) -> None:
    payload = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    if metrics:
        payload["metrics"] = metrics
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
