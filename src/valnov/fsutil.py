"""Small filesystem helpers shared by the cache and the CLI."""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` so readers never observe a partial file.

    The content goes to a temporary sibling first and is moved into place
    with an atomic rename. It is written as its UTF-8 bytes, with no
    newline translation.
    """
    directory, name = os.path.split(path)
    fd, tmp_name = tempfile.mkstemp(dir=directory or os.curdir, prefix=name + ".", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
