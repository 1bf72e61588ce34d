"""Small filesystem helpers shared by the cache and the CLI."""

from __future__ import annotations

import hashlib
import itertools
import os
from pathlib import Path

_TMP_SERIAL = itertools.count()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` so readers never observe a partial file.

    The content goes to a temporary sibling first and is moved into place
    with an atomic rename. It is written as its UTF-8 bytes, with no
    newline translation. The file gets the mode a plain ``open(path, "w")``
    gives: 0666 less the umask.
    """
    # pid and serial make the name unique; a leftover of a dead process is skipped
    while True:
        tmp = f"{os.fspath(path)}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
