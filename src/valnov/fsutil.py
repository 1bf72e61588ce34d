"""The one file reader, the one atomic file writer and its counterpart
for run directories, file digests, and the model file: a dataclass
record whose class names its ``FORMAT`` and ``VERSION``, written by
``model_json`` as that header and then the record's fields, and checked
by ``load_model`` against the same class. Each parameter in it is a record
``{"shape": [...], "data": "<base64>"}``, where ``data`` holds the
little-endian float64 values in C order.

Every input is decoded as UTF-8 by ``open_text`` alone, directly or
through ``read_json`` and ``read_jsonl``, and all JSON is parsed by
``parse_json``, so input that cannot be decoded is one ``ParseError``
naming it, whatever reads it. Line formats are framed here too, each
through the atomic writer: JSONL by ``write_jsonl``, one line of raw
UTF-8 JSON per record, and CSV by ``write_csv``, with ``\\r\\n`` line ends.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from .decode import decode
from .errors import ConfigurationError, ParseError, SchemaError, TrainingError, UsageError

_TMP_SERIAL = itertools.count()
MANIFEST = "manifest.json"  # marks a directory as a run: see atomic_dir


def parse_json(text: str, where: str | Path) -> Any:
    """The value of the JSON ``text`` read from ``where``. Text that is not
    JSON, or a ``\\u`` escape spelling a lone surrogate (valid JSON that no
    UTF-8 text can hold, RFC 8259 section 8.2), is a ParseError naming ``where``."""
    try:
        value = json.loads(text)
        if "\\u" in text:  # only an escape can spell a surrogate
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"{where}: not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:  # json.JSONDecodeError
        raise ParseError(f"{where}: invalid JSON ({exc})") from exc
    return value


def read_json(path: str | Path) -> Any:
    """The JSON document in ``path``, by ``parse_json``. Bytes that are not
    UTF-8 are a ParseError too; a missing file stays FileNotFoundError."""
    with open_text(path) as fh:
        text = fh.read()
    return parse_json(text, path)


def read_jsonl(path: str | Path) -> Iterator[tuple[str, Any]]:
    """``path:line`` and the ``parse_json`` value of each non-blank line of
    ``path``; bytes that are not UTF-8 are a ParseError naming ``path``."""
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}:{line_no}"
                yield where, parse_json(line, where)


@contextlib.contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` as a UTF-8 text stream (``newline`` as for ``open``). Bytes
    that are not UTF-8 are a ParseError wherever the reader meets them."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    """Write each record as one line of JSON, raw UTF-8 rather than ``\\u``
    escapes; ``read_jsonl`` reads it back."""
    atomic_write_text(path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def write_csv(path: str | Path, header: Iterable[Any], rows: Iterable[Iterable[Any]]) -> None:
    """Write ``header`` and then each row as CSV, every line ended by the
    ``csv`` module's ``\\r\\n`` (RFC 4180)."""
    buffer = io.StringIO()  # keeps the writer's \r\n line ends
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


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


@contextlib.contextmanager
def atomic_dir(target: str | Path) -> Iterator[Path]:
    """Build the directory ``target`` so readers see it whole or not at all.

    The block fills a staging directory inside a ``.valnov-partial-*`` one in
    the nearest existing ancestor; it is renamed into place if the block
    returns. An existing ``target`` must be empty or a run (it holds a
    manifest), replaced whole; anything else, or the working directory or
    one of its parents, is refused before the block runs, so no file this
    program did not write is ever removed.
    """
    target = Path(os.path.realpath(target))
    replaced = (target / MANIFEST).is_file()
    empty = target.is_dir() and not any(target.iterdir())
    if target.exists() and not (replaced or empty):
        raise UsageError(f"{target}: not an empty directory or a run directory (no {MANIFEST})")
    cwd = Path.cwd()
    if target == cwd or target in cwd.parents:  # the rename would leave the shell in no directory
        raise UsageError(f"{target}: the working directory or one of its parents")
    ancestor = next(p for p in target.parents if p.exists())
    partial = Path(tempfile.mkdtemp(prefix=".valnov-partial-", dir=ancestor))
    try:
        staging = partial / "run"
        staging.mkdir()  # mkdtemp's own mode is 0700; a run directory gets mkdir's
        yield staging
        target.parent.mkdir(parents=True, exist_ok=True)
        if replaced:
            os.rename(target, partial / "old")
        try:
            os.rename(staging, target)
        except OSError as exc:  # the stage itself wrote into target, as a cache dir may
            raise UsageError(f"{target}: changed while the stage ran ({exc.strerror})") from exc
    finally:
        shutil.rmtree(partial, ignore_errors=True)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def model_json(record: Any) -> str:
    """The model file of the dataclass ``record``: the header of its class,
    then its fields in declaration order."""
    header = {"format": record.FORMAT, "version": record.VERSION}
    # shallow: asdict of the whole record would deep-copy every parameter record
    return json.dumps({**header, **vars(record)}, default=dataclasses.asdict, ensure_ascii=False)


def load_model(path: str | Path, cls: type) -> Any:
    """The model file ``path`` as a ``cls`` record; each error names ``path``.
    Another format or version is a ConfigurationError, and so is a stored
    config value out of range; any field missing, unknown or ill-typed is a
    SchemaError naming it."""
    blob = read_json(path)
    if not isinstance(blob, dict) or blob.get("format") != cls.FORMAT:
        raise ConfigurationError(f"{path}: not a {cls.FORMAT} file")
    version = blob.get("version")
    if type(version) is not int or version != cls.VERSION:  # 2.0 == 2 and true == 1 in Python
        raise ConfigurationError(f"{path}: unsupported checkpoint version {version} "
                                 f"(not {cls.VERSION}); re-run the stage that wrote it")
    try:
        body = {k: v for k, v in blob.items() if k not in ("format", "version")}
        return decode(cls, body, "checkpoint", complete=True)
    except TypeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def pack_params(params: dict[str, np.ndarray]) -> dict[str, dict]:
    """Each array as a parameter record, under its name. A non-finite value
    is a ``TrainingError``: no loader would accept the file."""
    packed = {}
    for name, arr in params.items():
        if not np.isfinite(arr).all():
            raise TrainingError(f"parameter {name!r} has non-finite values; nothing was saved")
        data = np.asarray(arr, dtype="<f8").tobytes()
        packed[name] = {"shape": list(arr.shape), "data": base64.b64encode(data).decode("ascii")}
    return packed


def unpack_params(packed: dict, params: dict[str, np.ndarray], path: str | Path) -> None:
    """Copy the checkpoint's records into the live arrays. A checkpoint must
    hold exactly the model's parameters, each with the live shape and only
    finite values; anything else would predict with fresh or broken weights."""
    if not isinstance(packed, dict) or sorted(packed) != sorted(params):
        raise SchemaError(f"{path}: checkpoint params need exactly the names {sorted(params)}")
    for name, live in params.items():
        rec = packed[name]
        try:
            shape = tuple(rec["shape"])
            data = np.frombuffer(base64.b64decode(rec["data"], validate=True), dtype="<f8")
        except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise SchemaError(
                f"{path}: parameter {name!r} is not a shape/base64 record ({exc})"
            ) from exc
        if shape != live.shape or data.shape != (live.size,):
            raise SchemaError(
                f"{path}: parameter {name!r} declares shape {list(shape)} with "
                f"{data.size} values; the model needs shape {list(live.shape)}"
            )
        if not np.isfinite(data).all():
            raise SchemaError(f"{path}: parameter {name!r} has non-finite values")
        live[...] = data.reshape(live.shape)
