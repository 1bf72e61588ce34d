"""The atomic writer every artifact goes through, its counterpart for
run directories, the JSONL and CSV framings written through it, and the
reader every input goes through."""

import csv
import itertools
import os
import stat

import pytest

from valnov import fsutil
from valnov.errors import ParseError, UsageError
from valnov.fsutil import (
    atomic_dir,
    atomic_write_text,
    open_text,
    parse_json,
    read_json,
    read_jsonl,
    write_csv,
    write_jsonl,
)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "a.json", "{}")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.json").stat().st_mode) == mode


@pytest.mark.parametrize("umask, mode", [(0o022, 0o755), (0o077, 0o700)])
def test_committed_directory_mode_follows_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        with atomic_dir(tmp_path / "run"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "run").stat().st_mode) == mode
    assert os.listdir(tmp_path) == ["run"]


def test_block_writing_into_its_own_target_is_usage(tmp_path):
    target = tmp_path / "run"
    with pytest.raises(UsageError, match="changed while the stage ran"):
        with atomic_dir(target):
            target.mkdir()
            (target / "record.json").write_text("{}", encoding="utf-8")
    assert os.listdir(tmp_path) == ["run"]
    assert os.listdir(target) == ["record.json"]  # what the block wrote there is kept


def test_rewrite_replaces_content_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "a.txt"
    atomic_write_text(path, "old")
    atomic_write_text(path, "né\n")
    assert path.read_bytes() == "né\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["a.txt"]


def test_failed_write_removes_its_temporary(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write_text(tmp_path / "taken", "text")
    assert os.listdir(tmp_path) == ["taken"]


def test_a_taken_temporary_name_is_skipped_and_left_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(fsutil, "_TMP_SERIAL", itertools.count())
    path = tmp_path / "a.txt"
    stale = tmp_path / f"a.txt.{os.getpid()}.0.tmp"
    stale.write_text("stale")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    assert stale.read_text() == "stale"
    assert sorted(os.listdir(tmp_path)) == ["a.txt", stale.name]


def test_a_failed_rename_whose_temporary_is_gone_still_raises(tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    path.write_text("old")

    def replace(src, dst):
        os.unlink(src)
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write_text(path, "new")
    assert os.listdir(tmp_path) == ["a.txt"]
    assert path.read_text() == "old"


@pytest.mark.parametrize(
    "data, detail",
    [(b'{"a": "\xff\xfe"}', "not UTF-8 text"), (b'{"a": ', "invalid JSON"),
     (b"\xef\xbb\xbf{}", "invalid JSON")],
    ids=["not-utf8", "truncated", "byte-order-mark"],
)
def test_undecodable_json_is_one_parse_error_naming_the_file(tmp_path, data, detail):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{path}: {detail}"):
        read_json(path)


@pytest.mark.parametrize(
    "text",
    [r'"\ud800"', r'{"a": {"b": [1, "x\udfff"]}}', r'{"\udc00": 1}', r'["\ude00\ud83d"]'],
    ids=["top-level", "nested-string", "key", "reversed-pair"],
)
def test_escaped_lone_surrogate_is_a_parse_error_naming_where(text):
    with pytest.raises(ParseError, match=r"^doc\.json:7: not UTF-8 text"):
        parse_json(text, "doc.json:7")


@pytest.mark.parametrize(
    "text, value",
    [(r'"caf\u00e9"', "caf\u00e9"), (r'{"\ud83d\ude00": "\u2028"}', {"\U0001F600": "\u2028"}),
     (r'"a\\ud800"', "a\\ud800"), ('{"a": [1.5, null]}', {"a": [1.5, None]})],
    ids=["latin", "pair-and-separator", "escaped-backslash", "no-escape"],
)
def test_escapes_of_real_characters_parse(text, value):
    assert parse_json(text, "doc.json") == value


def test_read_jsonl_names_each_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n  \n"caf\\u00e9"\n[\n', encoding="utf-8")
    located = read_jsonl(path)
    assert next(located) == (f"{path}:1", {"a": 1})
    assert next(located) == (f"{path}:4", "caf\u00e9")
    with pytest.raises(ParseError, match=f"^{path}:5: invalid JSON"):
        next(located)


def test_write_jsonl_round_trips_line_breaking_characters(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"text": "a\u0085b", "n": 1}, {"text": "c\u2028d\u2029e"}, ["café", "\n"]]
    write_jsonl(path, records)
    data = path.read_bytes()
    assert data.count(b"\n") == len(records)  # one line each: json escapes only \n itself
    assert "a\u0085b".encode("utf-8") in data and "café".encode("utf-8") in data
    assert b"\\u" not in data  # raw UTF-8, not escapes
    assert list(read_jsonl(path)) == [
        (f"{path}:{line}", record) for line, record in enumerate(records, start=1)
    ]


def test_write_csv_frames_rows_with_crlf_and_quotes_fields(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [["plain", 1], ["a, b", 'say "hi"'], ["two\nlines", "cr\r\nlf"]]
    write_csv(path, ["text", "n"], rows)
    assert path.read_bytes() == (
        b'text,n\r\nplain,1\r\n"a, b","say ""hi"""\r\n"two\nlines","cr\r\nlf"\r\n'
    )
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [["text", "n"], *([str(c) for c in r] for r in rows)]


def test_missing_json_file_stays_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "absent.json")


def test_read_json_reads_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes('{"text": "Prämisse\u2028中文"}'.encode("utf-8"))
    assert read_json(path) == {"text": "Prämisse\u2028中文"}


def test_non_utf8_bytes_deep_in_a_stream_are_a_parse_error(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"good\n" * 20000 + b"bad \xff\n")
    with pytest.raises(ParseError, match=f"^{path}: not UTF-8 text"):
        with open_text(path) as fh:
            for _ in fh:
                pass


@pytest.mark.parametrize("newline, lines", [(None, ["a\n", "b\n", "c"]),
                                            ("", ["a\r\n", "b\r", "c"])])
def test_open_text_translates_newlines_as_open_does(tmp_path, newline, lines):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\r\nb\rc")
    with open_text(path, newline=newline) as fh:
        assert list(fh) == lines

