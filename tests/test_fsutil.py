"""The atomic writer every artifact goes through."""

import os
import stat

import pytest

from valnov.fsutil import atomic_write_text


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "a.json", "{}")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.json").stat().st_mode) == mode


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
