"""Staged output files: the target is replaced whole, or not touched."""

import os
import re
import stat

import pytest

from iamsim.atomic import replacing


def test_target_replaced_after_the_block(tmp_path):
    target = tmp_path / "out.txt"
    for before, after in ((None, "first"), ("first", "second")):  # a new target, then an old one
        with replacing(target) as temp:
            temp.write_text(after, encoding="utf-8")
            assert (target.read_text(encoding="utf-8") if target.exists() else None) == before
        assert target.read_text(encoding="utf-8") == after
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_none_target_yields_none(tmp_path):
    with replacing(None) as path:
        assert path is None
    assert list(tmp_path.iterdir()) == []


def test_failing_block_touches_no_target(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("before", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with replacing(target) as temp:
            temp.write_text("after", encoding="utf-8")
            raise RuntimeError("output failed")
    assert target.read_text(encoding="utf-8") == "before"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_directory_target_refused_leaving_nothing(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(IsADirectoryError):
        with replacing(tmp_path / "out"):
            pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_symlink_target_is_written_through(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("before", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    with replacing(link) as path:
        path.write_text("after", encoding="utf-8")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == "after"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_device_behind_a_link_keeps_its_node(tmp_path):
    link = tmp_path / "null"
    link.symlink_to(os.devnull)
    with replacing(link) as path:
        path.write_text("discarded", encoding="utf-8")
    assert link.is_symlink() and stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["null"]


def test_fifo_target_is_written_not_replaced(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with replacing(fifo) as path:
            path.write_text("streamed", encoding="utf-8")
        assert os.read(reader, 100) == b"streamed"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


@pytest.mark.parametrize("name", [
    "a" * 241, "a" * 242, "a" * 251 + ".txt", "\u00e9" * 127 + "a",
], ids=["241-bytes", "242-bytes", "255-bytes", "255-bytes-cut-inside-a-character"])
def test_long_target_name_is_staged_under_a_shortened_name(tmp_path, name):
    target = tmp_path / name
    with replacing(target) as temp:
        staged = os.fsencode(temp.name)
        temp.write_text("new", encoding="utf-8")
    # the first 241 bytes of the name are kept, which is all of a name that short
    kept = os.fsencode(name)[:241]
    assert re.fullmatch(rb"\." + re.escape(kept) + rb"\.[0-9a-f]{8}\.tmp", staged)
    assert len(staged) <= 255
    assert target.read_text(encoding="utf-8") == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
