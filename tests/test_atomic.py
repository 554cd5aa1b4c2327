"""Staged output files: all targets are replaced, or none is touched."""

import os
import stat

import pytest

from iamsim.atomic import replacing


def test_all_targets_replaced_after_the_block(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("before", encoding="utf-8")
    with replacing(old, None, new) as (old_temp, skipped, new_temp):
        assert skipped is None
        old_temp.write_text("after", encoding="utf-8")
        new_temp.write_text("fresh", encoding="utf-8")
        assert old.read_text(encoding="utf-8") == "before" and not new.exists()
    assert old.read_text(encoding="utf-8") == "after"
    assert new.read_text(encoding="utf-8") == "fresh"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "old.txt"]


def test_failing_block_touches_no_target(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("before", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with replacing(old, new) as (old_temp, new_temp):
            old_temp.write_text("after", encoding="utf-8")
            new_temp.write_text("fresh", encoding="utf-8")
            raise RuntimeError("second output failed")
    assert old.read_text(encoding="utf-8") == "before"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]


def test_directory_target_refused_leaving_nothing(tmp_path):
    (tmp_path / "out").mkdir()
    with pytest.raises(IsADirectoryError):
        with replacing(tmp_path / "log.jsonl", tmp_path / "out"):
            pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_symlink_target_is_written_through(tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("before", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    with replacing(link) as (path,):
        path.write_text("after", encoding="utf-8")
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == "after"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_device_behind_a_link_keeps_its_node(tmp_path):
    link = tmp_path / "null"
    link.symlink_to(os.devnull)
    with replacing(link) as (path,):
        path.write_text("discarded", encoding="utf-8")
    assert link.is_symlink() and stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["null"]


def test_fifo_target_is_written_not_replaced(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with replacing(fifo) as (path,):
            path.write_text("streamed", encoding="utf-8")
        assert os.read(reader, 100) == b"streamed"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]
