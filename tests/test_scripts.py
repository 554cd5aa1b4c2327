"""Smoke tests of the user scripts the README documents."""

import subprocess
import sys
from pathlib import Path

from iamsim.cli import main

from conftest import SCENARIO_DIR

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, timeout=120)


def test_run_demo(tmp_path):
    done = _script("run_demo.py", "--out-dir", str(tmp_path / "demo-out"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "demo-out" / "activity.jsonl").is_file()


def test_make_activity_log_archive_is_the_merge_of_its_logs(tmp_path):
    out_dir = tmp_path / "logs"
    done = _script("make_activity_log.py", "--scenario", str(SCENARIO_DIR / "demo-org.json"),
                   "--events", "500", "--seed", "7", "--out-dir", str(out_dir))
    assert done.returncode == 0, done.stderr
    archive = out_dir / "archive.jsonl"
    logs = sorted(str(p) for p in out_dir.glob("*.jsonl") if p != archive)
    assert logs
    merged = tmp_path / "merged.jsonl"
    assert main(["audit", "merge", *logs, "--out", str(merged)]) == 0
    assert merged.read_bytes() == archive.read_bytes()
