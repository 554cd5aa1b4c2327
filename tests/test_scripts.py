"""Smoke tests of the user scripts the README documents."""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from iamsim import build_org, load_scenario
from iamsim.cli import main

from conftest import SCENARIO_DIR
from generators import random_scenario

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


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines functions; main() runs only as __main__
    return module


make_activity_log = _load_script("make_activity_log.py")


def naive_reachable_principals(org):
    """Every user against every assignment: its own, or one of its groups'."""
    return sorted({
        (user.id, a.account) for user in org.users for a in org.assignments
        if (a.subject_kind == "user" and a.subject == user.id)
        or (a.subject_kind == "group" and a.subject in user.groups)
    })


def test_reachable_principals_of_the_demo_org():
    org = load_scenario(SCENARIO_DIR / "demo-org.json")
    assert make_activity_log.reachable_principals(org) == naive_reachable_principals(org) != []


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reachable_principals_is_the_naive_scan(seed):
    rng = random.Random(seed)
    org = build_org(random_scenario(rng, n_accounts=4, n_users=6, n_groups=4,
                                    max_groups_per_user=3))
    assert make_activity_log.reachable_principals(org) == naive_reachable_principals(org)
