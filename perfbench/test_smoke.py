"""Smoke test for the benchmark on tiny inputs: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
from metrics import definitions
from workload import PLANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for name, seed in (("first", 1), ("again", 1), ("other", 2)):
        gen.generate("policy-dense", seed, tmp_path / name, smoke=True)
    for name in ("scenario.json", "requests.jsonl", "manifest.json"):
        first = (tmp_path / "first" / name).read_bytes()
        assert first == (tmp_path / "again" / name).read_bytes()
        assert first != (tmp_path / "other" / name).read_bytes()


def test_every_workload_reports_every_metric_and_passes_its_checks():
    for trace, names in enumerate(definitions()):
        proc = run("--workload", "all", "--smoke", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {f"{w}/{n}" for w in PLANS for n in names}
        for name in names:  # printed by name with its unit
            assert f" {name} " in proc.stdout


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "large-org", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
