"""Mutated input files never crash the CLI, mislabel a failure or leave output behind.

Each example applies one JSON mutation (a node replaced by a junk value, a
key dropped or added) to a bundled scenario, the bundled request file or a
small audit log, then runs every command that reads that file in-process.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from iamsim.cli import main

from conftest import SCENARIO_DIR
from generators import mutate_json

SHARING = SCENARIO_DIR / "sharing-demo.json"
REQUESTS = SCENARIO_DIR / "sharing-demo-requests.jsonl"

LOG_EVENTS = [
    {"time": "2024-01-01T00:00:00Z", "kind": "Login", "user": "user-1",
     "account": "111111111111", "action": "", "resource": "", "verdict": "Allow",
     "source": "111111111111"},
    {"time": "2024-01-01T00:00:01Z", "kind": "ApiCall", "user": "user-1",
     "account": "111111111111", "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
     "verdict": "Allow", "source": "111111111111"},
    {"time": "2024-01-01T00:00:02Z", "kind": "ApiCall", "user": "user-2",
     "account": "222222222222", "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
     "verdict": "Deny", "source": "222222222222"},
]


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write(path, value, lines):
    if lines:
        rows = value if isinstance(value, list) else [value]
        text = "".join(json.dumps(row) + "\n" for row in rows)
    else:
        text = json.dumps(value)
    path.write_text(text, encoding="utf-8")


# target -> (the decoded file, whether it is JSON Lines)
TARGETS = {
    "demo scenario": (lambda: _read(SCENARIO_DIR / "demo-org.json"), False),
    "sharing scenario": (lambda: _read(SHARING), False),
    "requests": (lambda: _read_lines(REQUESTS), True),
    "log": (lambda: [dict(e) for e in LOG_EVENTS], True),
}


def _commands(scenario, requests, log, out):
    """The commands that read each kind of input file, as argv lists."""
    with_scenario = ["--scenario", str(scenario)]
    on_scenario = [
        with_scenario + ["validate"],
        with_scenario + ["authorize", "--user", "user-3", "--account", "333333333333",
                         "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
                         "--explain"],
    ]
    on_requests = [
        with_scenario + ["--format", "json", "simulate", str(requests), "--trace",
                         "--out", str(out / "decisions.jsonl"),
                         "--emit-log", str(out / "events.jsonl")],
    ]
    on_log = [
        with_scenario + ["analyze", "unused", str(log), "--as-of", "2024-06-01T00:00:00Z",
                         "--threshold-days", "90"],
        with_scenario + ["analyze", "generate", str(log), "--principal", "user-1@111111111111",
                         "--level", "3", "--window", "2024-01-01T00:00:00Z..2024-01-02T00:00:00Z"],
        ["audit", "merge", str(log), "--out", str(out / "archive.jsonl")],
        ["audit", "query", str(log), "--action", "s3:*", "--verdict", "Deny"],
        ["audit", "denied-summary", str(log), "--bucket", "1h"],
    ]
    return {
        "scenario": on_scenario + on_requests + on_log,
        "requests": on_requests,
        "log": on_log,
    }


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TARGETS)), st.data())
def test_mutated_inputs_fail_cleanly(target, data):
    load, lines = TARGETS[target]
    mutated = mutate_json(load(), data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenario, requests, log = tmp / "scenario.json", tmp / "requests.jsonl", tmp / "log.jsonl"
        scenario.write_bytes(SHARING.read_bytes())
        _write(requests, _read_lines(REQUESTS), True)
        _write(log, LOG_EVENTS, True)
        _write({"requests": requests, "log": log}.get(target, scenario), mutated, lines)
        out = tmp / "out"
        out.mkdir()
        for name in ("decisions.jsonl", "events.jsonl", "archive.jsonl"):
            (out / name).write_text("earlier output\n", encoding="utf-8")

        kind = target if target in ("requests", "log") else "scenario"
        for argv in _commands(scenario, requests, log, out)[kind]:
            before = _snapshot(out)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in ((0, 1, 2, 3) if "authorize" in argv else (0, 2, 3)), argv
            assert "internal error:" not in stderr.getvalue(), (argv, stderr.getvalue())
            if code in (2, 3):
                assert stdout.getvalue() == "", argv
                assert stderr.getvalue(), argv
                assert _snapshot(out) == before, argv


def test_unmutated_inputs_succeed(tmp_path):
    """Without a mutation every command above succeeds, so the property is not vacuous."""
    scenario, requests, log = tmp_path / "s.json", tmp_path / "r.jsonl", tmp_path / "l.jsonl"
    scenario.write_bytes(SHARING.read_bytes())
    _write(requests, _read_lines(REQUESTS), True)
    _write(log, LOG_EVENTS, True)
    for argv in _commands(scenario, requests, log, tmp_path)["scenario"]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
