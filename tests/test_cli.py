"""Command-line behavior: exit codes, formats, buffering and thin-adapter parity."""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iamsim import (
    AuditEvent,
    EventKind,
    Verdict,
    archive_from_events,
    authorize,
    load_scenario,
    read_archive,
    write_archive,
)
from iamsim import cli
from iamsim.audit import (
    QueryFilter, denied_access_summary, event_from_obj, event_to_line, event_to_obj,
    format_timestamp, parse_timestamp, query,
)
from iamsim.cli import main
from iamsim.textin import open_text

from conftest import utc


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


class TestValidate:
    def test_valid_scenario(self, run, demo_scenario_path):
        code, out, err = run("--scenario", str(demo_scenario_path), "validate")
        assert code == 0
        assert "13 accounts" in out and err == ""

    def test_json_format(self, run, demo_scenario_path):
        code, out, _ = run("--scenario", str(demo_scenario_path), "--format", "json", "validate")
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_scenario_lists_violations(self, run, tmp_path):
        scenario = {
            "organization": {
                "management_account": "111111111111",
                "root": {"name": "Root", "accounts": [{"id": "111111111111", "name": "a"}]},
            },
            "users": [{"id": "u1", "groups": ["ghost-group"]}],
            "assignments": [
                {"user": "u1", "account": "111111111111", "permission_set": "ghost-set"}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run("--scenario", str(path), "validate")
        assert code == 2
        assert out == ""
        assert "ghost-group" in err and "ghost-set" in err

    def test_string_groups_exit_two_naming_the_field(self, run, demo_scenario_path, tmp_path):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        scenario["users"][0]["groups"] = "abc"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run("--scenario", str(path), "validate")
        assert (code, out) == (2, "")
        assert err == "users[0].groups: expected a list\n"

    def test_numeric_user_id_exits_two_naming_the_field(self, run, demo_scenario_path, tmp_path):
        scenario = json.loads(demo_scenario_path.read_text(encoding="utf-8"))
        scenario["users"][0]["id"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code, out, err = run("--scenario", str(path), "validate")
        assert (code, out, err) == (2, "", "users[0].id: expected a string\n")

    def test_unexpected_error_is_one_line_and_exit_two(
        self, run, demo_scenario_path, monkeypatch
    ):
        # no command raises a LookupError for bad input, so a KeyError is a fault
        for error, message in [
            (TypeError("unsupported operand\nsecond line"),
             "TypeError('unsupported operand\\nsecond line')"),
            (KeyError("x"), "KeyError('x')"),
        ]:
            def broken(args, error=error):
                raise error

            monkeypatch.setattr(cli, "cmd_validate", broken)
            code, out, err = run("--scenario", str(demo_scenario_path), "validate")
            assert (code, out) == (2, "")
            assert err == f"internal error: {message}\n"

    def test_missing_file_is_io_failure(self, run, tmp_path):
        code, _, err = run("--scenario", str(tmp_path / "nope.json"), "validate")
        assert code == 3 and err

    def test_missing_scenario_flag(self, run):
        code, _, err = run("validate")
        assert code == 2 and "scenario" in err


class TestAuthorize:
    def test_allowed_request_exits_zero(self, run, sharing_scenario_path):
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "authorize",
            "--user", "user-3", "--account", "333333333333",
            "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
        )
        assert code == 0
        assert out == "Allow (CrossAccountAllow)\n"

    def test_denied_request_exits_one(self, run, sharing_scenario_path):
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "authorize",
            "--user", "user-2", "--account", "222222222222",
            "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
        )
        assert code == 1
        assert out == "Deny (ImplicitDeny)\n"

    def test_unknown_user_exits_two(self, run, sharing_scenario_path):
        code, out, err = run(
            "--scenario", str(sharing_scenario_path), "authorize",
            "--user", "ghost", "--account", "111111111111",
            "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
        )
        assert code == 2 and out == "" and "ghost" in err

    def test_explain_prints_trace(self, run, sharing_scenario_path):
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "authorize",
            "--user", "user-2", "--account", "222222222222",
            "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
            "--explain",
        )
        assert code == 1
        assert "trace:" in out and "resource side" in out

    def test_context_flags_reach_conditions(self, run, tmp_path):
        scenario = {
            "organization": {
                "management_account": "111111111111",
                "root": {"name": "Root", "accounts": [{"id": "111111111111", "name": "a"}]},
            },
            "users": [{"id": "u1"}],
            "permission_sets": [{
                "id": "p0",
                "policies": [{"name": "cond", "document": {
                    "Version": "2012-10-17",
                    "Statement": [{
                        "Effect": "Allow", "Action": "s3:*", "Resource": "*",
                        "Condition": {"StringEquals": {"env": "prod"}},
                    }],
                }}],
            }],
            "assignments": [{"user": "u1", "account": "111111111111", "permission_set": "p0"}],
        }
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        base = ["--scenario", str(path), "authorize", "--user", "u1",
                "--account", "111111111111", "--action", "s3:GetObject",
                "--resource", "arn:aws:s3:::b"]
        assert run(*base)[0] == 1
        assert run(*base, "--context", "env=prod")[0] == 0

    @pytest.mark.parametrize("entries, message", [
        (["=v"], "bad context entry '=v': empty key"),
        (["k=a", "k=b"], "bad context entry 'k=b': key 'k' given twice"),
        (["k=a", "j=", "k="], "bad context entry 'k=': key 'k' given twice"),
    ])
    def test_bad_context_entry_exits_two(self, run, sharing_scenario_path, tmp_path,
                                         entries, message):
        flags = [f for entry in entries for f in ("--context", entry)]
        request = ["authorize", "--user", "user-1", "--account", "111111111111",
                   "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s", *flags]
        assert run("--scenario", str(sharing_scenario_path), *request) == \
            (2, "", f"{message}\n")
        # a scenario error is reported first
        missing = str(tmp_path / "missing.json")
        code, out, err = run("--scenario", missing, *request)
        assert (code, out, err) == run("--scenario", missing, *request[:-len(flags)])
        assert code != 0 and "bad context entry" not in err

    def test_json_format_with_trace(self, run, sharing_scenario_path):
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "--format", "json", "authorize",
            "--user", "user-1", "--account", "111111111111",
            "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
            "--explain",
        )
        obj = json.loads(out)
        assert obj["verdict"] == "Allow" and obj["trace"]


class TestSimulate:
    def test_figure_batch(self, run, sharing_scenario_path, tmp_path):
        requests = tmp_path / "reqs.jsonl"
        lines = [
            {"user": f"user-{i}", "account": acct,
             "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"}
            for i, acct in ((1, "111111111111"), (2, "222222222222"), (3, "333333333333"))
        ]
        requests.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
        code, out, _ = run("--scenario", str(sharing_scenario_path), "simulate", str(requests))
        assert code == 0
        verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
        assert verdicts == ["Allow", "Deny", "Allow"]

    def test_decisions_match_library(self, run, sharing_scenario_path, sharing_requests, tmp_path):
        requests = tmp_path / "reqs.jsonl"
        requests.write_text("".join(
            json.dumps({"user": r.user, "account": r.account,
                        "action": r.action, "resource": r.resource}) + "\n"
            for r in sharing_requests
        ), encoding="utf-8")
        _, out, _ = run("--scenario", str(sharing_scenario_path), "simulate", str(requests))
        org = load_scenario(sharing_scenario_path)
        expected = [authorize(org, r) for r in sharing_requests]
        got = [json.loads(line) for line in out.splitlines()]
        assert [(g["verdict"], g["reason"]) for g in got] == \
            [(d.verdict.value, d.reason.value) for d in expected]

    def test_empty_file(self, run, sharing_scenario_path, tmp_path):
        requests = tmp_path / "empty.jsonl"
        requests.write_text("", encoding="utf-8")
        code, out, _ = run("--scenario", str(sharing_scenario_path), "simulate", str(requests))
        assert code == 0 and out == ""

    def test_malformed_line_names_line_number(self, run, sharing_scenario_path, tmp_path):
        requests = tmp_path / "bad.jsonl"
        requests.write_text(
            '{"user": "user-1", "account": "111111111111", '
            '"action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"}\n'
            "{broken\n",
            encoding="utf-8",
        )
        code, out, err = run("--scenario", str(sharing_scenario_path), "simulate", str(requests))
        assert code == 2 and out == "" and ":2:" in err

    @pytest.mark.parametrize("field, value, message", [
        ("action", ["s3:GetObject"], "request field 'action' must be a string, not list"),
        ("user", 5, "request field 'user' must be a string, not int"),
        ("context", {"a": 1}, "request field 'context' must map strings to strings"),
    ])
    def test_untyped_request_field_exits_two(
        self, run, sharing_scenario_path, tmp_path, field, value, message
    ):
        request = {"user": "user-1", "account": "111111111111",
                   "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"}
        requests = tmp_path / "reqs.jsonl"
        requests.write_text(
            json.dumps(request) + "\n" + json.dumps({**request, field: value}) + "\n",
            encoding="utf-8",
        )
        log_path = tmp_path / "events.jsonl"
        code, out, err = run("--scenario", str(sharing_scenario_path), "simulate",
                             str(requests), "--emit-log", str(log_path))
        assert (code, out, err) == (2, "", f"{requests}:2: {message}\n")
        assert not log_path.exists()

    def test_emit_log_and_out_files(self, run, sharing_scenario_path, tmp_path):
        requests = tmp_path / "reqs.jsonl"
        requests.write_text(json.dumps({
            "user": "user-1", "account": "111111111111",
            "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
        }) + "\n", encoding="utf-8")
        out_path, log_path = tmp_path / "decisions.jsonl", tmp_path / "events.jsonl"
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "simulate", str(requests),
            "--out", str(out_path), "--emit-log", str(log_path),
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["verdict"] == "Allow"
        archive = read_archive(log_path)
        assert len(archive) == 1 and archive.events[0].user == "user-1"

    @pytest.mark.parametrize("failing", ["--out", "--emit-log"])
    def test_failing_output_leaves_neither_file(
        self, run, sharing_scenario_path, tmp_path, failing
    ):
        requests = tmp_path / "reqs.jsonl"
        requests.write_text(json.dumps({
            "user": "user-1", "account": "111111111111",
            "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
        }) + "\n", encoding="utf-8")
        a_dir = tmp_path / "a-dir"
        a_dir.mkdir()
        paths = {"--emit-log": tmp_path / "log.jsonl", "--out": tmp_path / "out.jsonl"}
        paths[failing] = a_dir
        code, out, err = run(
            "--scenario", str(sharing_scenario_path), "simulate", str(requests),
            *(str(x) for flag, path in paths.items() for x in (flag, path)),
        )
        assert (code, out) == (3, "") and "Is a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "reqs.jsonl"]
        assert list(a_dir.iterdir()) == []

    @pytest.mark.parametrize("log_name", ["same.jsonl", "./same.jsonl", "link.jsonl"])
    def test_out_and_emit_log_must_differ(self, run, sharing_scenario_path, tmp_path,
                                          monkeypatch, log_name):
        requests = tmp_path / "reqs.jsonl"
        requests.write_text(json.dumps({
            "user": "user-1", "account": "111111111111",
            "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
        }) + "\n", encoding="utf-8")
        (tmp_path / "link.jsonl").symlink_to("same.jsonl")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            "--scenario", str(sharing_scenario_path), "simulate", str(requests),
            "--out", "same.jsonl", "--emit-log", log_name,
        )
        assert (code, out, err) == (2, "", "--out and --emit-log name the same file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "reqs.jsonl"]

    @pytest.mark.parametrize("flags, flag", [
        (["--out", ""], "--out"),
        (["--emit-log", ""], "--emit-log"),
        (["--out", "", "--emit-log", ""], "--out"),
    ])
    def test_empty_output_path_exits_two(self, run, sharing_scenario_path, tmp_path,
                                         monkeypatch, flags, flag):
        requests = tmp_path / "reqs.jsonl"
        requests.write_text(json.dumps({
            "user": "user-1", "account": "111111111111",
            "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
        }) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run("--scenario", str(sharing_scenario_path), "simulate",
                             str(requests), *flags)
        assert (code, out, err) == (2, "", f"{flag}: empty output path\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reqs.jsonl"]

    def test_linked_outputs_are_written_through(self, run, sharing_scenario_path, tmp_path):
        requests = tmp_path / "reqs.jsonl"
        requests.write_text(json.dumps({
            "user": "user-1", "account": "111111111111",
            "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
        }) + "\n", encoding="utf-8")
        decisions = tmp_path / "decisions.jsonl"
        (tmp_path / "out").symlink_to(decisions)
        (tmp_path / "log").symlink_to(os.devnull)
        code, out, err = run(
            "--scenario", str(sharing_scenario_path), "simulate", str(requests),
            "--emit-log", str(tmp_path / "log"), "--out", str(tmp_path / "out"),
        )
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "out").is_symlink() and (tmp_path / "log").is_symlink()
        assert json.loads(decisions.read_text(encoding="utf-8"))["verdict"] == "Allow"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "decisions.jsonl", "log", "out", "reqs.jsonl",
        ]


class TestAnalyze:
    def _emitted_log(self, run, sharing_scenario_path, tmp_path):
        requests = tmp_path / "reqs.jsonl"
        lines = [
            {"user": f"user-{i}", "account": acct,
             "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"}
            for i, acct in ((1, "111111111111"), (2, "222222222222"), (3, "333333333333"))
        ]
        requests.write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
        log = tmp_path / "activity.jsonl"
        code, _, _ = run("--scenario", str(sharing_scenario_path), "simulate",
                         str(requests), "--emit-log", str(log))
        assert code == 0
        return log

    def test_unused_lists_stale_statement(self, run, sharing_scenario_path, tmp_path):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "--format", "json",
            "analyze", "unused", str(log),
            "--as-of", "2024-06-01T00:00:00Z", "--threshold-days", "90",
        )
        assert code == 0
        entries = json.loads(out)
        assert [(e["permission_set"], e["policy"]) for e in entries] == \
            [("bucket-s-reader", "bucket-s-read")]

    def test_unused_empty_when_fresh(self, run, sharing_scenario_path, tmp_path):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path),
            "analyze", "unused", str(log),
            "--as-of", "2024-01-02T00:00:00Z", "--threshold-days", "90",
        )
        assert code == 0 and out == "no unused statements\n"

    def test_generate_exact_policy(self, run, sharing_scenario_path, tmp_path):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path), "--format", "json",
            "analyze", "generate", str(log),
            "--principal", "user-1@111111111111", "--level", "4",
            "--window", "2024-01-01T00:00:00Z..2024-01-02T00:00:00Z",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert obj["verification"]["coverage"] == 1.0
        assert obj["verification"]["excess"] == 0.0
        assert obj["policy"]["Statement"] == [{
            "Effect": "Allow",
            "Action": ["s3:GetObject"],
            "Resource": ["arn:aws:s3:::bucket-s"],
        }]

    def test_generate_text_format_renders_policy(self, run, sharing_scenario_path, tmp_path):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        code, out, _ = run(
            "--scenario", str(sharing_scenario_path),
            "analyze", "generate", str(log),
            "--principal", "user-1@111111111111", "--level", "2",
            "--window", "2024-01-01T00:00:00Z..2024-01-02T00:00:00Z",
        )
        assert code == 0
        assert '"s3:*"' in out and "coverage: 1.000" in out

    def test_generate_without_observations_exits_two(self, run, sharing_scenario_path, tmp_path):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        code, out, err = run(
            "--scenario", str(sharing_scenario_path),
            "analyze", "generate", str(log),
            "--principal", "user-2@222222222222", "--level", "4",
            "--window", "2024-01-01T00:00:00Z..2024-01-02T00:00:00Z",
        )
        assert code == 2 and out == "" and "no observations" in err

    @pytest.mark.parametrize("principal", ["@", "user-1@", "@111111111111", "user-1"])
    def test_generate_rejects_principal_without_both_parts(
        self, run, sharing_scenario_path, tmp_path, principal
    ):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        code, out, err = run(
            "--scenario", str(sharing_scenario_path),
            "analyze", "generate", str(log), "--principal", principal, "--level", "4",
            "--window", "2024-01-01T00:00:00Z..2024-01-02T00:00:00Z",
        )
        assert (code, out) == (2, "")
        assert err == f"bad principal {principal!r}: expected USER@ACCOUNT\n"

    def test_verb_table_not_utf8_names_the_line(self, run, sharing_scenario_path, tmp_path):
        log = self._emitted_log(run, sharing_scenario_path, tmp_path)
        table = tmp_path / "verbs.tsv"
        table.write_bytes(b"Get\tread\n# caf\xe9\nPut\twrite\n")
        code, out, err = run(
            "--scenario", str(sharing_scenario_path),
            "analyze", "generate", str(log), "--principal", "user-1@111111111111",
            "--level", "3", "--window", "2024-01-01T00:00:00Z..2024-01-02T00:00:00Z",
            "--verb-table", str(table),
        )
        assert (code, out) == (2, "")
        assert err == f"{table}:2: not UTF-8: byte 0xe9\n"


class TestScenarioIdsInText:
    """A scenario id holding a newline cannot forge a row of ``analyze
    unused`` or a statement line of ``authorize --explain``: text output
    JSON-quotes it, as the audit reports quote a log value."""

    PS = "bucket-s-reader\nFORGED never"
    POLICY = "bucket-s-read\nFORGED policy"

    def _scenario(self, sharing_scenario_path, tmp_path, ps=PS):
        scenario = json.loads(sharing_scenario_path.read_text(encoding="utf-8"))
        scenario["permission_sets"][0]["id"] = ps
        scenario["permission_sets"][0]["policies"][0]["name"] = self.POLICY
        for assignment in scenario["assignments"]:
            assignment["permission_set"] = ps
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        return path

    def test_unused_report_prints_one_line_per_row(self, run, sharing_scenario_path, tmp_path):
        scenario = self._scenario(sharing_scenario_path, tmp_path)
        log = tmp_path / "empty.jsonl"
        log.write_text("", encoding="utf-8")
        argv = ["--scenario", str(scenario), "analyze", "unused", str(log),
                "--as-of", "2024-06-01T00:00:00Z", "--threshold-days", "90"]
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        assert header.startswith("PERMISSION-SET") and len(rows) == 1
        assert re.fullmatch(rf"{re.escape(json.dumps(self.PS))} +{re.escape(json.dumps(self.POLICY))}"
                            r" +0 +never", rows[0])
        code, out, _ = run("--format", "json", *argv)  # JSON keeps the ids as they are
        assert (code, json.loads(out)[0]["permission_set"]) == (0, self.PS)

    @pytest.mark.parametrize("ps", ["ps\u2028x", "ps\x85x", "ps\ud800x"])
    def test_unused_report_escapes_line_separators_and_surrogates(self, run, sharing_scenario_path,
                                                                  tmp_path, ps):
        """str.splitlines() also breaks at U+0085, U+2028 and U+2029, and a
        lone surrogate cannot be written as UTF-8: such an id is JSON-quoted
        with ASCII escapes."""
        scenario = self._scenario(sharing_scenario_path, tmp_path, ps)
        log = tmp_path / "empty.jsonl"
        log.write_text("", encoding="utf-8")
        code, out, err = run("--scenario", str(scenario), "analyze", "unused", str(log),
                             "--as-of", "2024-06-01T00:00:00Z", "--threshold-days", "90")
        assert (code, err, out.count("\n")) == (0, "", 2)
        header, *rows = out.splitlines()
        assert header.startswith("PERMISSION-SET") and len(rows) == 1
        assert re.fullmatch(rf"{re.escape(json.dumps(ps))} +{re.escape(json.dumps(self.POLICY))}"
                            r" +0 +never", rows[0])

    def test_explain_prints_one_line_per_statement(self, run, sharing_scenario_path, tmp_path):
        scenario = self._scenario(sharing_scenario_path, tmp_path)
        code, out, _ = run("--scenario", str(scenario), "authorize", "--user", "user-3",
                           "--account", "333333333333", "--action", "s3:GetObject",
                           "--resource", "arn:aws:s3:::bucket-s", "--explain")
        lines = out.splitlines()
        assert code == 0 and lines[2] == "trace:" and len(lines) == 3 + 2
        assert lines[3].startswith(
            f"  [identity] {json.dumps(self.PS)} policy={json.dumps(self.POLICY)} statement=0 ")
        assert lines[4].startswith("  [resource] arn:aws:s3:::bucket-s policy=")


class TestDeepJson:
    """JSON nested past the decoder's depth is malformed input, reported
    naming the file (and line) like any other decode error."""

    DEEP_LINE = "[" * 100_000 + "]" * 100_000 + "\n"

    def _assert_one_line(self, code, out, err, where):
        assert (code, out) == (2, "")
        assert err.startswith(where) and err.count("\n") == 1
        assert "internal error" not in err

    def test_scenario_with_deep_ou_tree(self, run, sharing_scenario_path, tmp_path):
        scenario = json.loads(sharing_scenario_path.read_text(encoding="utf-8"))
        scenario["organization"]["root"]["children"] = "OUS"
        ous = '[{"name": "ou", "children": ' * 495 + "[]" + "}]" * 495
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(scenario).replace('"OUS"', ous), encoding="utf-8")
        code, out, err = run("--scenario", str(path), "validate")
        self._assert_one_line(code, out, err, f"{path}: malformed JSON: ")

    def test_requests_file(self, run, sharing_scenario_path, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text(self.DEEP_LINE, encoding="utf-8")
        code, out, err = run("--scenario", str(sharing_scenario_path), "simulate", str(path))
        self._assert_one_line(code, out, err, f"{path}:1: malformed JSON: ")

    def test_log_file(self, run, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text(self.DEEP_LINE, encoding="utf-8")
        code, out, err = run("audit", "query", str(path))
        self._assert_one_line(code, out, err, f"{path}:1: ")


class TestIntegerTooLong:
    """An integer literal longer than the decoder's digit limit is malformed
    input, reported with each reader's usual prefix."""

    HUGE = "1" * 5000

    @pytest.fixture()
    def fault(self):
        with pytest.raises(ValueError) as decoder:
            json.loads(self.HUGE)
        return str(decoder.value)

    def test_scenario(self, run, tmp_path, fault):
        path = tmp_path / "scenario.json"
        path.write_text('{"organization": ' + self.HUGE + "}", encoding="utf-8")
        code, out, err = run("--scenario", str(path), "validate")
        assert (code, out, err) == (2, "", f"{path}: malformed JSON: {fault}\n")

    def test_requests_file(self, run, sharing_scenario_path, tmp_path, fault):
        path = tmp_path / "reqs.jsonl"
        path.write_text('{"user": ' + self.HUGE + "}\n", encoding="utf-8")
        code, out, err = run("--scenario", str(sharing_scenario_path), "simulate", str(path))
        assert (code, out, err) == (2, "", f"{path}:1: malformed JSON: {fault}\n")

    @pytest.mark.parametrize("command", [
        ["audit", "query"],
        ["audit", "merge", "--out", "merged.jsonl"],
        ["analyze", "unused", "--as-of", "2024-06-01T00:00:00Z", "--threshold-days", "90"],
    ])
    def test_log_file(self, run, sharing_scenario_path, tmp_path, monkeypatch, fault, command):
        path = tmp_path / "log.jsonl"
        path.write_text(_event_line("2024-01-01T00:00:00Z") + '{"time": ' + self.HUGE + "}\n",
                        encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run("--scenario", str(sharing_scenario_path), *command[:2], str(path),
                             *command[2:])
        assert (code, out, err) == (2, "", f"{path}:2: {fault}\n")
        assert not (tmp_path / "merged.jsonl").exists()


class TestNotUtf8:
    """A byte that is not UTF-8 in an input file is invalid input, reported in
    one line naming the file and the line that holds it."""

    def test_scenario(self, run, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{\n  "organization":\n    "\xc3("\n}\n')
        code, out, err = run("--scenario", str(path), "validate")
        assert (code, out, err) == (2, "", f"{path}:3: not UTF-8: byte 0xc3\n")

    def test_requests_file(self, run, sharing_scenario_path, tmp_path):
        path = tmp_path / "reqs.jsonl"
        good = json.dumps({"user": "user-1", "account": "111111111111",
                           "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"})
        path.write_bytes(good.encode() + b"\n\n" + good.encode().replace(b"bucket", b"caf\xe9") + b"\n")
        code, out, err = run("--scenario", str(sharing_scenario_path), "simulate", str(path))
        assert (code, out, err) == (2, "", f"{path}:3: not UTF-8: byte 0xe9\n")

    def test_log_file(self, run, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        code, out, err = run("audit", "query", str(path))
        assert (code, out, err) == (2, "", f"{path}:1: not UTF-8: byte 0xff\n")

    def test_valid_text_outside_ascii_still_reads(self, run, tmp_path):
        event = AuditEvent(time=utc(2024, 1, 1), kind=EventKind.LOGIN, user="jos\u00e9",
                           account="111111111111", verdict=Verdict.ALLOW)
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(json.loads(event_to_line(event)), ensure_ascii=False) + "\n",
                        encoding="utf-8")
        code, out, err = run("--format", "json", "audit", "query", str(path))
        assert (code, out, err) == (0, event_to_line(event), "")


def _account_log(tmp_path, account, events):
    path = tmp_path / f"{account}.jsonl"
    write_archive(archive_from_events(events), path)
    return path


class TestAudit:
    def _logs(self, tmp_path):
        mk = lambda sec, account, kind, verdict, action="", resource="": AuditEvent(
            time=utc(2024, 4, 1, 0, 0, sec), kind=kind, user="ana", account=account,
            action=action, resource=resource, verdict=verdict,
        )
        a = _account_log(tmp_path, "111111111111", [
            mk(0, "111111111111", EventKind.LOGIN, Verdict.ALLOW),
            mk(5, "111111111111", EventKind.API_CALL, Verdict.ALLOW,
               "s3:DeleteObject", "arn:aws:s3:::a"),
        ])
        b = _account_log(tmp_path, "222222222222", [
            mk(2, "222222222222", EventKind.API_CALL, Verdict.DENY,
               "s3:GetObject", "arn:aws:s3:::a"),
        ])
        c = _account_log(tmp_path, "333333333333", [
            mk(1, "333333333333", EventKind.LOGIN, Verdict.DENY),
        ])
        return a, b, c

    def test_merge_covers_all_accounts(self, run, tmp_path):
        a, b, c = self._logs(tmp_path)
        out_path = tmp_path / "archive.jsonl"
        code, out, _ = run("--format", "json", "audit", "merge",
                           str(a), str(b), str(c), "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["events"] == 4 and len(summary["accounts_covered"]) == 3
        merged = read_archive(out_path)
        assert [e.time.second for e in merged.events] == [0, 1, 2, 5]

    def test_query_logins(self, run, tmp_path):
        a, b, c = self._logs(tmp_path)
        out_path = tmp_path / "archive.jsonl"
        run("audit", "merge", str(a), str(b), str(c), "--out", str(out_path))
        code, out, _ = run("--format", "json", "audit", "query", str(out_path),
                           "--kind", "Login")
        assert code == 0
        kinds = [json.loads(line)["kind"] for line in out.splitlines()]
        assert kinds == ["Login", "Login"]

    def test_query_delete_pattern(self, run, tmp_path):
        a, b, c = self._logs(tmp_path)
        out_path = tmp_path / "archive.jsonl"
        run("audit", "merge", str(a), str(b), str(c), "--out", str(out_path))
        code, out, _ = run("--format", "json", "audit", "query", str(out_path),
                           "--action", "*:Delete*", "--verdict", "Allow")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and [r["action"] for r in rows] == ["s3:DeleteObject"]

    def test_denied_summary_conserves_counts(self, run, tmp_path):
        a, b, c = self._logs(tmp_path)
        out_path = tmp_path / "archive.jsonl"
        run("audit", "merge", str(a), str(b), str(c), "--out", str(out_path))
        code, out, _ = run("--format", "json", "audit", "denied-summary", str(out_path),
                           "--bucket", "1h")
        cells = json.loads(out)
        assert code == 0 and sum(c["count"] for c in cells) == 2
        _, qout, _ = run("--format", "json", "audit", "query", str(out_path),
                         "--verdict", "Deny")
        assert len(qout.splitlines()) == 2

    def test_text_output_keeps_one_event_on_one_line(self, run, tmp_path):
        """A value holding a newline cannot forge a second event: text output
        JSON-quotes any value with a control character, ``"`` or ``\\``."""
        forged = ("eve\n2024-01-01T00:00:01Z Login user=admin account=111111111111 "
                  "action=- resource=- verdict=Allow source=111111111111")
        log = _account_log(tmp_path, "111111111111", [AuditEvent(
            time=utc(2024, 1, 1), kind=EventKind.LOGIN, user=forged,
            account="111111111111", verdict=Verdict.DENY,
        )])
        shown = json.dumps(forged)
        code, out, _ = run("audit", "query", str(log))
        assert (code, out) == (0, f"2024-01-01T00:00:00Z Login user={shown} account=111111111111 "
                                  "action=- resource=- verdict=Deny source=111111111111\n")
        code, out, _ = run("audit", "denied-summary", str(log), "--bucket", "1h")
        assert (code, out) == (0, f"2024-01-01T00:00:00Z user={shown} account=111111111111 "
                                  "denies=1\n")

    @pytest.mark.parametrize("user", ["eve\ud800", "eve\u2028x", "eve\u2029x"])
    def test_text_output_escapes_line_separators_and_surrogates(self, run, tmp_path, user):
        """A log may spell a lone surrogate as a JSON escape, and
        str.splitlines() breaks at U+2028: text output quotes such a value
        with ASCII escapes, so it prints as one line of UTF-8."""
        log = tmp_path / "log.jsonl"
        log.write_text(_event_line("2024-01-01T00:00:00Z", user=user), encoding="utf-8")
        shown = json.dumps(user)
        code, out, err = run("audit", "query", str(log))
        assert (code, err, out.splitlines()) == (0, "", [
            f"2024-01-01T00:00:00Z ApiCall user={shown} account=111111111111 "
            "action=s3:GetObject resource=arn:aws:s3:::bucket-s verdict=Deny source=111111111111"])
        code, out, err = run("audit", "denied-summary", str(log), "--bucket", "1h")
        assert (code, err, out.splitlines()) == (
            0, "", [f"2024-01-01T00:00:00Z user={shown} account=111111111111 denies=1"])

    def test_bad_bucket_duration(self, run, tmp_path):
        a, _, _ = self._logs(tmp_path)
        for bucket in ("1w", "٣h"):  # a digit of another script is not coerced
            code, _, err = run("audit", "denied-summary", str(a), "--bucket", bucket)
            assert code == 2 and "bad bucket duration" in err

    def test_malformed_event_line(self, run, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nope": true}\n', encoding="utf-8")
        code, out, err = run("audit", "query", str(path))
        assert code == 2 and out == "" and ":1:" in err

    @pytest.mark.parametrize("field, value", [
        ("user", 5), ("account", ["x"]), ("action", 5), ("resource", None), ("time", 0),
    ])
    def test_non_string_event_field_exits_two(self, run, tmp_path, field, value):
        a, _, _ = self._logs(tmp_path)
        lines = a.read_text(encoding="utf-8").splitlines()
        bad = json.loads(lines[1])  # the ApiCall
        bad[field] = value
        lines[1] = json.dumps(bad)
        a.write_text("\n".join(lines) + "\n", encoding="utf-8")
        merged = tmp_path / "archive.jsonl"
        for argv in (("audit", "query", str(a)),
                     ("audit", "merge", str(a), "--out", str(merged))):
            code, out, err = run(*argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"{a}:2: event field '{field}' must be a string")
            assert err.count("\n") == 1
        assert not merged.exists()

    def test_merge_into_an_empty_path_exits_two_first(self, run, tmp_path, monkeypatch):
        a, _, _ = self._logs(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        code, out, err = run("audit", "merge", str(a), str(bad), "--out", "")
        assert (code, out, err) == (2, "", "--out: empty output path\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_merge_into_a_long_output_name(self, run, tmp_path, monkeypatch):
        # the name is 246 bytes long, so the temporary beside it keeps a shortened one
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        name = "a" * 240 + ".jsonl"
        monkeypatch.chdir(tmp_path)
        code, _, err = run("audit", "merge", "empty.jsonl", "--out", name)
        assert (code, err) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == [name, "empty.jsonl"]
        assert (tmp_path / name).read_bytes() == b""

    def test_merge_into_a_missing_directory_exits_two_first(self, run, tmp_path):
        a, _, _ = self._logs(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        out_path = tmp_path / "nodir" / "x.jsonl"
        code, out, err = run("audit", "merge", str(a), str(bad), "--out", str(out_path))
        assert (code, out, err) == (2, "", f"output directory does not exist: {out_path.parent}\n")
        assert sorted(tmp_path.iterdir()) == before


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, run, sharing_scenario_path, tmp_path):
        args = (
            "--scenario", str(sharing_scenario_path), "--format", "json", "authorize",
            "--user", "user-2", "--account", "222222222222",
            "--action", "s3:GetObject", "--resource", "arn:aws:s3:::bucket-s",
            "--explain",
        )
        first = run(*args)
        second = run(*args)
        assert first == second


class TestFlagRanges:
    """A flag whose value reaches past the representable dates is named."""

    @staticmethod
    def _one_event_log(tmp_path, time):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({
            "time": time, "kind": "ApiCall", "user": "user-1", "account": "111111111111",
            "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
            "verdict": "Deny", "source": "111111111111",
        }) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("as_of, days", [
        ("2024-06-01T00:00:00Z", "9999999999"),
        ("0001-01-01T00:00:00Z", "1"),
    ])
    def test_threshold_days_before_year_one(self, run, sharing_scenario_path, tmp_path,
                                            as_of, days):
        log = self._one_event_log(tmp_path, "2024-01-01T00:00:00Z")
        code, out, err = run("--scenario", str(sharing_scenario_path), "analyze", "unused",
                             str(log), "--as-of", as_of, "--threshold-days", days)
        assert (code, out) == (2, "")
        assert err == f"--threshold-days {days}: reaches back before year 1 from --as-of {as_of}\n"

    def test_negative_threshold_days_names_the_flag(self, run, sharing_scenario_path, tmp_path):
        log = self._one_event_log(tmp_path, "2024-01-01T00:00:00Z")
        code, out, err = run("--scenario", str(sharing_scenario_path), "analyze", "unused",
                             str(log), "--as-of", "2024-06-01T00:00:00Z", "--threshold-days", "-5")
        assert (code, out, err) == (2, "", "--threshold-days -5: must be 0 or more\n")

    @pytest.mark.parametrize("bucket, time, message", [
        ("99999999999999d", "2024-01-01T00:00:00Z",
         "longer than the longest duration, 999999999d"),
        ("9" * 5000 + "s", "2024-01-01T00:00:00Z",
         "longer than the longest duration, 999999999d"),
        ("800000d", "1960-01-01T00:00:00Z",
         "the bucket of the event at 1960-01-01T00:00:00Z would start before year 1"),
    ], ids=["past-timedelta", "5000-digits", "before-year-one"])
    def test_bucket_out_of_range(self, run, tmp_path, bucket, time, message):
        log = self._one_event_log(tmp_path, time)
        code, out, err = run("audit", "denied-summary", str(log), "--bucket", bucket)
        assert (code, out) == (2, "")
        assert err == f"--bucket {bucket}: {message}\n"

    def test_widest_bucket_after_the_epoch(self, run, tmp_path):
        log = self._one_event_log(tmp_path, "2024-01-01T00:00:00Z")
        code, out, _ = run("audit", "denied-summary", str(log), "--bucket", "999999999d")
        assert (code, out) == (0, "1970-01-01T00:00:00Z user=user-1 account=111111111111 denies=1\n")


def _event_line(time, user="user-1", verdict="Deny"):
    return json.dumps({
        "time": time, "kind": "ApiCall", "user": user, "account": "111111111111",
        "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s",
        "verdict": verdict, "source": "111111111111",
    }) + "\n"


# (command, flags) whose flags are invalid
_FLAG_FAULTS = [
    ("query", ["--since", "yesterday"]),
    ("query", ["--until", "2024-1-1T00:00:00Z"]),
    ("query", ["--action", "s3:G*t"]),
    ("query", ["--since", "2024-02-01T00:00:00Z", "--until", "2024-01-01T00:00:00Z"]),
    ("denied-summary", ["--bucket", "1w"]),
    ("denied-summary", ["--bucket", "0s"]),
    ("denied-summary", ["--bucket", "99999999999999d"]),
]


class TestAuditErrorOrder:
    """A bad log line or a missing log is reported before a bad flag, as if
    the whole log were read before any flag is looked at."""

    @pytest.mark.parametrize("command, flags", _FLAG_FAULTS)
    def test_flag_fault_alone(self, run, tmp_path, command, flags):
        log = tmp_path / "log.jsonl"
        log.write_text(_event_line("2024-01-01T00:00:00Z"), encoding="utf-8")
        code, out, err = run("audit", command, str(log), *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and not err.startswith(str(log))

    @pytest.mark.parametrize("command, flags", _FLAG_FAULTS)
    def test_bad_line_is_reported_first(self, run, tmp_path, command, flags):
        log = tmp_path / "log.jsonl"
        good = _event_line("2024-01-01T00:00:00Z")
        log.write_text(good + '{"nope": true}\n' + good, encoding="utf-8")
        code, out, err = run("audit", command, str(log), *flags)
        assert (code, out, err) == (2, "", f"{log}:2: unknown event field(s) nope\n")

    @pytest.mark.parametrize("command, flags", _FLAG_FAULTS)
    def test_missing_log_is_reported_first(self, run, tmp_path, command, flags):
        log = tmp_path / "missing.jsonl"
        code, out, err = run("audit", command, str(log), *flags)
        assert (code, out) == (3, "")
        assert str(log) in err and err.count("\n") == 1

    def test_bad_line_after_a_bucket_before_year_one(self, run, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(_event_line("1960-01-01T00:00:00Z") + "{broken\n", encoding="utf-8")
        code, out, err = run("audit", "denied-summary", str(log), "--bucket", "800000d")
        assert (code, out) == (2, "")
        assert err.startswith(f"{log}:2: Expecting property name") and err.count("\n") == 1

    def test_year_one_names_the_earliest_event(self, run, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text(_event_line("2024-01-01T00:00:00Z") + _event_line("1960-01-01T00:00:00Z")
                       + _event_line("1950-06-01T00:00:00Z"), encoding="utf-8")
        code, out, err = run("audit", "denied-summary", str(log), "--bucket", "800000d")
        assert (code, out) == (2, "")
        assert err == ("--bucket 800000d: the bucket of the event at 1950-06-01T00:00:00Z "
                       "would start before year 1\n")


@pytest.mark.parametrize("pattern, fault", [
    ("*:", "invalid operation pattern '': the operation is empty"),
    ("s3:Get?bject", "invalid operation pattern 'Get?bject': '?' is not an ASCII letter or digit"),
    ("s3:G*t", "invalid operation pattern 'G*t': one trailing '*' at most"),
])
def test_bad_action_pattern_names_its_fault(run, tmp_path, pattern, fault):
    log = tmp_path / "log.jsonl"
    log.write_text(_event_line("2024-01-01T00:00:00Z"), encoding="utf-8")
    code, out, err = run("audit", "query", str(log), "--action", pattern)
    assert (code, out, err) == (2, "", f"bad action pattern {pattern!r}: {fault}\n")


_QUERY_FLAGS = [
    [], ["--verdict", "Deny"], ["--user", "bo"], ["--kind", "Login"], ["--action", "*:Get*"],
    ["--since", "2024-01-01T00:00:01Z", "--until", "2024-01-01T00:00:02Z"],
]


@st.composite
def _stream_events(draw):
    kind = draw(st.sampled_from(list(EventKind)))
    account = draw(st.sampled_from(["111111111111", "222222222222"]))
    api = kind is EventKind.API_CALL
    return AuditEvent(
        # few distinct times and sources, so that many events tie on (time, source)
        time=utc(2024, 1, 1, 0, 0, draw(st.integers(0, 3))),
        kind=kind, user=draw(st.sampled_from(["ana", "bo"])), account=account,
        action=draw(st.sampled_from(["s3:GetObject", "s3:DeleteObject"])) if api else "",
        resource="arn:aws:s3:::a" if api else "",
        verdict=draw(st.sampled_from(list(Verdict))),
        source=draw(st.sampled_from(["111111111111", "222222222222"])),
    )


def _cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.lists(_stream_events(), max_size=14).flatmap(st.permutations))
def test_unordered_log_reads_like_the_sorted_archive(events):
    with tempfile.TemporaryDirectory() as tmp:
        unordered, archive = Path(tmp) / "unordered.jsonl", Path(tmp) / "archive.jsonl"
        unordered.write_text("".join(map(event_to_line, events)), encoding="utf-8")
        # the archive a merge of this one log writes: its stable sort
        write_archive(archive_from_events(events), archive)
        for fmt in ("text", "json"):
            commands = [["query", *flags] for flags in _QUERY_FLAGS]
            commands.append(["denied-summary", "--bucket", "2s"])
            for command, *flags in commands:
                got = _cli(["--format", fmt, "audit", command, str(unordered), *flags])
                expected = _cli(["--format", fmt, "audit", command, str(archive), *flags])
                assert got == expected and got[0] == 0, (fmt, command, flags)


# each writes one event as a log line: its own form (read by the regex, and
# listed twice so that most lines take it), json.dumps's spacing, a raw DEL in the user name, an emptied source, a
# non-ASCII user name kept raw, and a CRLF line ending
_LINE_FORMS = [
    event_to_line,
    event_to_line,
    lambda e: json.dumps(event_to_obj(e)) + "\n",
    lambda e: json.dumps({**event_to_obj(e), "user": e.user + "\x7f"},
                         separators=(",", ":"), ensure_ascii=False) + "\n",
    lambda e: json.dumps({**event_to_obj(e), "source": ""}, separators=(",", ":")) + "\n",
    lambda e: json.dumps({**event_to_obj(e), "user": "jos\u00e9"}, separators=(",", ":"),
                         ensure_ascii=False) + "\n",
    lambda e: event_to_line(e)[:-1] + "\r\n",
]

# lines that end a read: not JSON, unknown fields, a bad kind, a non-string
# field, and a line in iamsim's own form with an impossible date
_BAD_LINES = [
    lambda e: "{broken\n",
    lambda e: '{"nope": true}\n',
    lambda e: json.dumps({**event_to_obj(e), "kind": "Logout"}) + "\n",
    lambda e: json.dumps({**event_to_obj(e), "user": 5}) + "\n",
    lambda e: event_to_line(e).replace('"time":"2024-01-01', '"time":"2024-02-30', 1),
]


@st.composite
def _mixed_logs(draw):
    """The text of a log whose lines take every form a reader meets."""
    events = draw(st.lists(_stream_events(), max_size=10))
    lines = [draw(st.sampled_from(_LINE_FORMS))(e) for e in events]
    lines += ["\n", "  \n", "\r\n"][:draw(st.integers(0, 3))]
    lines = draw(st.permutations(lines))
    if events and draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from(_BAD_LINES))(events[0])
        lines.insert(draw(st.integers(0, len(lines))), bad)
    text = "".join(lines)
    if text.endswith("\n") and draw(st.booleans()):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]  # no final newline
    return text


@st.composite
def _audit_commands(draw):
    """The flags of one ``audit query`` or ``audit denied-summary``, with
    possibly one bad --since or --bucket."""
    if draw(st.booleans()):
        return ["denied-summary", "--bucket", draw(st.sampled_from(["1s", "2s", "1h", "1w"]))]
    flags = ["query"]
    for flag, values in [
        ("--user", ["ana", "bo", "bo\x7f", "jos\u00e9"]),
        ("--account", ["111111111111", "222222222222"]),
        ("--action", ["*:Get*", "s3:*", "s3:DeleteObject", "*:*"]),
        ("--kind", [k.value for k in EventKind]),
        ("--verdict", [v.value for v in Verdict]),
        ("--since", ["2024-01-01T00:00:01Z", "2024-01-01T00:00:02Z", "yesterday"]),
        ("--until", ["2024-01-01T00:00:01Z", "2024-01-01T00:00:03Z"]),
    ]:
        if draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(values))]
    return flags


def _reference_audit(log: Path, fmt: str, command: str, *flags: str):
    """What ``audit query`` or ``audit denied-summary`` must print: each line
    decoded by ``event_from_obj(json.loads(line))``, then the library's
    query or summary, each hit written by ``event_to_line``."""
    events = []
    with open_text(log) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                events.append(event_from_obj(json.loads(line)))
            except ValueError as exc:  # JSONDecodeError and EventError
                return 2, "", f"{log}:{lineno}: {exc}\n"
    opts = dict(zip(flags[::2], flags[1::2]))
    if command == "denied-summary":
        try:
            bucket = cli._parse_bucket(opts["--bucket"])
        except cli.CliError as exc:
            return 2, "", f"{exc}\n"
        cells = denied_access_summary(events, bucket)
        if fmt == "json":
            return 0, json.dumps([
                {"bucket_start": format_timestamp(c.bucket_start), "user": c.user,
                 "account": c.account, "count": c.count} for c in cells
            ], separators=(",", ":")) + "\n", ""
        return 0, "".join(
            f"{format_timestamp(c.bucket_start)} user={c.user} account={c.account} "
            f"denies={c.count}\n" for c in cells) or "no denied requests\n", ""
    try:
        flt = QueryFilter(
            user=opts.get("--user"), account=opts.get("--account"),
            action_pattern=opts.get("--action"),
            kind=EventKind(opts["--kind"]) if "--kind" in opts else None,
            verdict=Verdict(opts["--verdict"]) if "--verdict" in opts else None,
            since=parse_timestamp(opts["--since"]) if "--since" in opts else None,
            until=parse_timestamp(opts["--until"]) if "--until" in opts else None,
        )
    except ValueError as exc:
        return 2, "", f"{exc}\n"
    hits = query(events, flt)
    if fmt == "json":
        return 0, "".join(map(event_to_line, hits)), ""
    return 0, "".join(
        f"{format_timestamp(e.time)} {e.kind.value} user={e.user} account={e.account} "
        f"action={e.action or '-'} resource={e.resource or '-'} "
        f"verdict={e.verdict.value} source={e.source}\n" for e in hits), ""


@settings(max_examples=150, deadline=None)
@given(_mixed_logs(), _audit_commands())
def test_audit_reads_match_the_json_decoder(text, command):
    """``audit query`` and ``denied-summary`` print what decoding every line
    with ``json.loads`` and building every event would print, whatever the
    form of each line, and report a bad line before a bad flag."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        log.write_bytes(text.encode("utf-8"))
        for fmt in ("json", "text"):
            got = _cli(["--format", fmt, "audit", *command[:1], str(log), *command[1:]])
            assert got == _reference_audit(log, fmt, *command), (fmt, command)


@contextlib.contextmanager
def _in_dir(path):
    home = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(home)


def _listing(directory) -> dict:
    """Every entry of ``directory``: a link's target, or a file's bytes."""
    return {p.name: f"-> {os.readlink(p)}" if p.is_symlink() else p.read_bytes()
            for p in Path(directory).iterdir()}


def _full_merge(argv):
    """``_cli(argv)`` with every input of a merge read in full: the
    reference that a streamed merge must match."""
    with mock.patch.object(cli, "_merge_streamed", lambda logs, out: None):
        return _cli(argv)


# each rewrites one line a merge reads
_MERGE_LINE_VARIANTS = [lambda line: line] * 20 + [
    lambda line: json.dumps(json.loads(line)) + "\n",  # spaced, so re-encoded
    lambda line: line.replace('"user":"', '"user":"\x7f', 1),  # DEL, written as \u007f
    lambda line: line[:line.rindex('"source":')] + '"source":""}\n',  # filled in
    lambda line: "{broken\n",
]


@st.composite
def _merge_runs(draw):
    """The logs of a directory ({name: text}) and the argv of one merge there."""
    files = {}
    for k in range(draw(st.integers(1, 3))):
        events = draw(st.lists(_stream_events(), max_size=6))
        if draw(st.integers(0, 4)):  # mostly in order, as per-account logs are
            events.sort(key=lambda e: (e.time, e.source))
        files[f"log{k}.jsonl"] = "".join(
            draw(st.sampled_from(_MERGE_LINE_VARIANTS))(event_to_line(e)) for e in events)
    logs = draw(st.lists(st.sampled_from(sorted(files)), min_size=1, max_size=4))
    if not draw(st.integers(0, 5)):
        logs.insert(draw(st.integers(0, len(logs))), "missing.jsonl")
    # a new target, an earlier archive, a link to a log, a missing directory, a log
    out = draw(st.sampled_from(["archive.jsonl"] * 4 + ["old.jsonl", "link.jsonl",
                                                         "nodir/x.jsonl", *files]))
    argv = ["--format", draw(st.sampled_from(["json", "text"])), "audit", "merge", *logs,
            "--out", out]
    return files, argv


def _login_line(second: int, source: str, user: str = "ana") -> str:
    return event_to_line(AuditEvent(time=utc(2024, 1, 1, 0, 0, second), kind=EventKind.LOGIN,
                                    user=user, account=source, verdict=Verdict.ALLOW))


@settings(max_examples=100, deadline=None)
@given(_merge_runs())
# a tie on time goes to the lesser source, and a tie on both to the earlier input
@example(({"log0.jsonl": _login_line(1, "222222222222") + _login_line(2, "111111111111"),
           "log1.jsonl": _login_line(1, "111111111111") + _login_line(2, "111111111111")},
          ["--format", "json", "audit", "merge", "log0.jsonl", "log1.jsonl", "--out", "x"]))
# the inversion inside log0 shows in the merged rows only at the last row,
# after rows of log1 have been written to the staged archive
@example(({"log0.jsonl": "".join(_login_line(s, "111111111111") for s in (1, 5, 3)),
           "log1.jsonl": "".join(_login_line(s, "111111111111") for s in (2, 4))},
          ["--format", "json", "audit", "merge", "log0.jsonl", "log1.jsonl", "--out", "x"]))
def test_streamed_merge_matches_the_full_merge(case):
    files, argv = case
    outcomes = []
    for merge in (_cli, _full_merge):
        with tempfile.TemporaryDirectory() as tmp, _in_dir(tmp):
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            Path("old.jsonl").write_text("earlier archive\n", encoding="utf-8")
            Path("link.jsonl").symlink_to("log0.jsonl")
            outcomes.append((merge(argv), _listing(tmp)))
    assert outcomes[0] == outcomes[1]


def test_ordered_inputs_with_ties_stay_on_the_streamed_path(tmp_path):
    """Logs in (time, source) order merge in one pass, also where they tie
    on (time, source) across inputs and within one input: the full read and
    merge are never called."""
    a, b = "111111111111", "222222222222"
    files = {
        "log0.jsonl": _login_line(1, a, "ana") + _login_line(1, a, "bo") + _login_line(2, b, "cy"),
        "log1.jsonl": _login_line(1, a, "di") + _login_line(2, a, "ed") + _login_line(2, b, "fa"),
    }
    argv = ["--format", "json", "audit", "merge", *files, "--out", "archive.jsonl"]

    def read_in_full(*args):
        raise AssertionError("an input was read in full")

    with _in_dir(tmp_path):
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        expected = _full_merge(argv)
        archive = Path("archive.jsonl").read_bytes()
        Path("archive.jsonl").unlink()
        with mock.patch.object(cli, "merge_archives", read_in_full), \
                mock.patch.object(cli, "read_archive", read_in_full):
            assert _cli(argv) == expected and expected[0] == 0
        assert Path("archive.jsonl").read_bytes() == archive


def _feed(fifo, data: bytes) -> threading.Thread:
    """Write ``data`` to ``fifo`` once a reader opens it."""
    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)
    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


@contextlib.contextmanager
def _alarm(seconds: int):
    """Interrupt the block with TimeoutError after ``seconds``, so that a
    second open of a FIFO whose writer has gone fails instead of hanging."""
    def interrupt(signum, frame):
        raise TimeoutError("blocked on a FIFO")
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_merge_reads_an_unordered_fifo_input_once(tmp_path):
    events = [AuditEvent(time=utc(2024, 1, 1, 0, 0, s), kind=EventKind.LOGIN, user="ana",
                         account=account, verdict=Verdict.ALLOW)
              for s, account in ((3, "111111111111"), (1, "222222222222"), (2, "111111111111"))]
    unordered = "".join(map(event_to_line, events)).encode()
    outcomes = []
    for merge in (_cli, _full_merge):
        directory = tmp_path / merge.__name__
        directory.mkdir()
        with _in_dir(directory):
            Path("log.jsonl").write_text(event_to_line(events[0]), encoding="utf-8")
            os.mkfifo("pipe.jsonl")
            writer = _feed("pipe.jsonl", unordered)
            with _alarm(10):
                outcome = merge(["--format", "json", "audit", "merge", "log.jsonl",
                                 "pipe.jsonl", "--out", "archive.jsonl"])
            writer.join(timeout=10)
            assert not writer.is_alive()
            outcomes.append((outcome, Path("archive.jsonl").read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert json.loads(outcomes[0][0][1])["events"] == 4


# runs the CLI with every decoded and every encoded line slowed down, so that
# the test can kill it while it writes
_SLOW_CLI = """
import sys, time
from iamsim import audit, cli

def slowly(f):
    def slow(*args):
        time.sleep(0.0005)
        return f(*args)
    return slow

audit._canonical_row = slowly(audit._canonical_row)
audit.event_to_line = slowly(audit.event_to_line)
sys.exit(cli.main(sys.argv[1:]))
"""

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child(code: str, argv, cwd, stdout=subprocess.PIPE, environ=os.environ) -> subprocess.Popen:
    env = {**environ, "PYTHONPATH": _SRC + os.pathsep + environ.get("PYTHONPATH", "")}
    return subprocess.Popen([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                            stdout=stdout, stderr=subprocess.PIPE)


def _write_logs(directory, n_logs: int, n_events: int) -> list[str]:
    names = []
    for k in range(n_logs):
        account = f"{k + 1:012d}"
        names.append(f"{account}.jsonl")
        Path(directory, names[-1]).write_text("".join(
            event_to_line(AuditEvent(time=utc(2024, 1, 1) + timedelta(seconds=3 * i + k),
                                     kind=EventKind.LOGIN, user=f"user-{i % 7}",
                                     account=account, verdict=Verdict.ALLOW))
            for i in range(n_events)), encoding="utf-8")
    return names


class TestKilledWriters:
    """A writer killed mid-write leaves each target as it was (or complete
    and new), and nothing beside it but its ``.<name>.<hex>.tmp`` files."""

    def _kill_while_staging(self, tmp_path, argv, inputs, targets, growing, size):
        work, reference = tmp_path / "work", tmp_path / "reference"
        for directory in (work, reference):
            directory.mkdir()
            for name, data in inputs.items():
                (directory / name).write_bytes(data)
        with _in_dir(reference):
            assert _cli(argv)[0] == 0
        complete = {name: (reference / name).read_bytes() for name in targets}
        child = _child(_SLOW_CLI, argv, work)
        try:
            deadline = time.monotonic() + 60
            while not any(p.stat().st_size >= size for p in work.glob(f".{growing}.*.tmp")):
                assert child.poll() is None, child.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.002)
        finally:
            child.kill()
            child.communicate()
        left = _listing(work)
        for name in targets:
            assert left.pop(name) in (inputs[name], complete[name])
        for name in inputs.keys() - set(targets):
            assert left.pop(name) == inputs[name]
        assert left and all(re.fullmatch(r"\.(%s)\.[0-9a-f]{8}\.tmp" % "|".join(
            map(re.escape, targets)), name) for name in left)

    # killed once the staged archive has its first block, and once it is well along
    @pytest.mark.parametrize("size", [1, 100_000])
    def test_merge(self, tmp_path, size):
        names = _write_logs(tmp_path, 3, 1000)
        inputs = {name: (tmp_path / name).read_bytes() for name in names}
        inputs["archive.jsonl"] = b"earlier archive\n"
        self._kill_while_staging(tmp_path, ["audit", "merge", *names, "--out", "archive.jsonl"],
                                 inputs, ["archive.jsonl"], "archive.jsonl", size)

    @pytest.mark.parametrize("size", [1, 100_000])
    def test_simulate_out_and_emit_log(self, tmp_path, sharing_scenario_path, size):
        request = {"user": "user-1", "account": "111111111111",
                   "action": "s3:GetObject", "resource": "arn:aws:s3:::bucket-s"}
        inputs = {
            "scenario.json": sharing_scenario_path.read_bytes(),
            "requests.jsonl": (json.dumps(request) + "\n").encode() * 3000,
            "decisions.jsonl": b"earlier decisions\n",
            "log.jsonl": b"earlier log\n",
        }
        argv = ["--scenario", "scenario.json", "simulate", "requests.jsonl",
                "--out", "decisions.jsonl", "--emit-log", "log.jsonl"]
        self._kill_while_staging(tmp_path, argv, inputs, ["decisions.jsonl", "log.jsonl"],
                                 "log.jsonl", size)


# lowers the soft open-file limit to 40, holds some descriptors open, then
# runs the CLI
_FEW_FILES_CLI = """
import os, resource, sys
from iamsim import cli

held = int(sys.argv[1])
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (min(40, hard), hard))
fds = [os.open(os.devnull, os.O_RDONLY) for _ in range(held)]
sys.exit(cli.main(sys.argv[2:]))
"""


# 64 logs are more than the limit allows at once; 20 logs fit, unless 25
# descriptors are already taken and the merge runs out of them midway
@pytest.mark.parametrize("n_logs, held", [(64, 0), (20, 0), (20, 25)])
def test_merge_under_a_low_open_file_limit(tmp_path, n_logs, held):
    names = _write_logs(tmp_path, n_logs, 3)
    argv = ["--format", "json", "audit", "merge", *names, "--out", "archive.jsonl"]
    with _in_dir(tmp_path):
        expected = _full_merge(argv)
        Path("archive.jsonl").rename("expected.jsonl")
    child = _child(_FEW_FILES_CLI, [str(held), *argv], tmp_path)
    out, err = child.communicate(timeout=60)
    assert (child.returncode, out.decode(), err.decode()) == expected and expected[0] == 0
    assert (tmp_path / "archive.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


# runs the CLI as the installed iamsim command does
_CLI = """
import sys
from iamsim import cli

sys.exit(cli.main(sys.argv[1:]))
"""


class TestStdoutFailures:
    """A write to stdout that fails, on a full device or into a pipe whose
    reader has gone, exits 3 with one line on stderr, whether or not stdout
    is buffered, and nothing fails again at interpreter exit."""

    @pytest.mark.parametrize("argv, code", [
        (["--scenario", "scenario.json", "validate"], 3),
        (["--scenario", "scenario.json", "simulate", "requests.jsonl", "--out", "out.jsonl"], 0),
    ], ids=["validate", "simulate-out"])
    def test_closed_stdout(self, run, tmp_path, sharing_scenario_path, argv, code):
        """Started with fd 1 closed, Python has no ``sys.stdout``: a command
        with output exits 3 with one line, and one that prints nothing runs
        as usual."""
        (tmp_path / "scenario.json").write_bytes(sharing_scenario_path.read_bytes())
        requests = sharing_scenario_path.with_name("sharing-demo-requests.jsonl")
        (tmp_path / "requests.jsonl").write_bytes(requests.read_bytes())
        env = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        child = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-c", _CLI, *argv],
                               cwd=tmp_path, env=env, stderr=subprocess.PIPE, timeout=60)
        err = child.stderr.decode()
        assert child.returncode == code, err
        if code == 3:
            assert err == "cannot write the output: stdout is closed\n"
            return
        assert err == ""
        _, out, _ = run("--scenario", str(tmp_path / "scenario.json"), "simulate",
                        str(tmp_path / "requests.jsonl"))
        assert out.count("\n") == 3
        assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, into", [
        (["audit", "query", "log.jsonl"], "/dev/full"),
        (["--scenario", "scenario.json", "validate"], "/dev/full"),
        (["--scenario", "scenario.json", "authorize", "--user", "user-3",
          "--account", "333333333333", "--action", "s3:GetObject",
          "--resource", "arn:aws:s3:::bucket-s"], "/dev/full"),
        (["--format", "json", "audit", "query", "log.jsonl", "--kind", "ApiCall"], "closed pipe"),
    ], ids=["query-text", "validate", "authorize-allowed", "query-json-pipe"])
    def test_exits_three_with_one_line(self, tmp_path, sharing_scenario_path, argv, into,
                                       unbuffered):
        (tmp_path / "scenario.json").write_bytes(sharing_scenario_path.read_bytes())
        # more text than one buffer holds, so a buffered write fails before the flush
        write_archive(archive_from_events(
            AuditEvent(time=utc(2024, 1, 1) + timedelta(seconds=i), kind=EventKind.API_CALL,
                       user="ana", account="111111111111", action="s3:GetObject",
                       resource=f"arn:aws:s3:::bkt/{i}", verdict=Verdict.ALLOW)
            for i in range(500)
        ), tmp_path / "log.jsonl")
        environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            environ["PYTHONUNBUFFERED"] = "1"
        if into == "/dev/full":
            stdout = os.open(into, os.O_WRONLY)
        else:
            reader, stdout = os.pipe()
            os.close(reader)
        try:
            child = _child(_CLI, argv, tmp_path, stdout=stdout, environ=environ)
        finally:
            os.close(stdout)
        _, err = child.communicate(timeout=60)
        err = err.decode()
        assert child.returncode == 3, err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err and "Exception ignored" not in err
