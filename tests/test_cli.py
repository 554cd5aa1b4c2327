"""Command-line behavior: exit codes, formats, buffering and thin-adapter parity."""

import json
import os

import pytest

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
from iamsim.cli import main

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
        def broken(args):
            raise TypeError("unsupported operand\nsecond line")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        code, out, err = run("--scenario", str(demo_scenario_path), "validate")
        assert (code, out) == (2, "")
        assert err == "internal error: TypeError('unsupported operand\\nsecond line')\n"

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

    def test_bad_bucket_duration(self, run, tmp_path):
        a, _, _ = self._logs(tmp_path)
        code, _, err = run("audit", "denied-summary", str(a), "--bucket", "1w")
        assert code == 2 and "bucket" in err

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
