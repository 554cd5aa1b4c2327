"""Command-line entry point.

Thin adapter over the library: loads a scenario, runs one subcommand
(validate, authorize, simulate, analyze, audit) and prints data on stdout
with diagnostics on stderr. Exit codes are scriptable: 0 success (or
Allow), 1 Deny from ``authorize``, 2 invalid input or request (and any
unexpected error, reported in one line without a traceback), 3 I/O
failure. Output is buffered and written only on success; output files are
staged beside their targets and renamed into place once all are written
(links, devices and FIFOs are written in place). So a failing run never
leaves partial data in a regular file. Identical inputs and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import timedelta
from pathlib import Path

from .audit import (
    EventError,
    EventKind,
    QueryFilter,
    archive_from_events,
    denied_access_summary,
    event_to_line,
    format_timestamp,
    merge_archives,
    parse_timestamp,
    query,
    read_archive,
    write_archive,
)
from .atomic import replacing
from .engine import AccessRequest, RequestError, authorize, decision_to_obj, render_trace, simulate
from .org import Organization, ScenarioError, load_scenario
from .policy import PolicyParseError, Verdict, VerbTable, serialize_policy
from .usage import (
    DEFAULT_SAMPLE_SEED,
    UsageError,
    build_usage_index,
    generate_least_privilege,
    generated_policy_obj,
    render_unused_report,
    unused_report,
    unused_report_obj,
)

_REQUEST_KEYS = frozenset({"user", "account", "action", "resource", "context"})

_BUCKET_RE = re.compile(r"(\d+)([smhd])\Z")
_BUCKET_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}

EXIT_OK = 0
EXIT_DENY = 1
EXIT_INVALID = 2
EXIT_IO = 3


class CliError(Exception):
    """Invalid input; rendered on stderr with exit code 2."""


def _parse_bucket(text: str) -> timedelta:
    m = _BUCKET_RE.fullmatch(text)
    if not m:
        raise CliError(f"bad bucket duration {text!r}: expected e.g. 45s, 30m, 1h, 7d")
    try:
        return timedelta(seconds=int(m.group(1)) * _BUCKET_UNITS[m.group(2)])
    except (OverflowError, ValueError):  # past timedelta's range, or too many digits
        raise CliError(f"--bucket {text}: longer than the longest duration, 999999999d") from None


def _parse_window(text: str) -> tuple:
    parts = text.split("..")
    if len(parts) != 2:
        raise CliError(f"bad window {text!r}: expected START..END timestamps")
    return parse_timestamp(parts[0]), parse_timestamp(parts[1])


def _parse_principal(text: str) -> tuple[str, str]:
    user, _, account = text.rpartition("@")
    if not user or not account:
        raise CliError(f"bad principal {text!r}: expected USER@ACCOUNT")
    return user, account


def _parse_context(pairs: list[str]) -> dict[str, str]:
    context = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"bad context entry {pair!r}: expected KEY=VALUE")
        key, value = pair.split("=", 1)
        context[key] = value
    return context


def _load_org(args: argparse.Namespace) -> Organization:
    if not args.scenario:
        raise CliError("a scenario file is required (--scenario PATH)")
    return load_scenario(args.scenario)


def _read_requests(path: str) -> list[AccessRequest]:
    requests = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # too deep for the decoder
                raise CliError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CliError(f"{path}:{lineno}: request must be an object")
            unknown = sorted(set(obj) - _REQUEST_KEYS)
            if unknown:
                raise CliError(f"{path}:{lineno}: unknown field(s) {', '.join(unknown)}")
            missing = sorted({"user", "account", "action", "resource"} - set(obj))
            if missing:
                raise CliError(f"{path}:{lineno}: missing field(s) {', '.join(missing)}")
            try:
                requests.append(AccessRequest(
                    user=obj["user"], account=obj["account"], action=obj["action"],
                    resource=obj["resource"], context=obj.get("context", {}),
                ))
            except RequestError as exc:
                raise CliError(f"{path}:{lineno}: {exc}") from exc
    return requests


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def cmd_validate(args: argparse.Namespace) -> tuple[int, str]:
    org = _load_org(args)
    if args.fmt == "json":
        summary = {
            "valid": True,
            "accounts": len(org.accounts),
            "users": len(org.users),
            "groups": len(org.groups),
            "permission_sets": len(org.permission_sets),
        }
        return EXIT_OK, _dumps(summary) + "\n"
    return EXIT_OK, (
        f"scenario ok: {len(org.accounts)} accounts, {len(org.users)} users, "
        f"{len(org.groups)} groups, {len(org.permission_sets)} permission sets\n"
    )


def cmd_authorize(args: argparse.Namespace) -> tuple[int, str]:
    org = _load_org(args)
    request = AccessRequest(
        user=args.user, account=args.account,
        action=args.action, resource=args.resource,
        context=_parse_context(args.context),
    )
    decision = authorize(org, request)
    code = EXIT_OK if decision.verdict is Verdict.ALLOW else EXIT_DENY
    if args.fmt == "json":
        return code, _dumps(decision_to_obj(decision, include_trace=args.explain)) + "\n"
    if args.explain:
        return code, render_trace(org, request, decision) + "\n"
    return code, f"{decision.verdict.value} ({decision.reason.value})\n"


def cmd_simulate(args: argparse.Namespace) -> tuple[int, str]:
    org = _load_org(args)
    # a missing directory is invalid input (exit 2), refused before any work
    for path in (args.out, args.emit_log):
        if path and not Path(path).resolve().parent.is_dir():
            raise CliError(f"output directory does not exist: {Path(path).parent}")
    requests = _read_requests(args.requests)
    events = []
    decisions = simulate(org, requests, sink=events.append)
    lines = [
        _dumps(decision_to_obj(d, include_trace=args.trace)) for d in decisions
    ]
    body = "".join(line + "\n" for line in lines)
    # --out is fully written to its staged file before write_archive writes
    # and renames the log, and is renamed only after that, so a run that
    # fails to write either file leaves neither behind
    with replacing(args.out or None) as (out_path,):
        if out_path:
            out_path.write_text(body, encoding="utf-8")
        if args.emit_log:
            write_archive(archive_from_events(events), args.emit_log)
    return EXIT_OK, "" if args.out else body


def cmd_analyze_unused(args: argparse.Namespace) -> tuple[int, str]:
    org = _load_org(args)
    archive = read_archive(args.log)
    index = build_usage_index(org, archive.events)
    as_of = parse_timestamp(args.as_of)
    try:
        entries = unused_report(index, org, as_of, args.threshold_days)
    except OverflowError:  # the cutoff, as-of minus the threshold, is before year 1
        raise CliError(f"--threshold-days {args.threshold_days}: reaches back before year 1 "
                       f"from --as-of {args.as_of}") from None
    if args.fmt == "json":
        return EXIT_OK, _dumps(unused_report_obj(entries)) + "\n"
    return EXIT_OK, render_unused_report(entries) + "\n"


def cmd_analyze_generate(args: argparse.Namespace) -> tuple[int, str]:
    org = _load_org(args)
    archive = read_archive(args.log)
    index = build_usage_index(org, archive.events)
    table = VerbTable.load(args.verb_table) if args.verb_table else None
    generated = generate_least_privilege(
        index,
        _parse_principal(args.principal),
        args.level,
        _parse_window(args.window),
        verb_table=table,
        sample_seed=args.seed,
    )
    if args.fmt == "json":
        return EXIT_OK, _dumps(generated_policy_obj(generated)) + "\n"
    v = generated.verification
    lines = [
        serialize_policy(generated.document, indent=2),
        f"coverage: {v.coverage:.3f} ({v.covered}/{v.observed} observed pairs re-authorized)",
        f"excess:   {v.excess:.3f} ({v.excess_allowed}/{v.sampled} sampled unobserved pairs authorized)",
        f"verified: {'yes' if generated.verified else 'no'}",
        "fallback actions: "
        + (", ".join(generated.fallback_actions) if generated.fallback_actions else "none"),
    ]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_audit_merge(args: argparse.Namespace) -> tuple[int, str]:
    archives = [read_archive(p) for p in args.logs]
    merged = merge_archives(archives)
    write_archive(merged, args.out)
    if args.fmt == "json":
        summary = {
            "events": len(merged),
            "accounts_covered": sorted(merged.accounts_covered),
            "out": args.out,
        }
        return EXIT_OK, _dumps(summary) + "\n"
    return EXIT_OK, (
        f"merged {len(merged)} events covering {len(merged.accounts_covered)} "
        f"accounts into {args.out}\n"
    )


def cmd_audit_query(args: argparse.Namespace) -> tuple[int, str]:
    archive = read_archive(args.log)
    flt = QueryFilter(
        user=args.user,
        account=args.account,
        action_pattern=args.action,
        kind=EventKind(args.kind) if args.kind else None,
        verdict=Verdict(args.verdict) if args.verdict else None,
        since=parse_timestamp(args.since) if args.since else None,
        until=parse_timestamp(args.until) if args.until else None,
    )
    events = query(archive, flt)
    if args.fmt == "json":
        return EXIT_OK, "".join(map(event_to_line, events))
    lines = [
        f"{format_timestamp(e.time)} {e.kind.value} user={e.user} account={e.account} "
        f"action={e.action or '-'} resource={e.resource or '-'} "
        f"verdict={e.verdict.value} source={e.source}"
        for e in events
    ]
    return EXIT_OK, "".join(line + "\n" for line in lines)


def cmd_audit_denied(args: argparse.Namespace) -> tuple[int, str]:
    archive = read_archive(args.log)
    try:
        cells = denied_access_summary(archive, _parse_bucket(args.bucket))
    except EventError as exc:
        raise CliError(f"--bucket {args.bucket}: {exc}") from None
    if args.fmt == "json":
        objs = [
            {
                "bucket_start": format_timestamp(c.bucket_start),
                "user": c.user,
                "account": c.account,
                "count": c.count,
            }
            for c in cells
        ]
        return EXIT_OK, _dumps(objs) + "\n"
    lines = [
        f"{format_timestamp(c.bucket_start)} user={c.user} account={c.account} denies={c.count}"
        for c in cells
    ]
    body = "".join(line + "\n" for line in lines) if lines else "no denied requests\n"
    return EXIT_OK, body


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iamsim",
        description="Simulate multi-account IAM: authorize requests, analyze activity, audit logs.",
    )
    parser.add_argument("--scenario", help="path to the scenario JSON file")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SAMPLE_SEED,
                        help="seed for complement sampling (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("authorize", help="decide a single access request")
    p.add_argument("--user", required=True)
    p.add_argument("--account", required=True)
    p.add_argument("--action", required=True, help="concrete action, e.g. s3:GetObject")
    p.add_argument("--resource", required=True, help="concrete resource arn")
    p.add_argument("--context", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--explain", action="store_true", help="print the full decision trace")
    p.set_defaults(func=cmd_authorize)

    p = sub.add_parser("simulate", help="decide a JSON-Lines batch of requests")
    p.add_argument("requests", help="requests file, one JSON object per line")
    p.add_argument("--out", help="write decisions here instead of stdout")
    p.add_argument("--emit-log", help="also write the audit events for the batch")
    p.add_argument("--trace", action="store_true", help="include traces in decisions")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="least-privilege analysis over an audit log")
    asub = p.add_subparsers(dest="subaction", required=True)
    pu = asub.add_parser("unused", help="list stale or never-used statements")
    pu.add_argument("log", help="audit log (JSON Lines)")
    pu.add_argument("--as-of", required=True, help="report reference time")
    pu.add_argument("--threshold-days", type=int, required=True)
    pu.set_defaults(func=cmd_analyze_unused)
    pg = asub.add_parser("generate", help="generate a least-privilege policy")
    pg.add_argument("log", help="audit log (JSON Lines)")
    pg.add_argument("--principal", required=True, metavar="USER@ACCOUNT")
    pg.add_argument("--level", type=int, choices=(2, 3, 4), required=True)
    pg.add_argument("--window", required=True, metavar="START..END")
    pg.add_argument("--verb-table", help="override the built-in verb table")
    pg.set_defaults(func=cmd_analyze_generate)

    p = sub.add_parser("audit", help="merge and query audit logs")
    asub = p.add_subparsers(dest="subaction", required=True)
    pm = asub.add_parser("merge", help="merge per-account logs into one archive")
    pm.add_argument("logs", nargs="+", help="input logs")
    pm.add_argument("--out", default="archive.jsonl")
    pm.set_defaults(func=cmd_audit_merge)
    pq = asub.add_parser("query", help="filter events")
    pq.add_argument("log")
    pq.add_argument("--user")
    pq.add_argument("--account")
    pq.add_argument("--action", help="action pattern, e.g. '*:Delete*'")
    pq.add_argument("--kind", choices=[k.value for k in EventKind])
    pq.add_argument("--verdict", choices=[v.value for v in Verdict])
    pq.add_argument("--since", help="inclusive lower bound timestamp")
    pq.add_argument("--until", help="inclusive upper bound timestamp")
    pq.set_defaults(func=cmd_audit_query)
    pd = asub.add_parser("denied-summary", help="bucketed Deny counts per user and account")
    pd.add_argument("log")
    pd.add_argument("--bucket", required=True, help="bucket width, e.g. 1h")
    pd.set_defaults(func=cmd_audit_denied)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, body = args.func(args)
    except ScenarioError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return EXIT_INVALID
    except (CliError, PolicyParseError, RequestError, UsageError, EventError, LookupError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a fault of iamsim itself: one line, never a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INVALID
    if body:
        sys.stdout.write(body)
    return code


if __name__ == "__main__":
    sys.exit(main())
