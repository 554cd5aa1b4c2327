"""Audit events, archive ordering, merging, queries and summaries."""

import json
import os
import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iamsim import (
    AuditEvent,
    EventError,
    EventKind,
    LogArchive,
    QueryFilter,
    Verdict,
    append_event,
    archive_from_events,
    denied_access_summary,
    merge_archives,
    query,
    read_archive,
    write_archive,
)
from iamsim import audit
from iamsim.audit import (
    event_from_obj,
    event_to_line,
    event_to_obj,
    format_timestamp,
    parse_timestamp,
)

from conftest import utc

ACCOUNTS = ["111111111111", "222222222222", "333333333333"]
USERS = ["ana", "bo", "cy"]
ACTIONS = ["s3:GetObject", "s3:DeleteObject", "ec2:StartInstances", "iam:DeleteRole"]
RESOURCES = ["arn:aws:s3:::a", "arn:aws:s3:::b", "arn:aws:ec2:us-east-1:111111111111:instance/i-1"]

# services and operations whose names prefix one another, so that a
# trailing "*" and an exact name select different events
QUERY_SERVICES = ["s3", "s3x", "ec2", "iam"]
QUERY_OPERATIONS = ["Get", "GetObject", "GetObjectAcl", "DeleteBucket", "Delete", "List"]



def make_event(rng: random.Random, *, second: int | None = None) -> AuditEvent:
    kind = EventKind.LOGIN if rng.random() < 0.25 else EventKind.API_CALL
    account = rng.choice(ACCOUNTS)
    return AuditEvent(
        time=utc(2024, 3, 1, rng.randrange(24), rng.randrange(60),
                 rng.randrange(60) if second is None else second),
        kind=kind,
        user=rng.choice(USERS),
        account=account,
        action=rng.choice(ACTIONS) if kind is EventKind.API_CALL else "",
        resource=rng.choice(RESOURCES) if kind is EventKind.API_CALL else "",
        verdict=rng.choice([Verdict.ALLOW, Verdict.DENY]),
        source=account,
    )


def random_archive(rng: random.Random, n: int) -> LogArchive:
    return archive_from_events(make_event(rng) for _ in range(n))


# every aware UTC datetime from year 1 to 9999, at second precision
utc_seconds = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59),
    timezones=st.just(timezone.utc),
).map(lambda when: when.replace(microsecond=0))


class TestEvents:
    def test_login_event_valid(self):
        event = AuditEvent(time=utc(2024, 1, 1), kind=EventKind.LOGIN,
                           user="ana", account=ACCOUNTS[0], verdict=Verdict.ALLOW)
        assert event.source == ACCOUNTS[0]

    def test_api_call_needs_action_and_resource(self):
        with pytest.raises(EventError):
            AuditEvent(time=utc(2024, 1, 1), kind=EventKind.API_CALL,
                       user="ana", account=ACCOUNTS[0], verdict=Verdict.ALLOW,
                       action="", resource="arn:aws:s3:::a")

    def test_login_must_not_carry_action(self):
        with pytest.raises(EventError):
            AuditEvent(time=utc(2024, 1, 1), kind=EventKind.LOGIN,
                       user="ana", account=ACCOUNTS[0], verdict=Verdict.ALLOW,
                       action="s3:GetObject", resource="arn:aws:s3:::a")

    def test_timestamp_round_trip(self):
        when = utc(2024, 6, 30, 23, 59, 59)
        assert parse_timestamp(format_timestamp(when)) == when

    def test_timestamp_rejects_non_canonical(self):
        for bad in ("2024-01-01 00:00:00", "2024-01-01T00:00:00+00:00",
                    "2024-01-01T00:00:00.5Z", "not-a-time",
                    # single-digit fields, which strptime would take and widen
                    "2024-1-1T0:0:0Z", "2024-1-01T00:00:00Z", "2024-01-1T00:00:00Z",
                    "2024-01-01T0:00:00Z", "2024-01-01T00:0:00Z", "2024-01-01T00:00:0Z",
                    "999-05-01T00:00:00Z",
                    # digits of other scripts, which strptime and int() accept
                    "\u0662\u0660\u0662\u0664-01-01T00:00:00Z",
                    "2024-01-01T00:00:0\uff11Z", "\u0968\u0966\u0968\u096a-01-01T00:00:00Z",
                    # impossible values and stray characters
                    "0000-01-01T00:00:00Z", "2023-02-29T00:00:00Z", "2024-01-01T24:00:00Z",
                    "2024-01-01T00:00:60Z", "2024-01-01T00:00:00z", "2024-01-01T00:00:00Z\n",
                    " 2024-01-01T00:00:00Z", "", 5, None):
            with pytest.raises(EventError):
                parse_timestamp(bad)

    @given(utc_seconds)
    def test_timestamp_round_trip_every_year(self, when):
        text = format_timestamp(when)
        assert len(text) == 20
        assert parse_timestamp(text) == when

    def test_format_pads_year_to_four_digits(self):
        assert format_timestamp(utc(999, 5, 1)) == "0999-05-01T00:00:00Z"
        assert format_timestamp(utc(1, 1, 1)) == "0001-01-01T00:00:00Z"

    @given(st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z",
                         fullmatch=True))
    def test_timestamp_agrees_with_strptime(self, text):
        # strptime is the reference on the canonical shape only: it also takes
        # one-digit fields and non-ASCII digits, which parse_timestamp rejects
        try:
            expected = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
        except ValueError:
            with pytest.raises(EventError):
                parse_timestamp(text)
        else:
            assert parse_timestamp(text) == expected

    def test_obj_round_trip(self):
        rng = random.Random(1)
        for _ in range(50):
            event = make_event(rng)
            assert event_from_obj(event_to_obj(event)) == event

    def test_obj_rejects_unknown_field(self):
        rng = random.Random(2)
        obj = event_to_obj(make_event(rng))
        obj["extra"] = 1
        with pytest.raises(EventError, match="extra"):
            event_from_obj(obj)

    @pytest.mark.parametrize("field", sorted(audit._EVENT_KEYS))
    @pytest.mark.parametrize("value", [5, ["x"], None, {"a": "b"}])
    def test_obj_fields_must_be_strings(self, field, value):
        obj = event_to_obj(make_event(random.Random(3)))
        obj[field] = value
        with pytest.raises(EventError, match=f"event field '{field}' must be a string"):
            event_from_obj(obj)

    @pytest.mark.parametrize("field", ["user", "account", "action", "resource", "source"])
    def test_constructor_fields_must_be_strings(self, field):
        fields = dict(time=utc(2024, 1, 1), kind=EventKind.API_CALL, user="ana",
                      account=ACCOUNTS[0], verdict=Verdict.ALLOW,
                      action="s3:GetObject", resource="arn:aws:s3:::a", source=ACCOUNTS[0])
        fields[field] = 5
        with pytest.raises(EventError, match=f"event field '{field}' must be a string, not int"):
            AuditEvent(**fields)

    @pytest.mark.parametrize("when", ["2024-01-01T00:00:00Z", 0, datetime(2024, 1, 1)])
    def test_constructor_time_must_be_aware_datetime(self, when):
        with pytest.raises(EventError, match="timezone-aware UTC datetime"):
            AuditEvent(time=when, kind=EventKind.LOGIN, user="ana", account=ACCOUNTS[0],
                       verdict=Verdict.ALLOW)


class TestArchive:
    def test_append_grows_by_one(self):
        archive = LogArchive()
        event = AuditEvent(time=utc(2024, 1, 1), kind=EventKind.LOGIN,
                           user="ana", account=ACCOUNTS[0], verdict=Verdict.ALLOW)
        grown = append_event(archive, event)
        assert len(grown) == 1 and len(archive) == 0

    def test_late_events_reinserted_by_time(self):
        rng = random.Random(3)
        events = [make_event(rng) for _ in range(40)]
        archive = LogArchive()
        for event in events:
            archive = append_event(archive, event)
        # naive reference: stable sort of the arrival sequence
        expected = sorted(events, key=lambda e: (e.time, e.source))
        assert list(archive.events) == expected

    def test_accounts_covered(self):
        rng = random.Random(4)
        archive = random_archive(rng, 30)
        assert archive.accounts_covered == {e.source for e in archive.events}

    def test_merge_singletons(self):
        rng = random.Random(5)
        singles = [archive_from_events([make_event(rng)]) for _ in range(10)]
        merged = merge_archives(singles)
        assert len(merged) == 10
        assert merge_archives([]) == LogArchive()

    def test_merge_matches_naive_sort(self):
        rng = random.Random(6)
        archives = [random_archive(rng, rng.randrange(25)) for _ in range(5)]
        merged = merge_archives(archives)
        naive = sorted(
            (e for a in archives for e in a.events),
            key=lambda e: (e.time, e.source),
        )
        assert list(merged.events) == naive
        assert len(merged) == sum(len(a) for a in archives)

    def test_merge_identity_and_associativity(self):
        rng = random.Random(7)
        a, b, c = (random_archive(rng, 15) for _ in range(3))
        assert merge_archives([a, LogArchive()]) == a
        assert merge_archives([merge_archives([a, b]), c]) == merge_archives([a, b, c])

    def test_merge_commutative_up_to_tiebreak(self):
        rng = random.Random(8)
        a, b = random_archive(rng, 20), random_archive(rng, 20)
        left = merge_archives([a, b])
        right = merge_archives([b, a])
        assert sorted(map(event_to_obj, left.events), key=str) == \
            sorted(map(event_to_obj, right.events), key=str)
        assert [(e.time, e.source) for e in left.events] == \
            [(e.time, e.source) for e in right.events]

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(9)
        for i in range(5):
            archive = random_archive(rng, rng.randrange(40))
            path = tmp_path / f"log{i}.jsonl"
            write_archive(archive, path)
            assert read_archive(path) == archive

    def test_read_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rng = random.Random(10)
        good = event_to_obj(make_event(rng))
        import json
        path.write_text(json.dumps(good) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(EventError, match=":2"):
            read_archive(path)

    def test_read_takes_whitespace_but_not_trailing_data(self, tmp_path):
        event = make_event(random.Random(11))
        line = json.dumps(event_to_obj(event))
        path = tmp_path / "log.jsonl"
        path.write_text(f"\n  {line} \t\n\n{line}", encoding="utf-8")
        assert read_archive(path).events == (event, event)
        for junk in (" x", "{}", "]", "\x0c", " \u2028", "\xa0"):
            path.write_text(f"{line}\n{line}{junk}\n", encoding="utf-8")
            with pytest.raises(EventError, match=":2: Extra data"):
                read_archive(path)


# text that JSON must escape, or that is outside ASCII, in user and resource
_awkward_text = st.text(
    alphabet=st.sampled_from(list('ab-"\\/\n\t\x00\x7f\u00e9\u2028\u4e2d\U0001f600')),
    min_size=1, max_size=8,
)


@st.composite
def codec_events(draw):
    kind = draw(st.sampled_from(list(EventKind)))
    account = draw(st.sampled_from(ACCOUNTS))
    api = kind is EventKind.API_CALL
    return AuditEvent(
        time=draw(utc_seconds),
        kind=kind,
        user=draw(st.one_of(st.sampled_from(USERS), _awkward_text)),
        account=account,
        action=draw(st.sampled_from(ACTIONS)) if api else "",
        resource=draw(st.one_of(st.sampled_from(RESOURCES), _awkward_text)) if api else "",
        verdict=draw(st.sampled_from(list(Verdict))),
        source=draw(st.sampled_from(ACCOUNTS + [account])),
    )


class TestCodec:
    @given(st.lists(codec_events(), max_size=12))
    def test_line_encoder_matches_json_dumps(self, events):
        for event in events:
            assert event_to_line(event) == \
                json.dumps(event_to_obj(event), separators=(",", ":")) + "\n"

    @given(st.lists(codec_events(), max_size=12))
    def test_write_read_write_is_identity(self, tmp_path_factory, events):
        archive = archive_from_events(events)
        path = tmp_path_factory.mktemp("codec") / "archive.jsonl"
        write_archive(archive, path)
        first = path.read_bytes()
        assert read_archive(path) == archive
        write_archive(read_archive(path), path)
        assert path.read_bytes() == first

    def test_action_must_be_a_string_in_a_log(self, tmp_path):
        obj = event_to_obj(make_event(random.Random(1), second=0))
        path = tmp_path / "log.jsonl"
        lines = [json.dumps(obj), json.dumps({**obj, "kind": "ApiCall", "action": 5})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(EventError, match=r":2: event field 'action' must be a string"):
            read_archive(path)


class TestAtomicWrite:
    def test_failed_write_leaves_old_archive(self, tmp_path, monkeypatch):
        rng = random.Random(20)
        path = tmp_path / "archive.jsonl"
        write_archive(random_archive(rng, 10), path)
        before = path.read_bytes()
        calls = []

        def failing(event):
            calls.append(event)
            if len(calls) == 3:
                raise OSError("disk full")
            return event_to_line(event)

        monkeypatch.setattr(audit, "event_to_line", failing)
        with pytest.raises(OSError, match="disk full"):
            write_archive(random_archive(rng, 10), path)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl"]

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        old = os.umask(0o027)
        try:
            write_archive(random_archive(random.Random(21), 3), path)
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_directory_target_is_refused(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_archive(LogArchive(), tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestQuery:
    def test_kind_filter_selects_logins(self):
        rng = random.Random(11)
        archive = random_archive(rng, 60)
        logins = query(archive, QueryFilter(kind=EventKind.LOGIN))
        assert logins == [e for e in archive.events if e.kind is EventKind.LOGIN]
        assert logins  # generator produced some

    def test_empty_filter_returns_all(self):
        rng = random.Random(12)
        archive = random_archive(rng, 30)
        assert query(archive, QueryFilter()) == list(archive.events)

    def test_delete_pattern_with_verdict(self):
        rng = random.Random(13)
        archive = random_archive(rng, 120)
        got = query(archive, QueryFilter(action_pattern="*:Delete*", verdict=Verdict.ALLOW))
        # linear-scan reference with no pattern machinery
        expected = [
            e for e in archive.events
            if e.verdict is Verdict.ALLOW and ":" in e.action
            and e.action.split(":")[1].startswith("Delete")
        ]
        assert got == expected
        assert got

    def test_time_range_inclusive(self):
        events = [
            AuditEvent(time=utc(2024, 1, 1, h), kind=EventKind.LOGIN, user="ana",
                       account=ACCOUNTS[0], verdict=Verdict.ALLOW)
            for h in range(6)
        ]
        archive = archive_from_events(events)
        got = query(archive, QueryFilter(since=utc(2024, 1, 1, 2), until=utc(2024, 1, 1, 4)))
        assert [e.time.hour for e in got] == [2, 3, 4]

    def test_verdict_partition_conserves_size(self):
        rng = random.Random(14)
        archive = random_archive(rng, 80)
        allows = query(archive, QueryFilter(verdict=Verdict.ALLOW))
        denies = query(archive, QueryFilter(verdict=Verdict.DENY))
        assert len(allows) + len(denies) == len(archive)

    def test_kind_partition_conserves_size(self):
        rng = random.Random(15)
        archive = random_archive(rng, 80)
        total = sum(len(query(archive, QueryFilter(kind=k))) for k in EventKind)
        assert total == len(archive)

    @given(
        pattern=st.one_of(
            st.sampled_from(["*", "*:*"]),
            st.builds("{}:*".format, st.sampled_from(QUERY_SERVICES)),
            st.builds("{}:{}".format, st.sampled_from(QUERY_SERVICES + ["*"]),
                      st.sampled_from(QUERY_OPERATIONS)),
            st.builds("{}:{}*".format, st.sampled_from(QUERY_SERVICES + ["*"]),
                      st.sampled_from(QUERY_OPERATIONS)),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_action_filter_matches_regex_reference(self, pattern, seed):
        rng = random.Random(seed)
        events = []
        for second in range(40):
            if rng.random() < 0.25:
                events.append(AuditEvent(time=utc(2024, 3, 1, 0, 0, second),
                                         kind=EventKind.LOGIN, user="ana",
                                         account=ACCOUNTS[0], verdict=Verdict.ALLOW))
                continue
            action = f"{rng.choice(QUERY_SERVICES)}:{rng.choice(QUERY_OPERATIONS)}"
            events.append(AuditEvent(time=utc(2024, 3, 1, 0, 0, second),
                                     kind=EventKind.API_CALL, user="ana",
                                     account=ACCOUNTS[0], action=action,
                                     resource=RESOURCES[0], verdict=Verdict.ALLOW))
        archive = archive_from_events(events)
        # reference: "*" is every action; otherwise a "*" service is any
        # service and a trailing "*" is any operation suffix
        if pattern == "*":
            regex = re.compile(r".+")
        else:
            service, operation = pattern.split(":")
            service_re = r"[^:]+" if service == "*" else re.escape(service)
            operation_re = re.escape(operation.rstrip("*")) + (".*" if operation.endswith("*") else "")
            regex = re.compile(f"{service_re}:{operation_re}")
        expected = [e for e in archive.events
                    if e.kind is EventKind.API_CALL and regex.fullmatch(e.action)]
        assert query(archive, QueryFilter(action_pattern=pattern)) == expected

    def test_bad_pattern_rejected(self):
        with pytest.raises(EventError):
            QueryFilter(action_pattern="s3:G*t")

    def test_bad_range_rejected(self):
        with pytest.raises(EventError):
            QueryFilter(since=utc(2024, 2, 1), until=utc(2024, 1, 1))


class TestDeniedSummary:
    def test_no_denies(self):
        events = [AuditEvent(time=utc(2024, 1, 1), kind=EventKind.LOGIN, user="ana",
                             account=ACCOUNTS[0], verdict=Verdict.ALLOW)]
        assert denied_access_summary(archive_from_events(events), timedelta(hours=1)) == []

    def test_five_denies_one_bucket(self):
        events = [
            AuditEvent(time=utc(2024, 1, 1, 10, m), kind=EventKind.API_CALL, user="bo",
                       account=ACCOUNTS[1], action="s3:GetObject",
                       resource="arn:aws:s3:::a", verdict=Verdict.DENY)
            for m in (1, 7, 22, 40, 59)
        ]
        cells = denied_access_summary(archive_from_events(events), timedelta(hours=1))
        assert len(cells) == 1
        cell = cells[0]
        assert cell.count == 5 and cell.user == "bo"
        assert cell.bucket_start == utc(2024, 1, 1, 10)

    def test_totals_equal_deny_query(self):
        rng = random.Random(16)
        for _ in range(10):
            archive = random_archive(rng, 70)
            cells = denied_access_summary(archive, timedelta(minutes=30))
            assert sum(c.count for c in cells) == \
                len(query(archive, QueryFilter(verdict=Verdict.DENY)))

    def test_bucket_must_be_positive(self):
        with pytest.raises(EventError):
            denied_access_summary(LogArchive(), timedelta(0))
