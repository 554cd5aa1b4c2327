"""Audit events, archive ordering, merging, queries and summaries."""

import contextlib
import copy
import json
import os
import pickle
import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iamsim import (
    AuditEvent,
    EventError,
    EventKind,
    EventStream,
    LogArchive,
    LogLineError,
    QueryFilter,
    Verdict,
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
from iamsim.textin import open_text, utf8_problem

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

    def test_archive_order_whatever_the_input_order(self):
        ordered = [
            AuditEvent(time=utc(2024, 1, 1, 0, 0, second), kind=EventKind.LOGIN, user=user,
                       account=ACCOUNTS[0], verdict=Verdict.ALLOW)
            for second in range(5) for user in USERS
        ]
        for events in (ordered, ordered[::-1], ordered[1:] + ordered[:1]):
            expected = sorted(events, key=lambda e: (e.time, e.source))
            assert list(archive_from_events(events).events) == expected

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


def reference_stream(path):
    """What :class:`EventStream` reads, with every line decoded by
    ``event_from_obj(json.loads(line))``."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            problem = utf8_problem(line, path, lineno)
            if problem:
                raise LogLineError(problem)
            try:
                event = event_from_obj(json.loads(line))
            except (ValueError, RecursionError) as exc:
                raise LogLineError(f"{path}:{lineno}: {exc}") from exc
            yield event


def stream_outcome(events):
    """The repr of each event read, and the text of the error that ended the
    read, if any."""
    read = []
    try:
        for event in events:
            assert type(event) is AuditEvent
            read.append(repr(event))
    except LogLineError as exc:
        return read, str(exc)
    return read, None


def _compact(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _with_fields(**fields):
    """A mutation that re-encodes a line in the canonical layout with
    ``fields`` changed."""
    return lambda line: _compact({**json.loads(line), **fields})


def _inserting(key: str, text: str):
    """A mutation that puts raw ``text`` at the start of ``key``'s value."""
    return lambda line: line.replace(f'"{key}":"', f'"{key}":"{text}', 1)


# field changes, with values as a log line carries them; each makes the event
# bad, except an empty source, which defaults to the account
FIELD_CHANGES = [
    dict(kind="Logout"),
    dict(kind="login"),
    dict(verdict="Maybe"),
    dict(time="2024-02-30T00:00:00Z"),
    dict(time="0000-01-01T00:00:00Z"),
    dict(time="2024-1-01T00:00:00Z"),
    dict(time="2024-01-01T00:00:00+00:00"),
    dict(kind="ApiCall", action="", resource="arn:aws:s3:::a"),
    dict(kind="ApiCall", action="s3:GetObject", resource=""),
    dict(kind="ApiCall", action="s3GetObject", resource="arn:aws:s3:::a"),
    dict(kind="Login", action="s3:GetObject", resource=""),
    dict(kind="Login", action="", resource="arn:aws:s3:::a"),
    dict(kind="ApiCall", action="s3:GetObject", resource="arn:aws:s3:::*"),
    dict(source=""),  # defaults to the account
    dict(user=""),
    dict(account=""),
    dict(user=5),
    dict(extra="x"),
]

# each turns one canonical line into a line that must be read as the JSON
# decoder reads it: a valid line in another layout, or an invalid one
LINE_MUTATIONS = [
    lambda line: _compact(dict(reversed(json.loads(line).items()))),  # keys swapped
    lambda line: json.dumps(json.loads(line)) + "\n",  # spaces after ":" and ","
    _inserting("user", "\\u0041"),
    _inserting("account", "\\/"),
    _inserting("user", "\u00e9"),  # non-ASCII
    _inserting("user", "\u2028"),
    _inserting("user", "\udcff"),  # the byte 0xff, which is not UTF-8
    _inserting("user", "\t"),  # a raw control character
    _inserting("user", "\x7f"),  # DEL, which JSON takes raw
    _inserting("source", '\\"'),
    lambda line: line[:-2] + ',"user":"zed"}\n',  # a duplicated key
    lambda line: line[:-1] + "\r\n",
    lambda line: line[:-1],  # no final newline
    lambda line: " " + line,
    lambda line: line[:-1] + " \n",
    lambda line: line + "\n",
    *(_with_fields(**changes) for changes in FIELD_CHANGES),
]


def _event_fields(changes: dict) -> dict:
    """The fields of an API call event, in declaration order, with
    ``changes`` applied; each value is decoded as a log line's would be when
    it decodes."""
    fields = dict(time=utc(2024, 1, 1), kind=EventKind.API_CALL, user="ana",
                  account=ACCOUNTS[0], verdict=Verdict.ALLOW, action="s3:GetObject",
                  resource="arn:aws:s3:::a", source=ACCOUNTS[1])
    decoders = {"time": parse_timestamp, "kind": EventKind, "verdict": Verdict}
    for name, value in changes.items():
        if name in decoders:
            with contextlib.suppress(ValueError):  # EventError included
                value = decoders[name](value)
        fields[name] = value
    return fields


def _unchecked(fields: dict) -> AuditEvent:
    return tuple.__new__(AuditEvent, fields.values())


# every way to build an event from its fields
EVENT_BUILDERS = {
    "positional": lambda fields: AuditEvent(*fields.values()),
    "keyword": lambda fields: AuditEvent(**fields),
    "_make": lambda fields: AuditEvent._make(fields.values()),
    "_replace": lambda fields: make_event(random.Random(5))._replace(**fields),
    **{f"pickle-{protocol}":
       lambda fields, protocol=protocol: pickle.loads(pickle.dumps(_unchecked(fields), protocol))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": lambda fields: copy.copy(_unchecked(fields)),
    "deepcopy": lambda fields: copy.deepcopy(_unchecked(fields)),
}


def build_outcome(build, fields):
    """The event built, or the text of the error that refused it."""
    try:
        event = build(fields)
    except EventError as exc:
        return str(exc)
    assert type(event) is AuditEvent
    return event


class TestEventBuilders:
    @pytest.mark.parametrize("changes", [
        {}, *(c for c in FIELD_CHANGES if c.keys() <= set(AuditEvent._fields)),
    ], ids=str)
    @pytest.mark.parametrize("how", list(EVENT_BUILDERS))
    def test_every_way_to_build_an_event_checks_it(self, how, changes):
        fields = _event_fields(changes)
        built = build_outcome(EVENT_BUILDERS[how], fields)
        assert built == build_outcome(EVENT_BUILDERS["keyword"], fields)
        if changes in ({}, {"source": ""}):
            assert built == tuple({**fields, "source": fields["source"] or ACCOUNTS[0]}.values())

    def test_an_event_is_a_tuple_of_its_fields(self):
        event = make_event(random.Random(7))
        assert len(event) == 8
        assert event == tuple(getattr(event, name) for name in AuditEvent._fields)
        time, *_, source = event
        assert (time, source) == (event.time, event.source)
        earlier = event._replace(time=time - timedelta(seconds=1), user="zz")
        assert sorted([event, earlier]) == [earlier, event]


class TestCodec:
    @given(st.lists(codec_events(), max_size=12))
    def test_line_encoder_matches_json_dumps(self, events):
        for event in events:
            assert event_to_line(event) == \
                json.dumps(event_to_obj(event), separators=(",", ":")) + "\n"

    # writes files, so a busy machine can stretch an example past the deadline
    @settings(deadline=None)
    @given(st.lists(codec_events(), max_size=12))
    def test_write_read_write_is_identity(self, tmp_path_factory, events):
        archive = archive_from_events(events)
        path = tmp_path_factory.mktemp("codec") / "archive.jsonl"
        write_archive(archive, path)
        first = path.read_bytes()
        assert read_archive(path) == archive
        write_archive(read_archive(path), path)
        assert path.read_bytes() == first

    # writes files, so a busy machine can stretch an example past the deadline
    @settings(deadline=None)
    @given(st.one_of(
        # an event line with junk around it
        st.builds("{}{}{}".format,
                  st.sampled_from(["", " ", "\ufeff", "x", "\n"]),
                  st.just(json.dumps(event_to_obj(make_event(random.Random(1))))),
                  st.sampled_from(["", "\n", " \n", "\r\n", "\x0c\n", "]\n", "\n\n", "1"])),
        # any text built of JSON's own characters
        st.text(alphabet=st.sampled_from(list('{}[]",:0123456789.-eEtrufalsnNIy \n\t\\x\ufeff')),
                max_size=12),
    ))
    def test_line_decoder_matches_json_loads(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("lines") / "log.jsonl"
        path.write_text(line, encoding="utf-8")
        assert stream_outcome(EventStream(path)) == stream_outcome(reference_stream(path))

    # writes files, so a busy machine can stretch an example past the deadline
    @settings(deadline=None)
    @given(st.lists(codec_events(), min_size=1, max_size=4), st.data())
    def test_stream_matches_json_loads_on_every_line(self, tmp_path_factory, events, data):
        lines = [event_to_line(event) for event in events]
        at = data.draw(st.integers(0, len(lines) - 1))
        mutate = data.draw(st.sampled_from(LINE_MUTATIONS))
        lines[at] = mutate(lines[at])
        path = tmp_path_factory.mktemp("mutated") / "log.jsonl"
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        assert stream_outcome(EventStream(path)) == stream_outcome(reference_stream(path))

    @given(codec_events(), st.sampled_from([None, *LINE_MUTATIONS]))
    def test_fast_path_lines_are_event_to_line(self, event, mutate):
        """A merge writes each line the fast path takes as it was read, so
        such a line must be exactly what event_to_line writes."""
        line = event_to_line(event) if mutate is None else mutate(event_to_line(event))
        fast = audit._canonical_row(line)
        if fast is not None:
            assert fast.line == line == event_to_line(fast)
            assert audit._row_event(fast) == event_from_obj(json.loads(line))

    # writes files, so a busy machine can stretch an example past the deadline
    @settings(deadline=None)
    @given(st.lists(codec_events(), min_size=1, max_size=4), st.data())
    def test_del_and_empty_source_lines_take_the_json_decoder(self, tmp_path_factory,
                                                              events, data):
        lines = [event_to_line(event) for event in events]
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = data.draw(st.sampled_from([
            _inserting("user", "\x7f"), _inserting("resource", "\x7f"), _with_fields(source=""),
        ]))(lines[at])
        if data.draw(st.booleans()):  # and possibly a fault that ends the read
            lines[at] = data.draw(st.sampled_from([
                _with_fields(kind="Logout"), _with_fields(verdict="Maybe"), _with_fields(user=5),
                _with_fields(time="2024-02-30T00:00:00Z"), _with_fields(extra="x"),
            ]))(lines[at])
        if "\x7f" in lines[at] or '"source":""' in lines[at]:
            assert audit._canonical_row(lines[at]) is None
        path = tmp_path_factory.mktemp("reencoded") / "log.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        assert stream_outcome(EventStream(path)) == stream_outcome(reference_stream(path))
        try:
            rows = list(audit._RowStream(path))
        except LogLineError:
            return
        for line, row in zip(lines, rows):
            assert row.line == (line if audit._canonical_row(line) else None)
            assert row.line is None or row.line == event_to_line(row)
        assert rows[at].line is None

    def test_canonical_lines_skip_the_json_decoder(self, tmp_path, monkeypatch):
        archive = random_archive(random.Random(19), 30)
        path = tmp_path / "log.jsonl"
        write_archive(archive, path)

        def unused(obj):
            raise AssertionError("a canonical line reached the JSON decoder's checks")

        monkeypatch.setattr(audit, "_row_from_obj", unused)
        events = tuple(EventStream(path))
        assert events == archive.events
        assert [repr(e) for e in events] == [repr(e) for e in archive.events]
        assert all(type(e) is AuditEvent for e in events)

    def test_stream_reads_its_file_once(self, tmp_path):
        archive = random_archive(random.Random(17), 12)
        path = tmp_path / "log.jsonl"
        write_archive(archive, path)
        stream = EventStream(path)
        assert len(stream) == 0
        assert tuple(stream) == archive.events
        assert len(stream) == 12
        assert list(stream) == []

    def test_stream_opens_its_file_on_the_first_event(self, tmp_path):
        stream = EventStream(tmp_path / "missing.jsonl")  # nothing is opened yet
        with pytest.raises(FileNotFoundError):
            next(iter(stream))

    def test_stream_names_the_bad_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        line = json.dumps(event_to_obj(make_event(random.Random(18))))
        path.write_text(f"{line}\n\n{{broken\n{line}\n", encoding="utf-8")
        stream = EventStream(path)
        with pytest.raises(LogLineError, match=f"^{re.escape(str(path))}:3: Expecting"):
            list(stream)
        assert len(stream) == 1

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

    @given(seed=st.integers(0, 2**16),
           flt=st.sampled_from([
               QueryFilter(), QueryFilter(user="bo"), QueryFilter(verdict=Verdict.DENY),
               QueryFilter(action_pattern="*:Delete*"),
               QueryFilter(since=utc(2024, 3, 1, 6), until=utc(2024, 3, 1, 18)),
           ]))
    def test_any_input_order_gives_the_archive_order(self, seed, flt):
        rng = random.Random(seed)
        # few distinct seconds, so that many events tie on (time, source)
        events = [make_event(rng, second=rng.randrange(2)) for _ in range(40)]
        archive = archive_from_events(events)
        # a stable sort of a filtered list is the filter of the stable sort
        assert query(iter(events), flt) == query(archive, flt)
        assert denied_access_summary(iter(events), timedelta(hours=1)) == \
            denied_access_summary(archive, timedelta(hours=1))

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

    def test_earliest_event_before_year_one_is_named(self):
        events = [
            AuditEvent(time=utc(year, 1, 1), kind=EventKind.LOGIN, user="ana",
                       account=ACCOUNTS[0], verdict=Verdict.DENY)
            for year in (2024, 1960, 1950, 1980)
        ]
        with pytest.raises(EventError, match="event at 1950-01-01T00:00:00Z would start before"):
            denied_access_summary(iter(events), timedelta(days=800000))

    def test_bucket_must_be_positive(self):
        with pytest.raises(EventError):
            denied_access_summary(LogArchive(), timedelta(0))
