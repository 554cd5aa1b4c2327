"""Audit events, per-account logs and the centralized archive.

Events record logins and API calls: who acted, in which account, on what,
when, and whether the call was allowed. Each account produces its own
time-ordered log; archives from many accounts merge into one, keeping a
stable order of (time, source account, position in file) so analysis runs
are reproducible byte for byte.

On disk a log is UTF-8 JSON Lines, one event per line with exactly the
fields time, kind, user, account, action, resource, verdict, source, every
one a JSON string. Timestamps are strict: exactly ``YYYY-MM-DDTHH:MM:SSZ``
in UTC with ASCII digits (``2024-01-01T00:00:00Z``); single-digit fields,
offsets, fractions and other digit scripts are rejected, never coerced.
:class:`EventStream` decodes a log one line at a time, so :func:`query` and
:func:`denied_access_summary` read a log in one pass without holding it;
:func:`read_archive` gathers a stream into an archive, and
:func:`write_archive` encodes every event through :func:`event_to_line`,
replacing a regular target file atomically (see :mod:`iamsim.atomic`).
``audit merge`` streams too: :func:`_merge_streamed` merges one stream per
input with ``heapq.merge`` into the staged archive, holding one pending
row per input and checking the (time, source) order once, on the merged
rows. It leaves the inputs to :func:`read_archive`, :func:`merge_archives`
and :func:`write_archive` whenever it cannot give their result in one pass.

A line in the exact form :func:`event_to_line` writes, every value printable
ASCII with no quote, backslash or DEL and so free of escapes, and a source
that is not empty, is read by one regex match and the same checks
:func:`event_from_obj` makes; such a line is exactly :func:`event_to_line` of
its event. Every other line, and any such line that fails a check, is decoded
by ``json.loads`` and checked as :func:`event_from_obj` checks it, so every
error message is the JSON decoder's or :func:`event_from_obj`'s.

Each line read becomes a checked row: the event's fields, named and ordered
as :class:`AuditEvent`'s, and the line as read when the regex took it. An
event is a checked tuple of its fields, so :class:`EventStream` makes the
event of a row from the row's first eight items without checking them
again; ``audit query``, ``audit denied-summary`` and a streamed merge work
on the rows, build no event, and write a kept line that the regex took as
it was read.
"""

from __future__ import annotations

import heapq
import json
import operator
import os
import re
import stat
from collections import namedtuple
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import pairwise
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .atomic import replacing
from .policy import (
    ActionPattern, PolicyParseError, Verdict, check_operation_pattern, glob_match, split_action,
)
from .textin import open_text, utf8_problem

_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")

_EVENT_KEYS = frozenset(
    {"time", "kind", "user", "account", "action", "resource", "verdict", "source"}
)
_STRING_FIELDS = ("user", "account", "action", "resource", "source")


class EventError(ValueError):
    """An audit event or log line is malformed."""


class LogLineError(EventError):
    """A line of a log file is malformed; the message starts ``path:line:``."""


class EventKind(str, Enum):
    LOGIN = "Login"
    API_CALL = "ApiCall"


_KINDS = {k.value: k for k in EventKind}
_VERDICTS = {v.value: v for v in Verdict}


def parse_timestamp(text: str) -> datetime:
    """Parse exactly ``YYYY-MM-DDTHH:MM:SSZ`` with ASCII digits, rejecting
    every other form and every impossible date or time."""
    if isinstance(text, str) and _TIMESTAMP_RE.fullmatch(text):
        # the shape is fixed, so fromisoformat only checks the field ranges
        try:
            return datetime.fromisoformat(text[:19] + "+00:00")
        except ValueError:
            pass
    raise EventError(f"bad timestamp {text!r}: expected YYYY-MM-DDTHH:MM:SSZ")


def format_timestamp(when: datetime) -> str:
    """The canonical form of ``when`` in UTC; the year is padded to 4 digits."""
    t = when.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        t.year, t.month, t.day, t.hour, t.minute, t.second,
    )


_new_tuple = tuple.__new__


class _EventFields(NamedTuple):
    time: datetime
    kind: EventKind
    user: str
    account: str
    verdict: Verdict
    action: str = ""
    resource: str = ""
    source: str = ""


class AuditEvent(_EventFields):
    """One recorded activity. API calls carry a concrete action and resource;
    logins carry neither. ``source`` is the account whose log produced the
    event (equal to ``account`` for self-produced events). Every text field
    must be a ``str``.

    An event is a tuple of its fields, checked however it is built: by a
    call, :meth:`_make`, :meth:`_replace`, ``pickle`` or ``copy``."""

    __slots__ = ()

    def __new__(cls, time, kind, user, account, verdict, action="", resource="", source=""):
        if not isinstance(time, datetime) or time.tzinfo is None:
            raise EventError("event time must be a timezone-aware UTC datetime")
        if not isinstance(kind, EventKind):
            raise EventError(f"bad event kind {kind!r}")
        if not isinstance(verdict, Verdict):
            raise EventError(f"bad verdict {verdict!r}")
        source = _checked_source(kind, user, account, action, resource, source)
        return _new_tuple(cls, (time, kind, user, account, verdict, action, resource, source))

    @classmethod
    def _make(cls, iterable) -> AuditEvent:
        return cls(*iterable)

    def __reduce__(self):
        # every pickle protocol and copy rebuild the event by a call; protocols
        # 0 and 1 would otherwise rebuild the tuple unchecked
        return AuditEvent, tuple(self)


def _not_a_string(name: str, value: object) -> str:
    return f"event field {name!r} must be a string, not {type(value).__name__}"


def _checked_source(kind: EventKind, user, account, action, resource, source) -> str:
    """Check that an event's text fields are strings, then apply
    :func:`_kind_rules`; returns its source."""
    if not (isinstance(user, str) and isinstance(account, str) and isinstance(action, str)
            and isinstance(resource, str) and isinstance(source, str)):
        for name, value in zip(_STRING_FIELDS, (user, account, action, resource, source)):
            if not isinstance(value, str):
                raise EventError(_not_a_string(name, value))
    return _kind_rules(kind, user, account, action, resource, source)


def _kind_rules(kind: EventKind, user: str, account: str, action: str, resource: str,
                source: str) -> str:
    """Check an event's text fields against its kind; returns its source,
    which defaults to the account. The one place these rules are stated."""
    if kind is EventKind.API_CALL:
        if not action or not resource:
            raise EventError("ApiCall events need a non-empty action and resource")
        try:
            split_action(action)
        except ValueError as exc:
            raise EventError(str(exc)) from exc
        if "*" in resource:
            raise EventError(f"event resource must be concrete: {resource!r}")
    elif action or resource:
        raise EventError("Login events must not carry an action or resource")
    if not user or not account:
        raise EventError("events need a user and an account")
    return source or account


def event_to_obj(event: AuditEvent) -> dict:
    return {
        "time": format_timestamp(event.time),
        "kind": event.kind.value,
        "user": event.user,
        "account": event.account,
        "action": event.action,
        "resource": event.resource,
        "verdict": event.verdict.value,
        "source": event.source,
    }


_KIND_JSON = {k: _json_str(k.value) for k in EventKind}
_VERDICT_JSON = {v: _json_str(v.value) for v in Verdict}


def event_to_line(event: AuditEvent) -> str:
    """One JSON Lines record, byte-identical to
    ``json.dumps(event_to_obj(event), separators=(",", ":")) + "\\n"``;
    ``event`` may also be a checked row."""
    return (
        f'{{"time":"{format_timestamp(event.time)}","kind":{_KIND_JSON[event.kind]}'
        f',"user":{_json_str(event.user)},"account":{_json_str(event.account)}'
        f',"action":{_json_str(event.action)},"resource":{_json_str(event.resource)}'
        f',"verdict":{_VERDICT_JSON[event.verdict]},"source":{_json_str(event.source)}}}\n'
    )


# the checked fields of one log line, named as AuditEvent's, and the line as
# read when it is exactly event_to_line of them, else None
_Row = namedtuple("_Row", (*_EventFields._fields, "line"))


def event_from_obj(obj: object) -> AuditEvent:
    """The event a decoded log line describes; every field is checked once."""
    return _row_event(_row_from_obj(obj))


def _row_from_obj(obj: object) -> _Row:
    """The checked row of a decoded log line, with no line as read."""
    if not isinstance(obj, dict):
        raise EventError("event must be a JSON object")
    if obj.keys() != _EVENT_KEYS:
        unknown = sorted(obj.keys() - _EVENT_KEYS)
        if unknown:
            raise EventError(f"unknown event field(s) {', '.join(unknown)}")
        missing = sorted(_EVENT_KEYS - obj.keys())
        raise EventError(f"missing event field(s) {', '.join(missing)}")
    time, kind, verdict = obj["time"], obj["kind"], obj["verdict"]
    if not (isinstance(time, str) and isinstance(kind, str) and isinstance(verdict, str)):
        name = next(n for n in ("time", "kind", "verdict") if not isinstance(obj[n], str))
        raise EventError(_not_a_string(name, obj[name]))
    event_kind = _KINDS.get(kind)
    if event_kind is None:
        raise EventError(f"bad event kind {kind!r}")
    event_verdict = _VERDICTS.get(verdict)
    if event_verdict is None:
        raise EventError(f"bad verdict {verdict!r}")
    when = parse_timestamp(time)
    user, account, action, resource = obj["user"], obj["account"], obj["action"], obj["resource"]
    source = _checked_source(event_kind, user, account, action, resource, obj["source"])
    return _new_tuple(_Row, (when, event_kind, user, account, event_verdict, action, resource,
                             source, None))


def _row_event(row: _Row) -> AuditEvent:
    """The event of a checked row."""
    return _new_tuple(AuditEvent, row[:8])


# (time, source) of an event or a checked row
_order_key = operator.attrgetter("time", "source")


@dataclass(frozen=True)
class LogArchive:
    """A time-ordered event sequence. :func:`archive_from_events` and
    :func:`merge_archives` keep (time, source, arrival) order, so late events
    slot in deterministically."""

    events: tuple[AuditEvent, ...] = ()

    @property
    def accounts_covered(self) -> frozenset[str]:
        return frozenset(e.source for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self.events)


def archive_from_events(events: Iterable[AuditEvent]) -> LogArchive:
    """Build an archive from events in arrival order (stable re-sort). Events
    already in order, as a written archive is, are kept without sorting."""
    events = tuple(events)
    if any(later < earlier for earlier, later in pairwise(map(_order_key, events))):
        events = tuple(sorted(events, key=_order_key))
    return LogArchive(events)


def merge_archives(archives: Sequence[LogArchive]) -> LogArchive:
    """Union of the inputs in one time-ordered archive.

    The sort is stable, so events that tie on (time, source) keep their
    per-input order; merging with an empty archive is the identity.
    """
    return archive_from_events(e for a in archives for e in a.events)


def write_archive(archive: LogArchive, path) -> None:
    """Write one line per event; ``path`` is replaced only once every line
    is written, so a failed write leaves any earlier file as it was."""
    with replacing(path) as target:
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(map(event_to_line, archive.events))


# a line exactly as event_to_line writes it when every value is printable
# ASCII with no quote or backslash, so that each captured value equals its
# JSON decoding and its JSON encoding. DEL (0x7f), which JSON takes raw but
# event_to_line escapes, is left out, and the source must not be empty,
# since an empty one is filled in from the account: an accepted line is
# then exactly event_to_line of its event.
_VALUE = r'"([ !#-\[\]-~]*)"'
_LINE = re.compile(
    r'\{"time":"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})Z"'
    + "".join(f',"{name}":{_VALUE}'
              for name in ("kind", "user", "account", "action", "resource", "verdict"))
    + r',"source":"([ !#-\[\]-~]+)"\}\n'
)


def _canonical_row(line: str) -> _Row | None:
    """The row of a line that matches ``_LINE``, checked as
    :func:`event_from_obj` checks it, with the line as read; ``None`` for any
    other line and for any line that fails a check."""
    m = _LINE.fullmatch(line)
    if m is None:
        return None
    time, kind, user, account, action, resource, verdict, source = m.groups()
    event_kind = _KINDS.get(kind)
    event_verdict = _VERDICTS.get(verdict)
    if event_kind is None or event_verdict is None:
        return None
    try:
        when = datetime.fromisoformat(time + "+00:00")
        source = _kind_rules(event_kind, user, account, action, resource, source)
    except ValueError:  # EventError included
        return None
    return _new_tuple(_Row, (when, event_kind, user, account, event_verdict, action, resource,
                             source, line))


class EventStream:
    """The events of one log file in file order, each line decoded and checked
    as it is reached.

    A stream passes over its file once: the file is opened when the first
    event is asked for, and a stream that has ended stays empty. A bad line
    raises :class:`LogLineError` naming it (``path:line: ...``); a missing or
    unreadable file raises ``OSError``. ``len`` is the number of events read
    so far.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._count = 0
        self._rows = self._decode()

    def __iter__(self) -> Iterator[AuditEvent]:
        return map(_row_event, self._rows)

    def __len__(self) -> int:
        return self._count

    def _decode(self) -> Iterator[_Row]:
        """The checked row of each event line."""
        path = self.path
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                row = _canonical_row(line)
                if row is None:  # any other line is decoded and checked in full
                    if line.isspace():
                        continue
                    problem = utf8_problem(line, path, lineno)
                    if problem:
                        raise LogLineError(problem)
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # also too deep, or a too-long int
                        raise LogLineError(f"{path}:{lineno}: {exc}") from exc
                    try:
                        row = _row_from_obj(obj)
                    except EventError as exc:
                        raise LogLineError(f"{path}:{lineno}: {exc}") from exc
                self._count += 1
                yield row


class _RowStream(EventStream):
    """An :class:`EventStream` that yields its checked rows and builds no event."""

    def __iter__(self) -> Iterator[_Row]:
        return self._rows


def read_archive(path) -> LogArchive:
    """The events of one log file as an archive; errors as :class:`EventStream`'s."""
    return archive_from_events(EventStream(path))


def _merge_streamed(paths: Sequence, target) -> tuple[int, frozenset[str]] | None:
    """Write the merge of the logs at ``paths`` to ``target`` as
    :func:`merge_archives` and :func:`write_archive` would, holding one
    pending row per input; returns the number of events and the accounts
    covered.

    A stable k-way merge keeps each input's own order, so the merged rows
    are in (time, source) order exactly when every input is: one check on
    the merged rows finds any input out of order. For inputs in order, the
    merge is the stable sort of their concatenation that
    :func:`merge_archives` makes: ties go to the earlier input, then to file
    order.

    Returns ``None``, leaving ``target`` as it was, when an input is not a
    regular file (it could not be read again), when ``target`` is written in
    place, and on a read or write error (running out of file descriptors
    included) or an input out of order; reading every input in full then
    gives the same output, or the same first error.
    """
    covered: set[str] = set()
    try:
        if not all(stat.S_ISREG(os.stat(path).st_mode) for path in paths):
            return None
        streams = [_RowStream(path) for path in paths]
        with replacing(target) as staged:
            if staged == Path(target):  # a link, device or FIFO is written in place
                return None
            with open(staged, "w", encoding="utf-8") as fh:
                write, cover = fh.write, covered.add
                last = ()  # sorts before every (time, source)
                for row in heapq.merge(*streams, key=_order_key):
                    key = _order_key(row)
                    if key < last:
                        raise ValueError("an input is out of (time, source) order")
                    last = key
                    write(row.line or event_to_line(row))
                    cover(row.source)
    except (ValueError, OSError):  # EventError is a ValueError
        return None
    return sum(map(len, streams)), frozenset(covered)


@dataclass(frozen=True)
class QueryFilter:
    """Conjunction of optional per-field constraints; absent fields match all.

    ``action_pattern`` is a policy action pattern, or ``*:Op`` / ``*:Op*``
    for an operation in any service, and matches API calls only; the time
    range is inclusive at both ends.
    """

    user: str | None = None
    account: str | None = None
    action_pattern: str | None = None
    kind: EventKind | None = None
    verdict: Verdict | None = None
    since: datetime | None = None
    until: datetime | None = None

    def __post_init__(self) -> None:
        if self.action_pattern is not None:
            pattern = self.action_pattern
            try:
                if pattern.startswith("*:"):
                    check_operation_pattern(pattern[2:])
                else:
                    ActionPattern.parse(pattern)
            except PolicyParseError as exc:
                raise EventError(f"bad action pattern {pattern!r}: {exc}") from exc
        if self.since is not None and self.until is not None and self.since > self.until:
            raise EventError("bad time range: since is after until")


def query(events: Iterable[AuditEvent], flt: QueryFilter) -> list[AuditEvent]:
    """Events satisfying every present filter field, in (time, source) order;
    events that tie keep their input order. Checked rows filter as events do."""
    out = []
    # the actions of a log repeat, so the pattern is matched once per distinct action
    action_hits: dict[str, bool] = {}
    for event in events:
        if flt.user is not None and event.user != flt.user:
            continue
        if flt.account is not None and event.account != flt.account:
            continue
        if flt.kind is not None and event.kind is not flt.kind:
            continue
        if flt.verdict is not None and event.verdict is not flt.verdict:
            continue
        if flt.since is not None and event.time < flt.since:
            continue
        if flt.until is not None and event.time > flt.until:
            continue
        # a concrete action has exactly one ":", so the glob language of a
        # pattern is the set of actions it matches
        if flt.action_pattern is not None:
            if event.kind is not EventKind.API_CALL:
                continue
            hit = action_hits.get(event.action)
            if hit is None:
                hit = action_hits[event.action] = glob_match(flt.action_pattern, event.action)
            if not hit:
                continue
        out.append(event)
    out.sort(key=_order_key)
    return out


# Unix time of 0001-01-01T00:00:00Z; no bucket may start before it
_YEAR_ONE = int(datetime.min.replace(tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True)
class DeniedBucket:
    bucket_start: datetime
    user: str
    account: str
    count: int


def denied_access_summary(events: Iterable[AuditEvent], bucket: timedelta) -> list[DeniedBucket]:
    """Count Deny events per (time bucket, user, account), in one pass over
    ``events`` in any order.

    Buckets are aligned to the Unix epoch, so identical inputs always land
    in identical cells; the counts partition the input's Deny events. A
    bucket so wide that one would start before year 1 is an error naming the
    earliest such event, raised once every event has been read.
    """
    if bucket <= timedelta(0):
        raise EventError("bucket duration must be positive")
    width = int(bucket.total_seconds())
    if width <= 0:
        raise EventError("bucket duration must be at least one second")
    cells: dict[tuple[int, str, str], int] = {}
    too_early = None  # the earliest event whose bucket would start before year 1
    for event in events:
        if event.verdict is not Verdict.DENY:
            continue
        seconds = int(event.time.timestamp())
        start = seconds - seconds % width
        if start < _YEAR_ONE:
            if too_early is None or event.time < too_early:
                too_early = event.time
            continue
        key = (start, event.user, event.account)
        cells[key] = cells.get(key, 0) + 1
    if too_early is not None:
        raise EventError(f"the bucket of the event at {format_timestamp(too_early)} "
                         f"would start before year 1")
    return [
        DeniedBucket(bucket_start=datetime.fromtimestamp(start, tz=timezone.utc),
                     user=user, account=account, count=count)
        for (start, user, account), count in sorted(cells.items())
    ]
