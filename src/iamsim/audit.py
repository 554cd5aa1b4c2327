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
:func:`read_archive` decodes every line through :func:`event_from_obj` and
:func:`write_archive` encodes every event through :func:`event_to_line`,
replacing a regular target file atomically (see :mod:`iamsim.atomic`).
"""

from __future__ import annotations

import bisect
import functools
import json
import operator
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Sequence

from .atomic import replacing
from .policy import (
    ActionPattern, PolicyParseError, Verdict, check_operation_pattern, glob_match, split_action,
)

_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")

_EVENT_KEYS = frozenset(
    {"time", "kind", "user", "account", "action", "resource", "verdict", "source"}
)
_STRING_FIELDS = ("user", "account", "action", "resource", "source")


class EventError(ValueError):
    """An audit event or log line is malformed."""


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


# events repeat a small set of actions, so each distinct one is split once
_split_concrete_action = functools.lru_cache(maxsize=4096)(split_action)


@dataclass(frozen=True)
class AuditEvent:
    """One recorded activity. API calls carry a concrete action and resource;
    logins carry neither. ``source`` is the account whose log produced the
    event (equal to ``account`` for self-produced events). Every text field
    must be a ``str``."""

    time: datetime
    kind: EventKind
    user: str
    account: str
    verdict: Verdict
    action: str = ""
    resource: str = ""
    source: str = ""

    def __post_init__(self) -> None:
        for name in _STRING_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str):
                raise EventError(_not_a_string(name, value))
        if not isinstance(self.time, datetime) or self.time.tzinfo is None:
            raise EventError("event time must be a timezone-aware UTC datetime")
        if not isinstance(self.kind, EventKind):
            raise EventError(f"bad event kind {self.kind!r}")
        if not isinstance(self.verdict, Verdict):
            raise EventError(f"bad verdict {self.verdict!r}")
        if self.kind is EventKind.API_CALL:
            if not self.action or not self.resource:
                raise EventError("ApiCall events need a non-empty action and resource")
            try:
                _split_concrete_action(self.action)
            except ValueError as exc:
                raise EventError(str(exc)) from exc
            if "*" in self.resource:
                raise EventError(f"event resource must be concrete: {self.resource!r}")
        else:
            if self.action or self.resource:
                raise EventError("Login events must not carry an action or resource")
        if not self.user or not self.account:
            raise EventError("events need a user and an account")
        if not self.source:
            object.__setattr__(self, "source", self.account)


def _not_a_string(name: str, value: object) -> str:
    return f"event field {name!r} must be a string, not {type(value).__name__}"


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
    ``json.dumps(event_to_obj(event), separators=(",", ":")) + "\\n"``."""
    return (
        f'{{"time":"{format_timestamp(event.time)}","kind":{_KIND_JSON[event.kind]}'
        f',"user":{_json_str(event.user)},"account":{_json_str(event.account)}'
        f',"action":{_json_str(event.action)},"resource":{_json_str(event.resource)}'
        f',"verdict":{_VERDICT_JSON[event.verdict]},"source":{_json_str(event.source)}}}\n'
    )


def event_from_obj(obj: object) -> AuditEvent:
    """The event a decoded log line describes; every field is checked."""
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
    return AuditEvent(
        time=parse_timestamp(time),
        kind=event_kind,
        user=obj["user"],
        account=obj["account"],
        action=obj["action"],
        resource=obj["resource"],
        verdict=event_verdict,
        source=obj["source"],
    )


# (time, source) of an event
_order_key = operator.attrgetter("time", "source")


@dataclass(frozen=True)
class LogArchive:
    """A time-ordered event sequence. Construction and append both keep
    (time, source, arrival) order, so late events slot in deterministically."""

    events: tuple[AuditEvent, ...] = ()

    @property
    def accounts_covered(self) -> frozenset[str]:
        return frozenset(e.source for e in self.events)

    def __len__(self) -> int:
        return len(self.events)


def archive_from_events(events: Iterable[AuditEvent]) -> LogArchive:
    """Build an archive from events in arrival order (stable re-sort)."""
    return LogArchive(tuple(sorted(events, key=_order_key)))


def append_event(archive: LogArchive, event: AuditEvent) -> LogArchive:
    """Insert one event, keeping order; returns a new archive."""
    events = list(archive.events)
    bisect.insort_right(events, event, key=_order_key)
    return LogArchive(tuple(events))


def merge_archives(archives: Sequence[LogArchive]) -> LogArchive:
    """Union of the inputs in one time-ordered archive.

    The sort is stable, so events that tie on (time, source) keep their
    per-input order; merging with an empty archive is the identity.
    """
    return archive_from_events(e for a in archives for e in a.events)


def write_archive(archive: LogArchive, path) -> None:
    """Write one line per event; ``path`` is replaced only once every line
    is written, so a failed write leaves any earlier file as it was."""
    with replacing(path) as (target,):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(map(event_to_line, archive.events))


def read_archive(path) -> LogArchive:
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                events.append(event_from_obj(json.loads(line)))
            except (json.JSONDecodeError, RecursionError, EventError) as exc:
                raise EventError(f"{path}:{lineno}: {exc}") from exc
    return archive_from_events(events)


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


def query(archive: LogArchive, flt: QueryFilter) -> list[AuditEvent]:
    """Events satisfying every present filter field, in archive order."""
    out = []
    for event in archive.events:
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
        if flt.action_pattern is not None and (
            event.kind is not EventKind.API_CALL or not glob_match(flt.action_pattern, event.action)
        ):
            continue
        out.append(event)
    return out


# Unix time of 0001-01-01T00:00:00Z; no bucket may start before it
_YEAR_ONE = int(datetime.min.replace(tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True)
class DeniedBucket:
    bucket_start: datetime
    user: str
    account: str
    count: int


def denied_access_summary(archive: LogArchive, bucket: timedelta) -> list[DeniedBucket]:
    """Count Deny events per (time bucket, user, account).

    Buckets are aligned to the Unix epoch, so identical inputs always land
    in identical cells; the counts partition the archive's Deny events. A
    bucket so wide that one would start before year 1 is an error.
    """
    if bucket <= timedelta(0):
        raise EventError("bucket duration must be positive")
    width = int(bucket.total_seconds())
    if width <= 0:
        raise EventError("bucket duration must be at least one second")
    cells: dict[tuple[datetime, str, str], int] = {}
    for event in archive.events:
        if event.verdict is not Verdict.DENY:
            continue
        seconds = int(event.time.timestamp())
        start = seconds - seconds % width
        if start < _YEAR_ONE:
            raise EventError(f"the bucket of the event at {format_timestamp(event.time)} "
                             f"would start before year 1")
        key = (datetime.fromtimestamp(start, tz=timezone.utc), event.user, event.account)
        cells[key] = cells.get(key, 0) + 1
    return [
        DeniedBucket(bucket_start=k[0], user=k[1], account=k[2], count=v)
        for k, v in sorted(cells.items())
    ]
