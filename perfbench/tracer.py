"""Span tracer that wraps iamsim's public functions from outside the package.

The iamsim modules import each other's functions by name, so a call made
inside ``engine`` looks ``resolve_permission_set_ids`` up in the engine's
own namespace. :data:`SITES` therefore lists every lookup site to patch,
not just the defining module. ``oracle`` is never patched: it is the
correctness reference and is not timed.

Spans (id, name, start, end, parent id, request id) and counts stay in
memory; :meth:`Tracer.write_spans` writes them when the run ends. Self time
(a span's duration minus the time its child spans cover) is accumulated as
spans close, so the per-layer totals do not depend on how many spans are
kept.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) lookup sites -> span name "<layer>.<function>"
SITES = {
    ("iamsim.org", "load_scenario"): "org.load_scenario",
    ("iamsim.org", "build_org"): "org.build_org",
    ("iamsim.org", "validate_org"): "org.validate_org",
    ("iamsim.org", "parse_policy"): "policy.parse_policy",
    ("iamsim.engine", "authorize"): "engine.authorize",
    ("iamsim.engine", "validate_request"): "engine.validate_request",
    ("iamsim.engine", "resolve_permission_set_ids"): "org.resolve_permission_set_ids",
    ("iamsim.engine", "shares_covering"): "org.shares_covering",
    ("iamsim.engine", "action_matches"): "policy.action_matches",
    ("iamsim.engine", "resource_matches"): "policy.resource_matches",
    ("iamsim.engine", "condition_holds"): "policy.condition_holds",
    ("iamsim.engine", "trace_to_obj"): "engine.trace_to_obj",
    ("iamsim.usage", "authorize"): "engine.authorize",
    ("iamsim.usage", "replay_verify"): "usage.replay_verify",
    ("iamsim.usage", "complement_sample"): "usage.complement_sample",
    ("iamsim.usage", "install_sole_permission_set"): "usage.install_sole_permission_set",
    ("iamsim.usage", "generalize_action"): "policy.generalize_action",
    ("iamsim.cli", "main"): "cli.main",
    ("iamsim.cli", "load_scenario"): "org.load_scenario",
    ("iamsim.cli", "_read_requests"): "cli.read_requests",
    ("iamsim.cli", "_dumps"): "cli.dumps",
    ("iamsim.cli", "cmd_simulate"): "cli.cmd_simulate",
    ("iamsim.cli", "cmd_analyze_unused"): "cli.cmd_analyze_unused",
    ("iamsim.cli", "cmd_analyze_generate"): "cli.cmd_analyze_generate",
    ("iamsim.cli", "cmd_audit_merge"): "cli.cmd_audit_merge",
    ("iamsim.cli", "cmd_audit_query"): "cli.cmd_audit_query",
    ("iamsim.cli", "cmd_audit_denied"): "cli.cmd_audit_denied",
    ("iamsim.cli", "simulate"): "engine.simulate",
    ("iamsim.cli", "decision_to_obj"): "engine.decision_to_obj",
    ("iamsim.cli", "archive_from_events"): "audit.archive_from_events",
    ("iamsim.cli", "write_archive"): "audit.write_archive",
    ("iamsim.cli", "read_archive"): "audit.read_archive",
    ("iamsim.cli", "merge_archives"): "audit.merge_archives",
    ("iamsim.cli", "query"): "audit.query",
    ("iamsim.cli", "denied_access_summary"): "audit.denied_access_summary",
    ("iamsim.cli", "build_usage_index"): "usage.build_usage_index",
    ("iamsim.cli", "unused_report"): "usage.unused_report",
    ("iamsim.cli", "generate_least_privilege"): "usage.generate_least_privilege",
}

# spans kept in memory per process; later ones are counted as dropped
MAX_SPANS = 300_000


def _count_decision(tracer: "Tracer", args, result) -> None:
    tracer.counts["decisions"] += 1
    tracer.counts["statements"] += len(result.trace)
    tracer.counts["matched"] += sum(1 for t in result.trace if t.matched)


def _count_sample(tracer: "Tracer", args, result) -> None:
    index, observed = args[0], args[1]
    resources = {r.arn for r in index.org.resources}
    in_universe = sum(1 for _, resource in observed if resource in resources)
    tracer.counts["universe"] += len(index.actions_seen()) * len(resources) - in_universe
    tracer.counts["sampled"] += len(result)
    tracer.counts["samples"] += 1


def _count_read(tracer: "Tracer", args, result) -> None:
    tracer.counts["events_read"] += len(result)


def _count_write(tracer: "Tracer", args, result) -> None:
    tracer.counts["events_written"] += len(args[0])


def _count_query(tracer: "Tracer", args, result) -> None:
    tracer.counts["events_scanned"] += len(args[0])
    tracer.counts["events_returned"] += len(result)


HOOKS = {
    "engine.authorize": _count_decision,
    "usage.complement_sample": _count_sample,
    "audit.read_archive": _count_read,
    "audit.write_archive": _count_write,
    "audit.query": _count_query,
}


class Tracer:
    """Collects spans and self times while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self._stack: list[list] = []  # [span id, name, start, child time, request id]
        self._next_id = 0
        self._saved: list[tuple] = []

    def enter(self, name: str) -> list:
        self._next_id += 1
        span_id = self._next_id
        if name == "engine.authorize" or not self._stack:
            request = span_id
        else:
            request = self._stack[-1][4]
        frame = [span_id, name, perf_counter(), 0.0, request]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child, request = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            self.edges[(parent[1], name)] += 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else 0, request))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around one of the benchmark's own top-level operations."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if hook is not None:
                started = perf_counter()
                hook(tracer, args, result)
                spent = perf_counter() - started
                tracer.hook_s += spent
                if tracer._stack:  # keep counting out of the caller's self time
                    tracer._stack[-1][3] += spent
            return result

        return traced

    def install(self) -> None:
        for (module_name, attr), name in SITES.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Aggregates for the phase result; spans are written separately."""
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "edges": {f"{parent}>{child}": n for (parent, child), n in self.edges.items()},
            "counts": dict(self.counts),
            "hook_s": self.hook_s,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path, phase: str) -> None:
        """Append this process's spans after a header line naming the phase."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"phase": phase,
                                 "fields": ["id", "name", "start", "end", "parent", "request"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
