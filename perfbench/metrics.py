"""Metric definitions, and the arithmetic that turns a run's result into them.

Names, units and directions come from ``BENCHMARK.json``; this module adds
only what each per-layer metric should move. Every workload reports every
metric, so two runs of a workload can always be compared name by name.
End-to-end metrics come from untraced runs, per-layer metrics from traced
ones (``--trace 1``).
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# per-layer metric -> the end-to-end metrics it should move
SHOULD_MOVE = {
    "policy.parse_s": "setup_s",
    "org.build_s": "setup_s",
    "org.validate_s": "setup_s",
    "org.resolve_s": "decide_*, simulate_rps, generate_s",
    "org.resolve_calls": "decide_*, simulate_rps, generate_s",
    "org.resolve_share_of_authorize": "decide_*, simulate_rps, generate_s",
    "org.shares_s": "decide_*, simulate_rps, generate_s",
    "org.first_touch_s": "generate_s, setup_s",
    "policy.match_s": "decide_*, simulate_rps, generate_s",
    "policy.statements_per_decision": "decide_*, simulate_rps",
    "policy.match_ratio": "decide_*, simulate_rps",
    "engine.authorize_self_s": "decide_*, simulate_rps",
    "engine.validate_s": "decide_*, simulate_rps",
    "cli.read_requests_s": "simulate_rps",
    "cli.render_s": "simulate_rps",
    "cli.write_s": "simulate_rps, merge_eps",
    "usage.index_s": "unused_s, generate_s",
    "usage.index_authorize_calls": "unused_s, generate_s",
    "usage.replay_s": "generate_s",
    "usage.replay_calls": "generate_s",
    "usage.universe_size": "generate_s",
    "usage.sample_size": "generate_s",
    "audit.read_eps": "merge_eps, query_s, unused_s",
    "audit.write_eps": "merge_eps",
    "audit.merge_s": "merge_eps",
    "audit.query_scan_eps": "query_s",
    "audit.query_hit_ratio": "query_s",
    "layer.policy.share": "decide_*, simulate_rps",
    "layer.org.share": "decide_*, simulate_rps, generate_s",
    "layer.engine.share": "decide_*, simulate_rps",
    "layer.audit.share": "merge_eps, query_s",
    "layer.usage.share": "unused_s, generate_s",
    "layer.cli.share": "simulate_rps, query_s",
    "trace.overhead_rps": "(traced minus untraced decide_rps)",
    "trace.overhead_share": "(share of decide_rps lost to tracing)",
}

LAYERS = ("policy", "org", "engine", "audit", "usage", "cli", "bench")

# request categories, in the order the generator draws them
CATEGORIES = ("same", "cross", "shared", "unregistered")

# whole-command metrics: each is the median of its samples (see README)
COMMANDS = ("simulate_rps", "merge_eps", "unused_s", "generate_s")


def definitions() -> tuple[dict, dict]:
    """The end-to-end and the per-layer metrics of ``BENCHMARK.json``, by name."""
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return ({m["name"]: m for m in bench["end_to_end"]},
            {m["name"]: m for m in bench["per_layer"]})


class MissingMeasurement(ValueError):
    """The run produced no sample for a metric, so it has no result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def median_times(result: dict, name: str) -> list[float]:
    """Each item's (request's or command's) median time over the run."""
    times = result["vectors"].get(name)
    if not times or not all(times):
        raise MissingMeasurement(f"the run did not time every item of {name}")
    return [statistics.median(samples) for samples in times]


def end_to_end(result: dict, categories: list[str]) -> dict:
    """An untraced run's result -> {metric: value}: the end-to-end metrics of
    ``BENCHMARK.json`` and the mean decide time per request category.

    ``categories`` names each request's category, in request order.
    """
    values = {}
    for name in ("setup_s", *COMMANDS):
        if not result["samples"].get(name):
            raise MissingMeasurement(f"the run recorded no {name}")
        values[name] = statistics.median(result["samples"][name])
    decide = median_times(result, "decide_s")
    values["decide_rps"] = len(decide) / sum(decide)
    values["decide_p50_us"] = percentile(decide, 0.50) * 1e6
    values["decide_p99_us"] = percentile(decide, 0.99) * 1e6
    for category in CATEGORIES:
        times = [t for t, c in zip(decide, categories) if c == category]
        if not times:
            raise MissingMeasurement(f"no {category} request was generated")
        values[f"decide_{category}_us"] = statistics.fmean(times) * 1e6
    values["query_s"] = sum(median_times(result, "query_s"))
    values["peak_rss_mb"] = result["rss_mb"]
    return values


def per_layer(result: dict) -> dict:
    """A traced run's result -> {metric: value}, summing the tracers of its processes."""
    facts = result["facts"]
    own: dict = defaultdict(float)
    total: dict = defaultdict(float)
    calls: Counter = Counter()
    edges: Counter = Counter()
    k: Counter = Counter()
    for trace in result["traces"]:
        for name, seconds in trace["self_s"].items():
            own[name] += seconds
        for name, seconds in trace["total_s"].items():
            total[name] += seconds
        calls.update(trace["calls"])
        edges.update(trace["edges"])
        k.update(trace["counts"])
    layers = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layers[name.split(".", 1)[0]] += seconds
    traced_total = sum(layers.values())
    values = {
        "policy.parse_s": own["policy.parse_policy"],
        "org.build_s": own["org.load_scenario"] + own["org.build_org"],
        "org.validate_s": own["org.validate_org"],
        "org.resolve_s": own["org.resolve_permission_set_ids"],
        "org.resolve_calls": calls["org.resolve_permission_set_ids"],
        "org.resolve_share_of_authorize": ratio(total["org.resolve_permission_set_ids"],
                                                total["engine.authorize"]),
        "org.shares_s": own["org.shares_covering"],
        "org.first_touch_s": facts["first_touch_s"],
        "policy.match_s": (own["policy.action_matches"] + own["policy.resource_matches"]
                           + own["policy.condition_holds"]),
        "policy.statements_per_decision": ratio(k["statements"], k["decisions"]),
        "policy.match_ratio": ratio(k["matched"], k["statements"]),
        "engine.authorize_self_s": own["engine.authorize"],
        "engine.validate_s": own["engine.validate_request"],
        "cli.read_requests_s": own["cli.read_requests"],
        "cli.render_s": (own["engine.decision_to_obj"] + own["engine.trace_to_obj"]
                         + own["cli.dumps"]),
        "cli.write_s": total["audit.write_archive"],
        "usage.index_s": own["usage.build_usage_index"],
        "usage.index_authorize_calls": edges["usage.build_usage_index>engine.authorize"],
        "usage.replay_s": own["usage.replay_verify"],
        "usage.replay_calls": edges["usage.replay_verify>engine.authorize"],
        "usage.universe_size": ratio(k["universe"], k["samples"]),
        "usage.sample_size": ratio(k["sampled"], k["samples"]),
        "audit.read_eps": ratio(k["events_read"], total["audit.read_archive"]),
        "audit.write_eps": ratio(k["events_written"], total["audit.write_archive"]),
        "audit.merge_s": own["audit.merge_archives"],
        "audit.query_scan_eps": ratio(k["events_scanned"], total["audit.query"]),
        "audit.query_hit_ratio": ratio(k["events_returned"], k["events_scanned"]),
        "trace.overhead_rps": facts["overhead_rps"],
        "trace.overhead_share": facts["overhead_share"],
    }
    for layer in LAYERS[:-1]:
        values[f"layer.{layer}.share"] = ratio(layers[layer], traced_total)
    return values
