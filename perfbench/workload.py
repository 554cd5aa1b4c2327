"""Run one workload against its generated inputs, or check what a run wrote.

``run.py`` starts this twice per workload, each time in a fresh Python
process whose working directory is the inputs directory. Relative paths
keep command output (and so its digest) the same across checkouts.

- ``--mode measure`` runs the workload as a closed loop with one caller.
  Its first cycle runs every phase once, in order, and keeps the outputs
  for the checks. Then, until ``--seconds`` are up, it runs one step at a
  time of the phase furthest below its share of the time in the plan, so
  each phase's samples are spread over the whole run: the host's speed
  changes within seconds. Decide steps run in this process; every other
  step runs in a forked child (see :meth:`Measure.forked`). A traced run
  (``--trace 1``) makes the first cycle only.
- ``--mode check`` checks those outputs, in a process of its own so that
  the checks' memory does not count in the measured peak.

The program is driven through its public API and through
``iamsim.cli.main(argv)`` with stdout captured. Every failed check or
unexpected exit code counts as one failed operation.

Usage: workload.py --root CHECKOUT --workload NAME --mode measure|check --seed N
                   --seconds S --trace 0|1 --out RESULT.json [--spans SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from metrics import ratio
from tracer import Tracer

AS_OF = "2024-04-01T00:00:00Z"
WINDOW = "2024-01-01T00:00:00Z..2024-12-31T00:00:00Z"
ORACLE_SAMPLE = 200
FIRST_TOUCH_REPEATS = 21
# untraced/traced pass pairs that measure the tracing overhead
TRACE_PAIRS = 3
# after the first full pass, a decide step times this share of the requests,
# the next step the next share, so each request's samples are spread thinly
DECIDE_CHUNKS = 4
# first-cycle outputs the check process reads
OUTPUTS = Path("outputs")

PHASES = ("setup", "decide", "simulate", "merge", "query", "unused", "generate")


@dataclass(frozen=True)
class Plan:
    """``shares`` maps each phase to its share of a run's time."""

    simulate_flags: tuple[str, ...]
    shares: dict


PLANS = {
    # generate takes about 15 s, so it runs once; the rest share the time left
    "large-org": Plan(("--emit-log", "emitted.jsonl"), {
        "setup": 0.05, "decide": 0.2, "simulate": 0.15, "merge": 0.1,
        "query": 0.1, "unused": 0.15, "generate": 0.3,
    }),
    "policy-dense": Plan(("--emit-log", "emitted.jsonl", "--trace"), {
        "setup": 0.05, "decide": 0.25, "simulate": 0.2, "merge": 0.1,
        "query": 0.1, "unused": 0.15, "generate": 0.15,
    }),
    # the query set takes about 18 s and merge 5 s, so they run once and
    # twice; the short commands get the time left, for many samples each
    "audit-logs": Plan(("--emit-log", "emitted.jsonl"), {
        "setup": 0.02, "decide": 0.06, "simulate": 0.06, "merge": 0.25,
        "query": 0.4, "unused": 0.04, "generate": 0.1,
    }),
}


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def file_digest(path: str) -> str:
    """Digest of a file the command wrote, or of nothing when it wrote none."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except FileNotFoundError:
        pass
    return h.hexdigest()


class Run:
    """State shared by the measuring and the checking process."""

    def __init__(self, args: argparse.Namespace, iamsim):
        self.args = args
        self.iamsim = iamsim
        self.manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
        self.plan = PLANS[args.workload]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.facts: dict = {}
        self.requests = self._read_requests()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(what)

    def _read_requests(self) -> list:
        AccessRequest = self.iamsim.AccessRequest
        out = []
        with open("requests.jsonl", encoding="utf-8") as fh:
            for line in fh:
                o = json.loads(line)
                out.append(AccessRequest(o["user"], o["account"], o["action"], o["resource"],
                                         o.get("context", {})))
        return out

    def load_org(self):
        self.attempted += 1
        return self.iamsim.org.load_scenario("scenario.json")

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "facts": self.facts}


class Measure(Run):
    def __init__(self, args: argparse.Namespace, iamsim):
        super().__init__(args, iamsim)
        self.tracer: Tracer | None = Tracer() if args.trace else None
        self.traces: list[dict] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        # per-item samples: one list of times per request (decide_s) or per
        # command of the query set (query_s)
        self.vectors: dict[str, list[list[float]]] = {}
        self.digests: dict[str, str] = {}
        self.steps: Counter = Counter()
        self.spent: dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.last: dict[str, float] = {}
        self.first = True  # in the first cycle, whose outputs are checked
        self.queries = [(f"audit query {q['name']}",
                         ["--format", "json", "audit", "query", "archive.jsonl", *q["argv"]])
                        for q in self.manifest["queries"]]
        self.queries.append(("audit denied-summary",
                             ["--format", "json", "audit", "denied-summary", "archive.jsonl",
                              "--bucket", self.manifest["denied_bucket"]]))
        self.next_query = 0
        self.next_chunk = 0
        self.vectors["query_s"] = [[] for _ in self.queries]
        self.vectors["decide_s"] = [[] for _ in self.requests]
        self.decide_org = None
        self.generate_argv: list[str] = []
        self.rss_mb = 0.0

    # -- bookkeeping -------------------------------------------------------

    def keep_times(self, name: str, index: int, times: list[list[float]]) -> None:
        """Add samples to items ``index``, ``index + 1``, ... of ``name``."""
        kept = self.vectors[name]
        for i, samples in enumerate(times, index):
            kept[i].extend(samples)

    def record_digest(self, name: str, value: str) -> None:
        if self.digests.setdefault(name, value) != value:
            self.fail(f"{name}: output differs between repetitions")

    def forked(self, work, span: str | None = None) -> None:
        """Run ``work()`` in a forked child and take over what it recorded;
        in a traced run, trace it under ``span``.

        Every command step starts from the same heap this way, as a fresh
        ``iamsim`` process would: a command run after others in one process
        can take a third longer.
        """
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            code = 0
            try:
                payload = self.recorded_by(work, span)
            except BaseException:  # the child must end here, never return into the run
                payload = {"error": traceback.format_exc()[-1000:]}
                code = 1
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, encoding="utf-8") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024)
        payload = json.loads(data) if data else {"error": f"child ended with status {status}"}
        if "error" in payload:
            self.fail(f"benchmark step failed: {payload['error']}")
            return
        self.attempted += payload["attempted"]
        self.failed += payload["failed"]
        for failure in payload["failures"]:
            if len(self.failures) < 50:
                self.failures.append(failure)
        for name, values in payload["samples"].items():
            self.samples[name].extend(values)
        for name, times in payload["vectors"].items():
            self.keep_times(name, 0, times)
        for name, value in payload["digests"].items():
            self.record_digest(name, value)
        self.facts.update(payload["facts"])
        if payload["trace"]:
            self.traces.append(payload["trace"])

    def recorded_by(self, work, span: str | None) -> dict:
        """In the child: run ``work()`` with empty records; return them."""
        self.attempted = self.failed = 0
        self.failures, self.facts, self.digests = [], {}, {}
        self.samples = defaultdict(list)
        self.vectors = {name: [[] for _ in times] for name, times in self.vectors.items()}
        self.tracer = Tracer() if self.args.trace and span else None
        with self.traced(span):
            work()
        if self.tracer and self.args.spans:
            self.tracer.write_spans(self.args.spans, self.args.workload)
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures,
                "samples": self.samples, "vectors": self.vectors, "digests": self.digests,
                "facts": self.facts, "trace": self.tracer.summary() if self.tracer else None}

    def keep_output(self, name: str, out: str) -> None:
        if self.first:
            (OUTPUTS / f"{name}.out").write_text(out, encoding="utf-8")

    def cli(self, name: str, argv: list[str]) -> tuple[str, float]:
        """Run one iamsim command in-process; return (stdout, wall seconds)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = perf_counter()
            try:
                code = self.iamsim.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = f"exception {exc!r}"
            seconds = perf_counter() - started
        if code != 0:
            self.fail(f"{name}: exit {code}: {err.getvalue().strip()[:300]}")
        return out.getvalue(), seconds

    def command(self, name: str, argv: list[str], sample: str) -> str:
        """Run a command whose wall time is the sample; return its stdout."""
        out, seconds = self.cli(name, argv)
        self.samples[sample].append(seconds)
        self.record_digest(name, digest(out.encode()))
        self.keep_output(name, out)
        return out

    @contextlib.contextmanager
    def traced(self, name: str):
        """Trace the block when this is a traced run."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.tracer.uninstall()

    # -- the run -------------------------------------------------------------

    def run(self) -> None:
        deadline = perf_counter() + self.args.seconds
        OUTPUTS.mkdir(exist_ok=True)
        self.decide_org = self.load_org()
        # the decide org and the inputs stay for the whole run; keep them out
        # of the collector's scans, which neither the decide steps nor the
        # forked children should pay for
        gc.collect()
        gc.freeze()
        if self.tracer:
            self.forked(self.first_touch)
        # the first cycle times every request once after the warm-up pass,
        # and every command of the query set once, however short the run
        repeats = {"query": len(self.queries), "decide": 1 if self.tracer else 1 + DECIDE_CHUNKS}
        for phase in PHASES:
            for _ in range(repeats.get(phase, 1)):
                self.step(phase)
        self.first = False
        while not self.tracer:
            remaining = deadline - perf_counter()
            fits = [p for p in PHASES if self.last[p] < remaining]
            if not fits:
                break
            self.step(min(fits, key=lambda p: self.spent[p] / self.plan.shares[p]))
        self.rss_mb = max(self.rss_mb,
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    def step(self, phase: str) -> None:
        """One step of ``phase``: decide steps run in this process, on its
        org; every other step runs in a forked child."""
        started = perf_counter()
        if phase == "decide":
            self.trace_overhead() if self.tracer else self.decide()
        elif phase == "query":
            i = self.next_query
            self.next_query = (i + 1) % len(self.queries)
            self.forked(lambda: self.query(i), f"bench.{phase}")
        else:
            if phase == "generate" and not self.generate_argv:
                user, account = self.facts["principal"] = self.principal
                self.generate_argv = [
                    "--scenario", "scenario.json", "--format", "json", "analyze", "generate",
                    "emitted.jsonl", "--principal", f"{user}@{account}", "--level", "4",
                    "--window", WINDOW]
            self.forked(getattr(self, phase), f"bench.{phase}")
        self.last[phase] = perf_counter() - started
        self.spent[phase] += self.last[phase]
        self.steps[phase] += 1

    # -- phases: each call is one step ------------------------------------

    def setup(self) -> None:
        started = perf_counter()
        self.load_org()
        self.samples["setup_s"].append(perf_counter() - started)

    def first_touch(self) -> None:
        """First decision on a freshly loaded org minus the same decision warm."""
        authorize = self.iamsim.engine.authorize
        request = self.requests[0]
        deltas = []
        for _ in range(3):
            org = self.load_org()
            started = perf_counter()
            authorize(org, request)
            first = perf_counter() - started
            warm = []
            for _ in range(FIRST_TOUCH_REPEATS):
                started = perf_counter()
                authorize(org, request)
                warm.append(perf_counter() - started)
            deltas.append(first - statistics.median(warm))
        self.facts["first_touch_s"] = statistics.median(deltas)

    def decide(self) -> None:
        if not self.steps["decide"]:  # a warm-up pass: its decisions are checked, not its times
            self.decide_pass(record=False)
            return
        size = -(-len(self.requests) // DECIDE_CHUNKS)
        start = self.next_chunk * size
        self.next_chunk = (self.next_chunk + 1) % DECIDE_CHUNKS
        self.decide_pass(start, start + size)

    def decide_pass(self, start: int = 0, stop: int | None = None, record: bool = True) -> float:
        """One timed pass of the per-call authorize loop over the requests
        from ``start`` to ``stop``, by default all of them. Adds each
        request's time to its samples when ``record``; the first full pass's
        decisions are kept for the checks. Returns the pass's decisions per
        second."""
        authorize = self.iamsim.engine.authorize
        org = self.decide_org
        requests = self.requests[start:stop]
        times = []
        decisions = []
        pass_started = perf_counter()
        for request in requests:
            self.attempted += 1
            started = perf_counter()
            try:
                decision = authorize(org, request)
            except Exception as exc:  # a refused valid request is a failed operation
                decision = None
                self.fail(f"authorize {request}: {exc!r}")
            times.append(perf_counter() - started)
            decisions.append(decision)
        rps = len(requests) / (perf_counter() - pass_started)
        if record:
            self.keep_times("decide_s", start, [[t] for t in times])
        if "allow_share" not in self.facts:
            self.keep_decisions(decisions)
        return rps

    def keep_decisions(self, decisions: list) -> None:
        decided = [d for d in decisions if d is not None]
        self.facts["mean_statements_in_scope"] = ratio(sum(len(d.trace) for d in decided),
                                                       len(decided))
        self.facts["allow_share"] = ratio(
            sum(1 for d in decided if d.verdict.value == "Allow"), len(decided))
        to_obj = self.iamsim.engine.decision_to_obj
        with open("decisions.jsonl", "w", encoding="utf-8") as fh:
            for d in decisions:
                fh.write(json.dumps(None if d is None else to_obj(d, include_trace=True)) + "\n")

    def trace_overhead(self) -> None:
        """A warm-up pass, then TRACE_PAIRS pairs of an untraced and a traced
        pass on the same org, the tracer installed for the traced pass only.
        The overhead is the median of the per-pair differences."""
        self.decide_pass()
        differences, shares = [], []
        for _ in range(TRACE_PAIRS):
            untraced = self.decide_pass()
            with self.traced("bench.decide"):
                traced = self.decide_pass()
            differences.append(traced - untraced)
            shares.append(1 - traced / untraced)
        self.facts["overhead_rps"] = statistics.median(differences)
        self.facts["overhead_share"] = statistics.median(shares)

    def simulate(self) -> None:
        argv = ["--scenario", "scenario.json", "--format", "json", "simulate", "requests.jsonl",
                *self.plan.simulate_flags]
        out, seconds = self.cli("simulate", argv)
        self.samples["simulate_rps"].append(len(self.requests) / seconds)
        self.record_digest("simulate", digest(out.encode(),
                                             file_digest("emitted.jsonl").encode()))
        self.keep_output("simulate", out)

    @property
    def principal(self) -> list[str]:
        """The principal with the most allowed events in the emitted log."""
        allowed: Counter = Counter()
        with open("emitted.jsonl", encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                if event["verdict"] == "Allow":
                    allowed[(event["user"], event["account"])] += 1
        if not allowed:
            self.fail("simulate: no request was allowed, nothing to generate a policy from")
            return list(self.manifest["hot_principal"])
        return list(min(allowed, key=lambda p: (-allowed[p], p)))

    def merge(self) -> None:
        argv = ["--format", "json", "audit", "merge", *self.manifest["log_files"],
                "--out", "archive.jsonl"]
        out, seconds = self.cli("audit merge", argv)
        self.samples["merge_eps"].append(self.manifest["shape"]["log_events"] / seconds)
        self.record_digest("audit merge", digest(out.encode(),
                                                file_digest("archive.jsonl").encode()))
        self.keep_output("audit merge", out)

    def query(self, i: int) -> None:
        """Command ``i`` of the query set; query_s adds up each one's median time."""
        name, argv = self.queries[i]
        out, seconds = self.cli(name, argv)
        self.vectors["query_s"][i].append(seconds)
        self.record_digest(name, digest(out.encode()))
        self.keep_output(name, out)

    def unused(self) -> None:
        self.command("analyze unused", ["--scenario", "scenario.json", "--format", "json",
                                        "analyze", "unused", "emitted.jsonl", "--as-of", AS_OF,
                                        "--threshold-days", "90"], "unused_s")

    def generate(self) -> None:
        self.command("analyze generate", self.generate_argv, "generate_s")

    def result(self) -> dict:
        return {
            **super().result(),
            "steps": dict(self.steps),
            "spent_s": self.spent,
            "samples": dict(self.samples),
            "vectors": self.vectors,
            "digests": self.digests,
            "rss_mb": self.rss_mb,
            "traces": self.traces + ([self.tracer.summary()] if self.tracer else []),
        }


class Check(Run):
    """Output checks, never timed, over what the first cycle kept."""

    def run(self) -> None:
        self.check_oracle()
        self.check_simulate()
        self.check_merge()
        self.check_queries()
        self.check_unused()
        self.check_generate()

    def output(self, name: str) -> str:
        try:
            return (OUTPUTS / f"{name}.out").read_text(encoding="utf-8")
        except FileNotFoundError:
            self.fail(f"{name}: no output kept")
            return ""

    def check_oracle(self) -> None:
        org = self.load_org()
        decisions = [json.loads(line) for line in
                     Path("decisions.jsonl").read_text(encoding="utf-8").splitlines()]
        rng = random.Random(self.args.seed)
        for i in sorted(rng.sample(range(len(self.requests)),
                                   k=min(ORACLE_SAMPLE, len(self.requests)))):
            expected = self.iamsim.oracle_authorize(org, self.requests[i])
            got = decisions[i]["verdict"] if decisions[i] is not None else None
            if got != expected:
                self.fail(f"request {i}: engine {got}, oracle {expected}")

    def check_simulate(self) -> None:
        """Decisions match the per-call loop, with one emitted event per request."""
        with_trace = "--trace" in self.plan.simulate_flags
        expected = [json.loads(line) for line in
                    Path("decisions.jsonl").read_text(encoding="utf-8").splitlines()]
        lines = self.output("simulate").splitlines()
        events = Path("emitted.jsonl").read_text(encoding="utf-8").splitlines()
        if not len(lines) == len(events) == len(expected) == len(self.requests):
            self.fail(f"simulate: {len(lines)} decisions and {len(events)} events "
                      f"for {len(self.requests)} requests")
            return
        mismatched = 0
        for request, want, line, event_line in zip(self.requests, expected, lines, events):
            event = json.loads(event_line)
            if want is not None and not with_trace:
                want = {"verdict": want["verdict"], "reason": want["reason"]}
            if (json.loads(line) != want or event["verdict"] != want["verdict"]
                    or (event["user"], event["account"], event["action"], event["resource"])
                    != (request.user, request.account, request.action, request.resource)):
                mismatched += 1
        if mismatched:
            self.fail(f"simulate: {mismatched} decisions or events disagree with authorize")

    def check_merge(self) -> None:
        out = self.output("audit merge")
        total = self.manifest["shape"]["log_events"]
        summary = json.loads(out) if out else {}
        lines = Path("archive.jsonl").read_text(encoding="utf-8").splitlines()
        if summary.get("events") != total or len(lines) != total:
            self.fail(f"audit merge: {summary.get('events')} reported, {len(lines)} written, "
                      f"{total} expected")
        keys = [(e["time"], e["source"]) for e in map(json.loads, lines)]
        if any(a > b for a, b in zip(keys, keys[1:])):
            self.fail("audit merge: archive is not ordered by (time, source)")

    def check_queries(self) -> None:
        for q in self.manifest["queries"]:
            count = self.output(f"audit query {q['name']}").count("\n")
            if count != q["expected"]:
                self.fail(f"audit query {q['name']}: {count} events, expected {q['expected']}")
        out = self.output("audit denied-summary")
        denies = sum(cell["count"] for cell in (json.loads(out) if out else []))
        if denies != self.manifest["expected_denies"]:
            self.fail(f"audit denied-summary: {denies} denies, "
                      f"expected {self.manifest['expected_denies']}")

    def check_unused(self) -> None:
        out = self.output("analyze unused")
        entries = json.loads(out) if out else None
        statements = self.manifest["shape"]["identity_statements"]
        if not isinstance(entries, list) or not 0 < len(entries) <= statements:
            self.fail(f"analyze unused: expected 1..{statements} entries")

    def check_generate(self) -> None:
        out = self.output("analyze generate")
        result = json.loads(out) if out else {}
        verification = result.get("verification", {})
        if not (result.get("verified") is True and verification.get("coverage") == 1.0
                and verification.get("excess") == 0.0):
            self.fail(f"analyze generate: not verified at level 4: {verification}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--mode", required=True, choices=("measure", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import iamsim
    import iamsim.cli

    if Path(iamsim.__file__).resolve().parent != src / "iamsim":
        print(f"imported iamsim from {iamsim.__file__}, not from {src}", file=sys.stderr)
        return 2

    run = (Measure if args.mode == "measure" else Check)(args, iamsim)
    run.run()
    if args.mode == "measure" and run.tracer and args.spans:
        run.tracer.write_spans(args.spans, args.workload)
    Path(args.out).write_text(json.dumps(run.result()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
