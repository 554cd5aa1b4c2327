#!/usr/bin/env python3
"""The iamsim benchmark: whole-command metrics per workload, or per-layer with --trace 1.

For each workload it generates seeded inputs (``gen.py``), runs the workload
in a fresh Python process (``workload.py``) as a closed loop with one caller,
checks its outputs in another, prints every metric by name with its unit,
writes the results JSON under
``perfbench/out/`` and prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload large-org --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --workload all --smoke    # tiny inputs, for the self-test

Exits 2 without a result when the checkout holds no iamsim sources, and 1
when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from metrics import (  # noqa: E402
    CATEGORIES, SHOULD_MOVE, MissingMeasurement, definitions, end_to_end, per_layer,
)
from workload import PLANS  # noqa: E402

# a run must end within 180 s; this leaves room for generation and reporting
TIME_LIMIT_S = 165


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_process(workload: str, mode: str, args: argparse.Namespace, work: Path,
                spans: Path | None, deadline: float) -> dict:
    """Run ``workload.py`` in one mode, in a fresh process inside the inputs directory.

    The hash seed is fixed, so that the iteration order of sets and dicts of
    strings, and the work that follows from it, is the same on every run.
    """
    out = work / f"result-{mode}.json"
    argv = [sys.executable, str(HERE / "workload.py"), "--root", str(ROOT),
            "--workload", workload, "--mode", mode, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    # its own process group, so that a kill also ends the step it has forked
    proc = subprocess.Popen(argv, cwd=work, env={**os.environ, "PYTHONHASHSEED": "0"},
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: {mode} did not finish within the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not out.is_file():
        raise SystemExit(f"{workload}: {mode} exited with {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = HERE / "out"
    work = out_dir / f"work-{workload}-{args.seed}-{os.getpid()}"
    stem = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = stem.with_suffix(".spans.jsonl") if args.trace else None
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = gen.generate(workload, args.seed, work, smoke=args.smoke)
        if spans is not None:
            spans.unlink(missing_ok=True)
        measured = run_process(workload, "measure", args, work, spans, deadline)
        checked = run_process(workload, "check", args, work, None, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    try:
        values = (per_layer(measured) if args.trace
                  else end_to_end(measured, manifest["request_categories"]))
    except MissingMeasurement as exc:
        raise SystemExit(f"{workload}: {exc}") from None
    units = definitions()[args.trace]
    result = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": measured["failed"] + checked["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"] + checked["failed"],
        "failures": (measured["failures"] + checked["failures"])[:50],
        "metrics": {name: {"value": values[name], "unit": units[name]["unit"]} for name in units},
        # not gated: the mean decide time of each request category, so that a
        # result can be re-weighted to another request mix
        "decide_by_category_us": ({} if args.trace else
                                  {c: values[f"decide_{c}_us"] for c in CATEGORIES}),
        "steps": measured["steps"],
        "spent_s": measured["spent_s"],
        "samples": measured["samples"],
        "observed": measured["facts"],
        "digests": measured["digests"],
        "shape": manifest["shape"],
        "environment": environment(args.seed),
    }
    if spans is not None:
        result["spans_file"] = str(spans.relative_to(ROOT))
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_table(result: dict) -> None:
    status = "all output checks passed" if result["correct"] else "OUTPUT CHECKS FAILED"
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(error_rate {result['failed'] / result['attempted']:.4f}), {status}")
    shape, observed = result["shape"], result["observed"]
    mix = ", ".join(f"{k} {v:.0%}" for k, v in shape["request_mix"].items())
    print(f"   shape: {shape['accounts']} accounts, {shape['users']} users, "
          f"{shape['assignments']} assignments, {shape['resources']} resources, "
          f"{shape['requests']} requests ({mix}), {shape['log_events']} log events; "
          f"{observed.get('mean_statements_in_scope', 0):.1f} statements in scope, "
          f"{observed.get('allow_share', 0):.0%} allowed")
    print("   samples (steps): " + ", ".join(f"{k} {v}" for k, v in result["steps"].items()))
    for failure in result["failures"]:
        print(f"   failure: {failure}")
    for name, metric in result["metrics"].items():
        moves = f"  -> {SHOULD_MOVE[name]}" if name in SHOULD_MOVE else ""
        print(f"   {name:32s} {metric['value']:16.6f} {metric['unit']:6s}{moves}")
    for category, value in result["decide_by_category_us"].items():
        print(f"   {'decide_' + category + '_us':32s} {value:16.6f} us      (not gated)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *PLANS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own test; never for measurement")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iamsim" / "__init__.py").is_file():
        print(f"no iamsim sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workloads = list(PLANS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args) for w in workloads]
    for result in results:
        print_table(result)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        metrics.update({prefix + name: m for name, m in result["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
