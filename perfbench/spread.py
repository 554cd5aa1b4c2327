#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

The spread is the distance between the first and third quartiles of the
per-seed values (``statistics.quantiles(values, n=4)``), as a share of their
median. Each end-to-end metric's spread is shown beside its bound from
``BENCHMARK.json``; a steady benchmark keeps every spread well below it.

Usage (from the root of a checkout):
    python3 perfbench/spread.py --workload large-org --seeds 1-10 [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={elapsed:.1f}s", flush=True)

    print(f"{'metric':34s} {'median':>14s} {'spread':>8s} {'bound':>6s}  values")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        flag = "  OVER A THIRD OF THE BOUND" if bound and spread > bound / 3 else ""
        print(f"{name:34s} {median:14.6g} {spread:8.4f} {bound or '-':>6}  "
              f"{' '.join(f'{v:.5g}' for v in vals)}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
