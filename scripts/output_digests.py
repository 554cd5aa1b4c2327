#!/usr/bin/env python3
"""Digest what every iamsim command prints on the benchmark's inputs.

For each benchmark workload, writes the seeded inputs with
``perfbench/gen.py`` into a temporary directory and runs a fixed list of
commands there, in process, through ``iamsim.cli.main``. Prints one line per
command: the workload, the command, and the sha256 of its exit code, stdout
and stderr, followed by the content of any file the command writes. The
audit commands also read one per-account log re-encoded with spaces after
``:`` and ``,``, so the digests cover both ways a log line is read. Two more
logs cover the ways a merge reads its inputs and a query writes its hits: a
shuffled per-account log, which a merge reads in full and sorts, and a log
with DEL characters and empty sources, whose lines are written re-encoded.
Each is merged, and read by every query of the manifest and by
``denied-summary``, in both formats. Before the commands, one more line
digests the loaded organization itself: the sha256 of the sorted-key JSON of
``export_scenario(load_scenario("scenario.json"))``, which pins a change to
loading record by record. Two checkouts produce the same output exactly when
a ``diff`` of their runs is empty:

    python scripts/output_digests.py --src /path/to/a/src > a.txt
    python scripts/output_digests.py --src /path/to/b/src > b.txt
    diff a.txt b.txt

``--src`` is the directory holding the ``iamsim`` package under test; the
inputs always come from this checkout's ``perfbench/gen.py``.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside gen.py or the package

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("large-org", "policy-dense", "audit-logs")
FORMATS = ("json", "text")
AS_OF = "2024-04-01T00:00:00Z"
WINDOW = "2024-01-01T00:00:00Z..2024-12-31T00:00:00Z"
AUTHORIZE_REQUESTS = 3  # the first requests of the batch, decided one by one


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def run(cli, argv: list[str], writes: tuple[str, ...] = ()) -> str:
    """Run one command; return the sha256 of its exit code, stdout, stderr
    and the files in ``writes``, in that order."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli(argv)
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256()
    for chunk in (str(code), out.getvalue(), err.getvalue()):
        h.update(chunk.encode() + b"\0")
    for path in writes:
        h.update(Path(path).read_bytes() + b"\0")
    return h.hexdigest()


def busiest_principal(log: str) -> tuple[str, str]:
    """The (user, account) with the most allowed events, ties to the least."""
    allowed: Counter = Counter()
    with open(log, encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            if event["verdict"] == "Allow":
                allowed[(event["user"], event["account"])] += 1
    return min(allowed, key=lambda p: (-allowed[p], p))


def redump(log: str, out: str) -> None:
    """Copy ``log`` with every line re-encoded by ``json.dumps`` with its
    default separators, so that no line is in iamsim's own compact form."""
    with open(log, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            dst.write(json.dumps(json.loads(line)) + "\n")


def shuffle(log: str, out: str) -> None:
    """Copy ``log`` with its lines in a seeded random order."""
    with open(log, encoding="utf-8") as fh:
        lines = fh.readlines()
    random.Random(0).shuffle(lines)
    Path(out).write_text("".join(lines), encoding="utf-8")


def reencode(log: str, out: str) -> None:
    """Copy ``log`` with a DEL (0x7f) put raw into every third user name and
    the source of every other third line emptied: both are valid, but
    iamsim writes neither as read."""
    with open(log, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for i, line in enumerate(src):
            if i % 3 == 0:
                line = line.replace('"user":"', '"user":"\x7f', 1)
            elif i % 3 == 1:
                line = line[:line.rindex('"source":')] + '"source":""}\n'
            dst.write(line)


def audit_reads(manifest: dict, log: str):
    """Yield (label, argv, written files) for every query of the manifest and
    ``denied-summary`` over ``log``, in both formats."""
    for fmt in FORMATS:
        for query in manifest["queries"]:
            yield None, ["--format", fmt, "audit", "query", log, *query["argv"]], ()
        yield None, ["--format", fmt, "audit", "denied-summary", log,
                     "--bucket", manifest["denied_bucket"]], ()


def commands(manifest: dict):
    """Yield (label, argv, written files) in run order; later commands read
    the log and the archive that earlier ones write."""
    scenario = ["--scenario", "scenario.json"]
    for fmt in FORMATS:
        yield None, [*scenario, "--format", fmt, "validate"], ()
    yield None, [*scenario, "--format", "json", "simulate", "requests.jsonl",
                 "--emit-log", "emitted.jsonl"], ("emitted.jsonl",)
    for fmt in FORMATS:
        for trace in ([], ["--trace"]):
            yield None, [*scenario, "--format", fmt, "simulate", "requests.jsonl", *trace], ()
    with open("requests.jsonl", encoding="utf-8") as fh:
        requests = [json.loads(line) for _, line in zip(range(AUTHORIZE_REQUESTS), fh)]
    for request in requests:
        contexts = [f"--context={k}={v}" for k, v in request.get("context", {}).items()]
        for fmt in FORMATS:
            yield None, [*scenario, "--format", fmt, "authorize", "--user", request["user"],
                         "--account", request["account"], "--action", request["action"],
                         "--resource", request["resource"], *contexts, "--explain"], ()
    for fmt in FORMATS:
        yield None, [*scenario, "--format", fmt, "analyze", "unused", "emitted.jsonl",
                     "--as-of", AS_OF, "--threshold-days", "90"], ()
    user, account = busiest_principal("emitted.jsonl")
    for level in ("2", "3", "4"):
        for fmt in FORMATS:
            yield None, [*scenario, "--format", fmt, "analyze", "generate", "emitted.jsonl",
                         "--principal", f"{user}@{account}", "--level", level,
                         "--window", WINDOW], ()
    for fmt in FORMATS:
        yield (f"--format {fmt} audit merge logs/*.jsonl --out archive.jsonl",
               ["--format", fmt, "audit", "merge", *manifest["log_files"],
                "--out", "archive.jsonl"], ("archive.jsonl",))
    yield from audit_reads(manifest, "archive.jsonl")
    # the same events in another JSON layout, which readers decode in full
    redump(manifest["log_files"][0], "spaced.jsonl")
    for fmt in FORMATS:
        yield None, ["--format", fmt, "audit", "merge", "spaced.jsonl",
                     "--out", "spaced-archive.jsonl"], ("spaced-archive.jsonl",)
        yield None, ["--format", fmt, "audit", "query", "spaced.jsonl", "--verdict", "Deny"], ()
    first, *rest = manifest["log_files"][:4]
    shuffle(first, "shuffled.jsonl")
    reencode(first, "reencoded.jsonl")
    for log in ("shuffled.jsonl", "reencoded.jsonl"):
        for fmt in FORMATS:
            yield None, ["--format", fmt, "audit", "merge", *rest, log, *rest[:1],
                         "--out", f"{log}-archive.jsonl"], (f"{log}-archive.jsonl",)
        yield from audit_reads(manifest, log)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the iamsim package")
    parser.add_argument("--seed", type=int, default=3, help="input seed (default 3)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import iamsim.cli
    from iamsim.org import export_scenario, load_scenario
    if not Path(iamsim.cli.__file__).resolve().is_relative_to(src):
        parser.error(f"iamsim was imported from {iamsim.cli.__file__}, not from {src}")
    gen = load_gen()
    home = os.getcwd()
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=f"digests-{workload}-") as tmp:
            manifest = gen.generate(workload, args.seed, Path(tmp))
            os.chdir(tmp)
            try:
                exported = json.dumps(export_scenario(load_scenario("scenario.json")),
                                      sort_keys=True)
                digest = hashlib.sha256(exported.encode()).hexdigest()
                print(f"{workload}\texport_scenario(load_scenario scenario.json)\t{digest}",
                      flush=True)
                for label, argv, writes in commands(manifest):
                    digest = run(iamsim.cli.main, argv, writes)
                    print(f"{workload}\t{label or ' '.join(argv)}\t{digest}", flush=True)
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
