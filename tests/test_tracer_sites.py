"""The benchmark's span tracer patches iamsim functions by name; every name it
lists must still be bound where it looks, or a traced run fails at install."""

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from iamsim import AuditEvent, EventKind, Verdict, archive_from_events, cli, write_archive

from conftest import utc

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_sites() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines SITES and classes; patches nothing
    return module.SITES


def test_every_tracer_site_resolves():
    sites = _tracer_sites()
    assert sites
    missing = [
        f"{module}.{name}" for module, name in sites
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


# bound in iamsim.engine only so that the tracer can patch them; statements
# match through their own lowered patterns, so engine never calls them
BOUND_ONLY_FOR_TRACER = {
    ("iamsim.engine", "action_matches"),
    ("iamsim.engine", "resource_matches"),
}


def test_every_tracer_site_is_defined_or_read_where_patched():
    """A site that is imported but never read is patched without effect, and
    the traced run then reports zero time for it instead of failing."""
    unused = set()
    for module, name in _tracer_sites():
        tree = ast.parse(Path(importlib.util.find_spec(module).origin).read_text("utf-8"))
        defined = any(
            isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            for node in tree.body
        )
        read = any(
            isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            for node in ast.walk(tree)
        )
        if not (defined or read):
            unused.add((module, name))
    assert unused == BOUND_ONLY_FOR_TRACER


def test_traced_audit_reads_count_what_they_scan(tmp_path):
    """A traced ``audit query`` counts every event it scans and every hit it
    returns, and a traced ``denied-summary`` is seen, however the commands
    come to read their log."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    log = tmp_path / "log.jsonl"
    write_archive(archive_from_events(
        AuditEvent(time=utc(2024, 1, 1, 0, 0, second), kind=EventKind.LOGIN, user="ana",
                   account="111111111111", verdict=Verdict.DENY if second % 3 else Verdict.ALLOW)
        for second in range(7)
    ), log)
    tracer = module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["--format", "json", "audit", "query", str(log),
                             "--verdict", "Deny"]) == 0
            hits = out.getvalue().count("\n")
            assert cli.main(["audit", "denied-summary", str(log), "--bucket", "1h"]) == 0
    finally:
        tracer.uninstall()
    assert hits == 4
    assert tracer.counts["events_scanned"] == 7
    assert tracer.counts["events_returned"] == hits
    assert tracer.calls["audit.query"] == tracer.calls["audit.denied_access_summary"] == 1
