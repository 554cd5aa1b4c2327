"""The benchmark's span tracer patches iamsim functions by name; every name it
lists must still be bound where it looks, or a traced run fails at install."""

import importlib
import importlib.util
from pathlib import Path

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
