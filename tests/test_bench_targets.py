"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_targets_resolve_to_callables(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for modname, fname, *_ in tracing.TARGETS:
        target = getattr(importlib.import_module(modname), fname, None)
        assert callable(target), f"{modname}.{fname}"
