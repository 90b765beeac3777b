"""The benchmark's tracer (`perfbench/spans.py`) wraps `hiertag` names by
attribute lookup.  Installing it here makes a deleted or renamed wrapped name
fail the test suite instead of a benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_name_and_unpatches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.unpatch()
    assert patched and all(getattr(owner, attr) is orig for owner, attr, orig in patched)
