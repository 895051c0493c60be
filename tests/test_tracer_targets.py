"""Fast guard for the benchmark's tracer: every function and method it
wraps by name still exists, so a refactor that drops one fails here
instead of only in the slow ``perfbench/check_bench.py``."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_removes_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer():
        pass
    tracing.assert_unwrapped()
