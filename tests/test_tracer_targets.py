"""Fast guards for the benchmark's tracer: every function and method it
wraps by name still exists, and the count invariants that
``perfbench/check_bench.py`` asserts hold on short traced runs, so a
refactor that breaks either fails here instead of only in the slow
benchmark self-test."""

import dataclasses
import importlib
from pathlib import Path

import pytest

from consensuslab.presets import preset
from consensuslab.scenario import simulate_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_installs_and_removes_every_wrapper(tracing):
    with tracing.Tracer():
        pass
    tracing.assert_unwrapped()


@pytest.mark.parametrize("name, controllers", [
    ("timevarying_fig1", ("compositional", "conventional", "naive-serial")),
    ("gps_fig3", ("conventional-ideal", "conventional-delayed")),
    ("serial_lti", ("compositional",)),
    ("counterexample_appD", ("compositional",)),
])
def test_traced_counts(tracing, name, controllers):
    """Four field calls per RK4 step on the cascade and on every plant
    baseline; the fig1 runs make more than one gate call per field call,
    an all-linear cascade is charged one dense product per field call, and
    a delayed outer stage reads the history."""
    runs = [dataclasses.replace(preset(name), controller=c, t_end=1.0) for c in controllers]
    with tracing.Tracer() as tracer:
        for sc in runs:
            simulate_scenario(sc)
    tracing.assert_unwrapped()
    m = tracer.metrics()
    assert m["sim.steps"] == sum(round(sc.t_end / sc.dt) for sc in runs)
    assert m["dynamics.field_calls"] == 4 * m["sim.steps"]
    if name == "timevarying_fig1":
        assert m["operators.gates_per_field"] > 1
    if name == "serial_lti":
        dim = runs[0].order * runs[0].graph_n
        assert m["dynamics.field_flops"] == 2 * dim * dim * m["dynamics.field_calls"]
    if name == "counterexample_appD":
        assert m["sim.history_reads"] > 0
