"""Per-layer tracing of consensuslab, installed from outside the program.

A Tracer replaces public functions and methods of the package with timing
wrappers and puts the originals back on exit. Coarse layer boundaries
(CLI call, parse, build, integrate, report, writers) are kept as spans
with parent IDs; hot calls (vector field, operator evaluations, gates,
history reads, arrival lookups, plant reconstruction) keep only counts and
summed time. Every wrapped call also charges its duration to its caller,
so each layer's self time is its time minus that of wrapped calls it made.
Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from consensuslab import cli, config, dynamics, metrics, operators, scenario, sim
from consensuslab.exceptions import DivergenceError

_MARK = "__perfbench_traced__"
_FLOAT_BYTES = np.dtype(float).itemsize

LAYERS = ("cli", "config", "scenario", "sim", "dynamics", "operators", "metrics")
OPERATOR_CLASSES = (
    operators.LinearStatic,
    operators.LinearTimeVarying,
    operators.Saturated,
    operators.DelayedRelative,
    operators.DelayedAbsoluteVelocity,
)
OPERATOR_KINDS = tuple(cls.kind for cls in OPERATOR_CLASSES)

# (owners, attribute, trace name, layer, keep a span, special wrapper).
# A function imported into several modules is replaced in each of them.
TARGETS = [
    ((cli,), "main", "cli.main", "cli", True, None),
    ((config, cli), "parse_scenario", "config.parse_scenario", "config", True, None),
    ((config, cli), "emit_scenario", "config.emit_scenario", "config", True, None),
    ((scenario, cli), "simulate_scenario", "scenario.simulate_scenario", "scenario",
     True, None),
    ((scenario,), "build_operator", "scenario.build_operator", "scenario", True, None),
    ((sim,), "poisson_delay_bank", "sim.poisson_delay_bank", "sim", True, None),
    ((sim,), "integrate", "sim.integrate", "sim", True, "integrate"),
    ((dynamics,), "cascade_rhs", "dynamics.cascade_rhs", "dynamics", True, "cascade_rhs"),
    ((dynamics,), "reconstruct_plant", "dynamics.reconstruct_plant", "dynamics",
     False, None),
    ((metrics, cli), "build_report", "metrics.build_report", "metrics", True, None),
    ((cli,), "write_trajectory_csv", "cli.write_trajectory_csv", "cli", True, "csv"),
    ((cli,), "write_report", "cli.write_report", "cli", True, None),
    ((cli,), "write_gnuplot", "cli.write_gnuplot", "cli", True, None),
    ((sim.StepView,), "__call__", "sim.StepView.read", "sim", False, "view_call"),
    ((sim.StepView,), "components", "sim.StepView.read", "sim", False, "view_components"),
    ((sim.HistoryBuffer,), "state_at", "sim.HistoryBuffer.read", "sim", False, None),
    ((sim.HistoryBuffer,), "components", "sim.HistoryBuffer.read", "sim", False, None),
    ((sim.ArrivalBank,), "last_arrivals", "sim.ArrivalBank.last_arrivals", "sim",
     False, None),
    ((operators.LinearTimeVarying,), "gates", "operators.gates", "operators", False, None),
    ((operators.LinearTimeVarying,), "gate_rates", "operators.gates", "operators",
     False, None),
] + [
    ((cls,), "evaluate", f"operators.evaluate.{cls.kind}", "operators", False, None)
    for cls in OPERATOR_CLASSES
]

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "sim.integrate_s": "s",
    "sim.steps": "count",
    "sim.step_self_us": "us",
    "dynamics.field_calls": "count",
    "dynamics.field_us": "us",
    "dynamics.field_flops": "flop",
    **{f"operators.evaluate_calls.{k}": "count" for k in OPERATOR_KINDS},
    **{f"operators.evaluate_us.{k}": "us" for k in OPERATOR_KINDS},
    "operators.gates_per_field": "ratio",
    "sim.history_reads": "count",
    "sim.history_read_us": "us",
    "sim.provisional_share": "ratio",
    "sim.arrival_lookups": "count",
    "sim.arrival_lookup_us": "us",
    "sim.delay_sample_s": "s",
    "scenario.build_s": "s",
    "config.emit_calls": "count/run",
    "config.parse_s": "s",
    "dynamics.reconstruct_calls": "count",
    "dynamics.reconstruct_s": "s",
    "metrics.report_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_bytes": "bytes",
    "sim.history_bytes": "bytes",
    "sim.record_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.trace_overhead_s": "s",
}


def assert_unwrapped() -> None:
    """Raise if any traced target currently holds a tracing wrapper."""
    wrapped = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owners, attr, *_ in TARGETS for owner in owners
        if getattr(owner.__dict__[attr], _MARK, False)
    ]
    if wrapped:
        raise RuntimeError(f"tracing wrappers still installed: {wrapped}")


class Tracer:
    """Context manager that traces every call into TARGETS while active."""

    def __init__(self):
        self.counts = Counter()
        self.totals = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self.extra = Counter()
        self.largest = Counter()
        self._stack = []
        self._saved = []
        self._dense_flops = {}

    # -- installation -----------------------------------------------------

    def __enter__(self):
        assert_unwrapped()
        try:
            for owners, attr, name, layer, span, special in TARGETS:
                original = owners[0].__dict__[attr]
                make = getattr(self, f"_wrap_{special}") if special else self._wrap
                wrapper = make(original, name, layer, span)
                setattr(wrapper, _MARK, True)
                for owner in owners:
                    self._saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _timed(self, name, layer, span, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_span = parent[1] if parent else None
        if span:
            span_id = len(self.spans)
            self.spans.append(None)
            frame = [0.0, span_id]
        else:
            frame = [0.0, parent_span]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[0] += elapsed
            self.counts[name] += 1
            self.totals[name] += elapsed
            self.self_time[layer] += elapsed - frame[0]
            if span:
                self.spans[span_id] = {"id": span_id, "parent": parent_span,
                                       "name": name, "start": start, "end": end,
                                       "self": elapsed - frame[0]}

    def _wrap(self, fn, name, layer, span):
        timed = self._timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(name, layer, span, fn, args, kwargs)

        return wrapper

    def _wrap_integrate(self, fn, name, layer, span):
        @functools.wraps(fn)
        def integrate(field, x0, cfg, tau_max=None):
            width = len(x0)
            if tau_max is not None:
                self.largest["history_bytes"] = max(
                    self.largest["history_bytes"], (cfg.nsteps + 1) * width * _FLOAT_BYTES)
            rows = cfg.nsteps // cfg.record_every + 1
            self.largest["record_bytes"] = max(
                self.largest["record_bytes"], rows * width * _FLOAT_BYTES)
            traced = self._traced_field(field, self._dense_flops.pop(field, 0))
            try:
                result = self._timed(name, layer, span, fn, (traced, x0, cfg, tau_max), {})
            except DivergenceError as err:
                self.extra["steps"] += int(round(err.time / cfg.dt))
                raise
            self.extra["steps"] += cfg.nsteps
            return result

        return integrate

    def _traced_field(self, field, flops):
        timed = self._timed
        extra = self.extra

        def traced_field(xi, t, hist):
            extra["field_flops"] += flops
            return timed("dynamics.field", "dynamics", False, field, (xi, t, hist), {})

        return traced_field

    def _wrap_cascade_rhs(self, fn, name, layer, span):
        @functools.wraps(fn)
        def cascade_rhs(cascade, u_ref=None):
            field = self._timed(name, layer, span, fn, (cascade, u_ref), {})
            if all(isinstance(op, operators.LinearStatic) for op in cascade.stages):
                dim = cascade.order * cascade.n
                self._dense_flops[field] = 2 * dim * dim
            return field

        return cascade_rhs

    def _wrap_csv(self, fn, name, layer, span):
        @functools.wraps(fn)
        def write_trajectory_csv(traj, path):
            result = self._timed(name, layer, span, fn, (traj, path), {})
            self.extra["csv_bytes"] += path.stat().st_size
            return result

        return write_trajectory_csv

    def _wrap_view_call(self, fn, name, layer, span):
        timed = self._timed
        extra = self.extra

        @functools.wraps(fn)
        def __call__(view, s):
            if s > view.t_last and view.t_stage > view.t_last:
                extra["provisional_reads"] += 1
            return timed(name, layer, span, fn, (view, s), {})

        return __call__

    def _wrap_view_components(self, fn, name, layer, span):
        timed = self._timed
        extra = self.extra

        @functools.wraps(fn)
        def components(view, ts, idx):
            if view.t_stage > view.t_last and np.max(ts) > view.t_last:
                extra["provisional_reads"] += 1
            return timed(name, layer, span, fn, (view, ts, idx), {})

        return components

    # -- results -----------------------------------------------------------

    def build_seconds(self) -> float:
        """Summed time from each scenario's simulate call to its integrate call."""
        total = 0.0
        for span in self.spans:
            if span["name"] == "sim.integrate" and span["parent"] is not None:
                parent = self.spans[span["parent"]]
                if parent["name"] == "scenario.simulate_scenario":
                    total += span["start"] - parent["start"]
        return total

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (no overhead entry)."""
        c, tot, ex = self.counts, self.totals, self.extra

        def per_call_us(name, calls=None):
            calls = c[name] if calls is None else calls
            return tot[name] / calls * 1e6 if calls else 0.0

        steps = ex["steps"]
        fields = c["dynamics.field"]
        reads = c["sim.StepView.read"]
        runs = c["cli.main"]
        out = {
            "sim.integrate_s": tot["sim.integrate"],
            "sim.steps": steps,
            "sim.step_self_us": ((tot["sim.integrate"] - tot["dynamics.field"]) / steps * 1e6
                                 if steps else 0.0),
            "dynamics.field_calls": fields,
            "dynamics.field_us": per_call_us("dynamics.field"),
            "dynamics.field_flops": ex["field_flops"],
            "operators.gates_per_field": c["operators.gates"] / fields if fields else 0.0,
            "sim.history_reads": reads,
            "sim.history_read_us": per_call_us("sim.StepView.read"),
            "sim.provisional_share": ex["provisional_reads"] / reads if reads else 0.0,
            "sim.arrival_lookups": c["sim.ArrivalBank.last_arrivals"],
            "sim.arrival_lookup_us": per_call_us("sim.ArrivalBank.last_arrivals"),
            "sim.delay_sample_s": tot["sim.poisson_delay_bank"],
            "scenario.build_s": self.build_seconds(),
            "config.emit_calls": c["config.emit_scenario"] / runs if runs else 0.0,
            "config.parse_s": tot["config.parse_scenario"],
            "dynamics.reconstruct_calls": c["dynamics.reconstruct_plant"],
            "dynamics.reconstruct_s": tot["dynamics.reconstruct_plant"],
            "metrics.report_s": tot["metrics.build_report"],
            "cli.csv_write_s": tot["cli.write_trajectory_csv"],
            "cli.csv_bytes": ex["csv_bytes"],
            "sim.history_bytes": self.largest["history_bytes"],
            "sim.record_bytes": self.largest["record_bytes"],
        }
        for kind in OPERATOR_KINDS:
            name = f"operators.evaluate.{kind}"
            out[f"operators.evaluate_calls.{kind}"] = c[name]
            out[f"operators.evaluate_us.{kind}"] = per_call_us(name)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        return out


def median_metrics(tracers) -> dict:
    """Per-metric median over several traced passes (counts repeat exactly)."""
    per_pass = [t.metrics() for t in tracers]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
