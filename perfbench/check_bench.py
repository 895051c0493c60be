"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these slow tests (about three minutes) out of the
package's default pytest collection.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from consensuslab import sim  # noqa: E402

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced pass of every workload at each seed in SEEDS."""
    done = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            prep = harness.prepare(name, seed, tmp_path_factory.mktemp(f"{name}-{seed}"))
            done[name, seed] = prep, harness.run_pass(prep)
    return done


def _out(prep, run):
    return prep.work_dir / "runs" / run.label


def test_every_check_passes_at_every_seed(passes):
    for (name, seed), (_, result) in passes.items():
        assert all(not p for p in result.problems.values()), (name, seed, result.problems)


def test_seed_changes_initial_conditions_but_no_verdict(passes):
    for name in workloads.WORKLOADS:
        (prep_a, res_a), (prep_b, res_b) = (passes[name, s] for s in SEEDS)
        assert res_a.codes == res_b.codes
        for run_a, run_b in zip(prep_a.runs, prep_b.runs):
            rep_a = workloads.read_report(_out(prep_a, run_a) / "report.txt")
            rep_b = workloads.read_report(_out(prep_b, run_b) / "report.txt")
            assert rep_a["converged"] == rep_b["converged"], run_a.label
            if run_a.scenario.x0 is not None:
                continue  # appendix D starts from fixed positions
            _, first_a, _ = workloads.csv_ends(_out(prep_a, run_a) / "trajectory.csv")
            _, first_b, _ = workloads.csv_ends(_out(prep_b, run_b) / "trajectory.csv")
            assert not np.array_equal(first_a, first_b), run_a.label


def test_checks_fail_on_flipped_expectations(passes):
    for name in workloads.WORKLOADS:
        prep, result = passes[name, SEEDS[0]]
        references = iter(prep.references)
        for run, code in zip(prep.runs, result.codes):
            out = _out(prep, run)
            ref = next(references) if run.check == "expm" else None
            assert not workloads.check_run(run, out, code, ref)
            flips = [
                dataclasses.replace(run, expect_converged=not run.expect_converged),
                dataclasses.replace(run, expect_code=0 if run.expect_code else 2),
                dataclasses.replace(run, divergence_window=(0.0, 50.0)),
            ]
            for flipped in flips:
                assert workloads.check_run(flipped, out, code, ref), (run.label, flipped)
            assert workloads.check_run(run, out, None, ref), run.label
            if run.check == "appD":
                csv = out / "trajectory.csv"
                assert not workloads.check_appd_drift(run, csv)
                assert workloads.check_appd_drift(run, csv, a=1.001)
            if run.check == "expm":
                scale = max(1.0, float(np.abs(ref).max()))
                off = np.array(ref, dtype=float)
                off[-1] += 10 * workloads.EXPM_REL_TOL * scale
                assert workloads.check_run(run, out, code, off.tolist()), run.label


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts(name, tmp_path):
    prep = harness.prepare(name, 0, tmp_path)
    result, tracer = harness.traced_pass(prep)
    assert result.failed == 0, result.problems
    m = tracer.metrics()
    assert m["dynamics.field_calls"] == 4 * m["sim.steps"]
    assert m["sim.steps"] == result.steps
    if all(run.expect_code == 0 for run in prep.runs):
        assert m["sim.steps"] == sum(run.nsteps for run in prep.runs)
    if name == "linear_scale":
        dense = sum(4 * run.nsteps * 2 * (run.scenario.order * run.scenario.graph_n) ** 2
                    for run in prep.runs)
        assert m["dynamics.field_flops"] == dense
    if name == "gps_delayed":
        assert m["sim.history_reads"] > 0 and m["sim.arrival_lookups"] > 0
    if name == "fig1_gated":
        assert m["sim.history_reads"] == 0
        assert m["operators.gates_per_field"] > 1
    assert set(m) | {"bench.trace_overhead_s"} == set(tracing.PER_LAYER_UNITS)
    for span in tracer.spans:
        assert span["parent"] is None or span["parent"] < span["id"]


@pytest.mark.parametrize("name", ["gps_delayed", "linear_scale"])
def test_exact_counts_repeat(name, tmp_path):
    prep = harness.prepare(name, 0, tmp_path)
    tracers = [harness.traced_pass(prep)[1] for _ in range(2)]
    a, b = tracers
    assert a.counts == b.counts and a.extra == b.extra and a.largest == b.largest
    assert [s["name"] for s in a.spans] == [s["name"] for s in b.spans]


def test_untraced_run_has_no_wrapper_installed(tmp_path):
    originals = {(owner, attr): owner.__dict__[attr]
                 for owners, attr, *_ in tracing.TARGETS for owner in owners}
    integrate = sim.integrate
    prep = harness.prepare("linear_scale", 0, tmp_path)
    with tracing.Tracer():
        assert sim.integrate is not integrate
        with pytest.raises(RuntimeError):
            harness.run_pass(prep)
    harness.traced_pass(prep)
    assert sim.integrate is integrate
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn, (owner, attr)
    tracing.assert_unwrapped()


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear_scale",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
