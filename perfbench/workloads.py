"""Benchmark workloads: scenario generation, expected outcomes, output checks.

Every workload is a list of CLI runs generated from the paper presets plus
the benchmark seed. The seed goes into each scenario's ``seed`` field (it
drives the initial conditions and the Poisson arrival streams) and, for
``linear_scale``, into explicit cascade initial states. A run's expected
exit code and verdict are fixed per (preset, controller) and must hold for
every seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from consensuslab import presets
from consensuslab.config import emit_scenario
from consensuslab.scenario import Scenario

# Window around the t ~ 120 s blow-up of the conventional controller on
# timevarying_fig1; the preset's 240 s horizon stays well past it (150 s is
# too short for the compositional run to settle within its tolerance).
FIG1_DIVERGENCE_WINDOW = (100.0, 140.0)
# Max abs error of the appendix-D drift against a*(t - 1 + e^-t). RK4 at
# dt = 1e-3 is ~1e-14 off; the CSV's 12 significant digits add ~5e-12.
APPD_DRIFT_TOL = 1e-9
# Max abs error of the final cascade state against expm(A t) xi0, relative
# to max(1, |reference|_inf). RK4 at dt = 1e-3 and an exact propagator are
# both below 1e-11 here; the CSV's 12 significant digits add ~5e-13.
EXPM_REL_TOL = 1e-9
# Short-horizon size for the arithmetic-bound half of linear_scale.
LARGE_N = 400
LARGE_T_END = 2.0


@dataclass(frozen=True)
class Run:
    """One CLI call of a workload and the outcome it must produce."""

    label: str
    scenario: Scenario
    expect_code: int
    expect_converged: bool
    divergence_window: tuple | None = None
    check: str | None = None   # extra reference check: "expm" or "appD"

    @property
    def nsteps(self) -> int:
        return int(round(self.scenario.t_end / self.scenario.dt))

    @property
    def config_name(self) -> str:
        return self.label.replace("/", "__") + ".cfg"


def _seeded(sc: Scenario, seed: int, **changes) -> Scenario:
    return dataclasses.replace(sc, seed=seed, **changes)


def _explicit_xi0(sc: Scenario, seed: int, n: int) -> tuple:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7001, n)))
    return tuple(rng.uniform(-1.0, 1.0, size=sc.order * n).tolist())


def fig1_gated(seed):
    sc = presets.timevarying_fig1()
    return [
        Run("fig1/compositional", _seeded(sc, seed, controller="compositional"), 0, True),
        Run("fig1/conventional", _seeded(sc, seed, controller="conventional"), 2, False,
            divergence_window=FIG1_DIVERGENCE_WINDOW),
        Run("fig1/naive-serial", _seeded(sc, seed, controller="naive-serial"), 0, False),
    ]


def gps_delayed(seed):
    sc = presets.gps_fig3()
    appd = presets.counterexample_appD()
    return [
        Run("gps/compositional", _seeded(sc, seed, controller="compositional"), 0, True),
        Run("gps/conventional-delayed",
            _seeded(sc, seed, controller="conventional-delayed"), 0, False),
        Run("gps/conventional-ideal",
            _seeded(sc, seed, controller="conventional-ideal"), 0, True),
        Run("appD/compositional", _seeded(appd, seed), 0, False, check="appD"),
    ]


def linear_scale(seed):
    sc = presets.serial_lti()
    small = _seeded(sc, seed, init_preset=None, xi0=_explicit_xi0(sc, seed, sc.graph_n))
    large = _seeded(
        sc, seed, name="serial_lti_n400", graph_n=LARGE_N, t_end=LARGE_T_END,
        record_every=100, init_preset=None, xi0=_explicit_xi0(sc, seed, LARGE_N),
    )
    return [
        Run("lti/n10", small, 0, True, check="expm"),
        Run("lti/n400", large, 0, False, check="expm"),
    ]


def fig2_dense(seed):
    sc = presets.saturated_fig2()
    return [
        Run("fig2/compositional",
            _seeded(sc, seed, controller="compositional", record_every=1), 0, True),
        Run("fig2/conventional",
            _seeded(sc, seed, controller="conventional", record_every=1), 0, False),
    ]


WORKLOADS = {
    "fig1_gated": fig1_gated,
    "gps_delayed": gps_delayed,
    "linear_scale": linear_scale,
    "fig2_dense": fig2_dense,
}


def generate(workload: str, seed: int) -> list[Run]:
    return WORKLOADS[workload](seed)


def write_configs(runs, config_dir: Path) -> list[Path]:
    """Write each run's scenario file; returns the paths in run order."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for run in runs:
        path = config_dir / run.config_name
        path.write_text(emit_scenario(run.scenario) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means the run passed.


def read_report(path: Path) -> dict:
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def count_lines(path: Path) -> int:
    lines = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def csv_ends(path: Path):
    """(header names, first data row, last data row) of a trajectory CSV."""
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        first = last = fh.readline()
        for line in fh:
            last = line
    return header, np.array(first.split(","), float), np.array(last.split(","), float)


def steps_taken(run: Run, code, report: dict) -> int:
    """RK4 steps the run completed: all of them, or up to the blow-up."""
    if code == 2 and "divergence_time" in report:
        return int(round(float(report["divergence_time"]) / run.scenario.dt))
    return run.nsteps


def check_verdict(run: Run, code, report: dict) -> list[str]:
    problems = []
    if code != run.expect_code:
        problems.append(f"exit code {code}, expected {run.expect_code}")
    converged = report.get("converged")
    if converged != ("true" if run.expect_converged else "false"):
        problems.append(f"converged = {converged}, expected {run.expect_converged}")
    div = report.get("divergence_time")
    if run.divergence_window is None:
        if div is not None:
            problems.append(f"unexpected divergence at t = {div}")
    else:
        lo, hi = run.divergence_window
        if div is None or not lo <= float(div) <= hi:
            problems.append(f"divergence_time = {div}, expected within [{lo}, {hi}]")
    return problems


def check_appd_drift(run: Run, csv_path: Path, a=None) -> list[str]:
    """Leader/follower gap against the closed form a*(t - 1 + e^-t)."""
    sc = run.scenario
    a = sc.disturbance_vector[0] if a is None else a
    cap = float(sc.stages[0].delay.split(":", 1)[1])
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    mask = t <= cap + 1e-12
    drift = data[mask, 1] - data[mask, 2]
    err = float(np.abs(drift - a * (t[mask] - 1.0 + np.exp(-t[mask]))).max())
    if not err <= APPD_DRIFT_TOL:
        return [f"appD drift error {err:.3e} > {APPD_DRIFT_TOL:g}"]
    return []


def check_expm(run: Run, csv_path: Path, reference) -> list[str]:
    """Final cascade state against the exact propagator reference."""
    sc = run.scenario
    header, _, last = csv_ends(csv_path)
    cols = [header.index(f"xi_{k + 1}_{i + 1}")
            for k in range(sc.order) for i in range(sc.graph_n)]
    ref = np.asarray(reference, dtype=float)
    if not math.isclose(last[0], sc.t_end, rel_tol=1e-12):
        return [f"last CSV row at t = {last[0]}, expected {sc.t_end}"]
    err = float(np.abs(last[cols] - ref).max())
    scale = max(1.0, float(np.abs(ref).max()))
    if not err <= EXPM_REL_TOL * scale:
        return [f"expm error {err:.3e} > {EXPM_REL_TOL:g} * {scale:.3g}"]
    return []


def check_run(run: Run, out_dir: Path, code, reference=None) -> list[str]:
    """Every check for one run's artifacts; ``code`` is the CLI exit code."""
    csv_path = out_dir / "trajectory.csv"
    missing = [name for name in ("trajectory.csv", "report.txt", "config.echo")
               if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts {missing} (exit code {code})"]
    report = read_report(out_dir / "report.txt")
    problems = check_verdict(run, code, report)
    if code == 0:
        rows = count_lines(csv_path) - 1
        expected = run.nsteps // run.scenario.record_every + 1
        if rows != expected:
            problems.append(f"{rows} CSV rows, expected {expected}")
    if run.check == "appD":
        problems += check_appd_drift(run, csv_path)
    elif run.check == "expm":
        problems += check_expm(run, csv_path, reference)
    return problems


def reference_inputs(runs) -> list[dict]:
    """What the exact-propagator reference needs for each ``expm`` run."""
    return [
        {"n": r.scenario.graph_n, "order": r.scenario.order,
         "scales": [st.scale for st in r.scenario.stages],
         "t": r.scenario.t_end, "xi0": list(r.scenario.xi0)}
        for r in runs if r.check == "expm"
    ]
