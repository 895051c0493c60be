"""End-to-end CLI runs: exit codes, artifacts and the preset verdicts.

Horizons are cut to where each verdict is already decided: serial_lti's
residuals are below 1e-6 by t = 40, and by t = 40 gps_fig3's compositional
residuals are below 1e-6 while the delayed baseline's exceed 10.
"""

import dataclasses
import re

import numpy as np
import pytest

from consensuslab.cli import main, write_trajectory_csv
from consensuslab.config import emit_scenario, parse_scenario, scenario_hash
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.metrics import row_disagreement
from consensuslab.presets import preset
from consensuslab.sim import Trajectory


def read_report(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def run_cli(*args):
    return main([*args, "--quiet"])


@pytest.fixture(scope="module")
def gps_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("gps")
    code = run_cli("--preset", "gps_fig3", "--t-end", "40",
                   "--compare", "compositional,conventional-delayed", "--out", str(out))
    return code, out


class TestExitCodes:
    def test_completed_run_writes_hashed_config(self, tmp_path):
        assert run_cli("--preset", "serial_lti", "--t-end", "40",
                       "--out", str(tmp_path)) == 0
        report = read_report(tmp_path / "report.txt")
        assert report["converged"] == "true"
        echo = (tmp_path / "config.echo").read_text()
        assert report["scenario_hash"] == scenario_hash(echo)
        assert echo == emit_scenario(parse_scenario(echo))

    def test_unknown_preset(self, tmp_path):
        assert run_cli("--preset", "no_such_preset", "--out", str(tmp_path)) == 1

    def test_horizon_off_the_step_grid(self, tmp_path):
        text = emit_scenario(preset("serial_lti")).replace(
            "dt = 0.001", "dt = 0.003").replace("t_end = 60.0", "t_end = 1.0")
        assert "dt = 0.003" in text and "t_end = 1.0" in text
        cfg = tmp_path / "off_grid.cfg"
        cfg.write_text(text)
        assert run_cli("--scenario", str(cfg), "--out", str(tmp_path / "out")) == 1

    def test_divergence_recorded(self, tmp_path):
        code = run_cli("--preset", "timevarying_fig1", "--controller", "conventional",
                       "--t-end", "140", "--out", str(tmp_path))
        assert code == 2
        report = read_report(tmp_path / "report.txt")
        assert report["converged"] == "false"
        assert 100.0 <= float(report["divergence_time"]) <= 140.0

    @pytest.mark.parametrize("controller", ["compositional", "conventional"])
    def test_blow_up_inside_a_stage_is_a_divergence(self, controller, tmp_path):
        # At scale 1e200 the first RK stage already overflows to inf.
        sc = preset("timevarying_fig1")
        sc = dataclasses.replace(sc, t_end=1.0, stages=tuple(
            dataclasses.replace(stage, scale=1e200) for stage in sc.stages))
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(emit_scenario(sc))
        assert run_cli("--scenario", str(cfg), "--controller", controller,
                       "--out", str(tmp_path / "out")) == 2
        report = read_report(tmp_path / "out" / "report.txt")
        assert float(report["divergence_time"]) == sc.dt

    def test_negative_seed_flag(self, tmp_path):
        assert run_cli("--preset", "serial_lti", "--seed", "-1", "--t-end", "1",
                       "--out", str(tmp_path)) == 1

    def test_negative_seed_in_config(self, tmp_path):
        text, count = re.subn(r"(?m)^seed = \d+$", "seed = -1",
                              emit_scenario(preset("serial_lti")))
        assert count == 1
        cfg = tmp_path / "negative_seed.cfg"
        cfg.write_text(text)
        assert run_cli("--scenario", str(cfg), "--t-end", "1",
                       "--out", str(tmp_path / "out")) == 1

    def test_delayed_relative_stage_without_edges(self, tmp_path):
        sc = dataclasses.replace(
            preset("counterexample_appD"), graph_kind="path", graph_n=1,
            graph_edges=None, x0=(0.0,), disturbance_vector=(1.0,), t_end=1.0)
        cfg = tmp_path / "lone_agent.cfg"
        cfg.write_text(emit_scenario(sc))
        assert run_cli("--scenario", str(cfg), "--out", str(tmp_path / "out")) == 0
        data = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
        # The lone agent integrates its unit input: x(t) = t.
        assert np.allclose(data[:, 1], data[:, 0], rtol=1e-12, atol=1e-12)

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("--preset", "serial_lti", "--t-end", "1",
                       "--out", str(blocker / "out")) == 3


class TestCompare:
    def test_rows_match_reports(self, gps_compare):
        code, out = gps_compare
        assert code == 0
        _, *rows = (out / "comparison.txt").read_text().splitlines()
        kinds = ["compositional", "conventional-delayed"]
        assert len(rows) == len(kinds)
        for kind, row in zip(kinds, rows):
            report = read_report(out / kind / "report.txt")
            cells = (kind, report["converged"], report["peak_disagreement"],
                     report["order0_residual"], report["order1_residual"],
                     report.get("divergence_time", "-"))
            assert row.split() == list(cells)


class TestTrajectoryCsv:
    def test_matches_per_value_format(self, tmp_path):
        n, rows = 3, 2500  # more rows than one formatting chunk
        rng = np.random.default_rng(5)
        states = rng.standard_normal((rows, 2 * n)) * 10.0 ** rng.integers(-300, 300, (rows, 2 * n))
        states[:7, 0] = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1]
        plant_x = rng.uniform(-1.0, 1.0, (rows, n))
        L = build_laplacian(path_graph(n))
        traj = Trajectory(np.arange(rows) * 1e-3, states, plant_x, states[:, n:],
                          meta={"n_agents": n, "laplacian": L, "d_ref": (0.0,) * n,
                                "route": "cascade", "order": 2})
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)

        derived = np.column_stack((row_disagreement(plant_x),
                                   np.abs(plant_x @ L.T).max(axis=1)))
        data = np.column_stack((traj.times, plant_x, states[:, n:], states, derived))
        lines = path.read_text().splitlines()
        assert len(lines) == rows + 1
        assert lines[1:] == [",".join(f"{v:.12g}" for v in row) for row in data]


class TestPresetVerdicts:
    def test_gps_compositional_converges_delayed_baseline_does_not(self, gps_compare):
        _, out = gps_compare
        assert read_report(out / "compositional" / "report.txt")["converged"] == "true"
        delayed = read_report(out / "conventional-delayed" / "report.txt")
        assert delayed["converged"] == "false"
        assert "divergence_time" not in delayed

    def test_appendix_d_drift_matches_closed_form(self, tmp_path):
        assert run_cli("--preset", "counterexample_appD", "--out", str(tmp_path)) == 0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        t, drift = data[:, 0], data[:, 1] - data[:, 2]
        assert t[-1] == 5.0
        # a = 1; the CSV's 12 significant digits bound the error near 5e-12.
        assert np.abs(drift - (t - 1.0 + np.exp(-t))).max() < 1e-9
