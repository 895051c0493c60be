"""End-to-end CLI runs: exit codes, artifacts and the preset verdicts.

Horizons are cut to where each verdict is already decided: serial_lti's
residuals are below 1e-6 by t = 40, and by t = 40 gps_fig3's compositional
residuals are below 1e-6 while the delayed baseline's exceed 10. Against a
tolerance of 1e-3: by t = 50 saturated_fig2's compositional and
naive-serial residuals are below 1.2e-4 while the conventional one's exceed
10 (at t = 40 none has converged); by t = 190 timevarying_fig1's
compositional residuals are below 5e-5 while the naive-serial ones exceed
90 (at t = 170 neither has converged).
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from consensuslab.cli import main, write_gnuplot, write_trajectory_csv
from consensuslab.config import emit_scenario, parse_scenario, scenario_hash
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.metrics import build_report, row_disagreement
from consensuslab.presets import preset
from consensuslab import scenario
from consensuslab.scenario import StageSpec, simulate_scenario, validate_scenario
from consensuslab.sim import ROW_BLOCK, Trajectory


def peak_allocated(call):
    """Peak bytes that ``call()`` holds allocated at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_report(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def run_cli(*args):
    return main([*args, "--quiet"])


def with_stage(name, k, **fields):
    """Scenario changes that set ``fields`` on stage ``k`` (from 1) of
    preset ``name``."""
    stages = list(preset(name).stages)
    stages[k - 1] = dataclasses.replace(stages[k - 1], **fields)
    return {"stages": tuple(stages)}


def with_delay(name, delay, **changes):
    """Scenario changes that give preset ``name``'s outer stage the delay
    spec ``delay``."""
    return {**with_stage(name, preset(name).order, delay=delay), **changes}


THIRD_ORDER = {"order": 3, "stages": (StageSpec(kind="linear_static"),) * 3}


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

    @pytest.mark.parametrize("preset_name, changes, says", [
        ("counterexample_appD", {"graph_edges": ((2, 1, 1.0), (1, 1, 1.0))}, "self-loop"),
        ("counterexample_appD", {"graph_edges": ((3, 1, 1.0),)}, "out of range"),
        ("counterexample_appD", {"graph_edges": ((2, 1, -1.0),)}, "nonnegative"),
        ("counterexample_appD", {"graph_edges": ((2, 1),)}, "[i, j, w]"),
        ("counterexample_appD", {"graph_edges": ((2, 1, 1.0), (2, 1, 3.0))}, "more than once"),
        ("counterexample_appD", {"graph_edges": ((2.7, 1, 1.0),)}, "integer"),
        ("gps_fig3", {"stages": (StageSpec(kind="linear_static"), StageSpec(
            kind="delayed_absolute_velocity", gains=(0.0,) + (1.0,) * 9,
            ref="constant:10.0", delay="poisson:1.0"))}, "stage 2: gains"),
        ("gps_fig3", {"stages": (StageSpec(kind="linear_static"), StageSpec(
            kind="delayed_absolute_velocity", gains=(1.0,) * 10,
            ref="constant:nan", delay="poisson:1.0"))}, "stage 2: ref"),
        ("serial_lti", {"x0": (math.nan,) * 10}, "x0"),
        ("serial_lti", {"x0": (math.nan,) * 10, "controller": "conventional"}, "x0"),
        ("counterexample_appD", {"disturbance_vector": (math.nan, 1.0)}, "disturbance"),
        ("gps_fig3", with_delay("gps_fig3", "poisson:0"), "stage 2: "),
        ("gps_fig3", with_delay("gps_fig3", "poisson:0", controller="conventional-ideal"),
         "stage 2: "),
        ("counterexample_appD", with_delay("counterexample_appD", "ramp:0"), "stage 1: ramp"),
        ("counterexample_appD", with_delay("counterexample_appD", "constant:-1"),
         "stage 1: constant delay"),
        ("serial_lti", {"controller": "conventional-delayed"},
         "delayed_absolute_velocity outer stage"),
        ("serial_lti", THIRD_ORDER, "xi0 alone"),
        ("serial_lti", {**THIRD_ORDER, "xi0": (0.0,) * 30}, "xi0 alone"),
        ("serial_lti", {**THIRD_ORDER, "init_preset": None, "xi0": (0.0,) * 30,
                        "x0": (0.0,) * 10}, "xi0 alone"),
        ("serial_lti", {**THIRD_ORDER, "init_preset": None, "xi0": (0.0,) * 30,
                        "xdot0": (0.0,) * 10}, "xi0 alone"),
        ("serial_lti", with_stage("serial_lti", 1, delay="ramp:0"),
         "stage 1: linear_static does not read delay"),
        ("serial_lti", with_stage("serial_lti", 2, phi=(0.0,) * 10),
         "stage 2: linear_static does not read phi"),
        ("saturated_fig2", with_stage("saturated_fig2", 1, omega=(1.0,) * 20),
         "stage 1: saturated does not read omega"),
        ("gps_fig3", with_stage("gps_fig3", 1, gains=(1.0,) * 10),
         "stage 1: linear_static does not read gains"),
        ("counterexample_appD", with_stage("counterexample_appD", 1, ref="constant:1.0"),
         "stage 1: delayed_relative does not read ref"),
        ("serial_lti", {"controller": "conventional", "init_preset": None,
                        "xi0": (0.0,) * 20}, "does not read xi0"),
        ("serial_lti", {"xi0": (0.0,) * 20}, "xi0 alone"),
        ("serial_lti", {"init_preset": None, "x0": (0.0,) * 10, "xi0": (0.0,) * 20},
         "xi0 alone"),
        ("saturated_regime", {"xdot0": (0.0,) * 5}, "xdot0 is not read"),
        ("gps_fig3", with_stage("gps_fig3", 2, scale=5.0),
         "stage 2: delayed_absolute_velocity does not read scale"),
        ("serial_lti", {"disturbance_vector": (1.0,) * 10},
         "disturbance kind none does not read a vector"),
        ("serial_lti", {"disturbance_kind": "random", "disturbance_sup": 0.1,
                        "disturbance_vector": (1.0,) * 10},
         "disturbance kind random does not read a vector"),
        ("serial_lti", {"disturbance_sup": 3.0}, "disturbance kind none does not read sup"),
        ("counterexample_appD", {"disturbance_sup": 3.0},
         "disturbance kind constant does not read sup"),
        ("serial_lti", {"graph_edges": ((2, 1, 5.0), (3, 1, 1.0))},
         "graph kind 'path' does not read an edges list"),
        ("serial_lti", {"tolerance": math.inf}, "tolerance must be positive and finite"),
        ("gps_fig3", {"stages": (StageSpec(kind="linear_static"), StageSpec(
            kind="delayed_absolute_velocity", gains=(1.0,) * 10,
            ref="constant:inf", delay="poisson:1.0"))}, "stage 2: ref"),
        ("counterexample_appD", with_delay("counterexample_appD", "constant:inf"),
         "stage 1: constant delay"),
        ("counterexample_appD", with_delay("counterexample_appD", "ramp:inf"), "stage 1: ramp"),
        ("gps_fig3", with_delay("gps_fig3", "poisson:inf"), "stage 2: mean"),
        ("counterexample_appD", {"graph_kind": "path", "graph_n": 1, "graph_edges": None,
                                 "x0": (0.0,), "disturbance_vector": (1.0,),
                                 **with_delay("counterexample_appD", "poisson:inf")},
         "stage 1: mean"),
        ("serial_lti", {"x0": ((0.0,),) * 10}, "x0 must be a flat list"),
        ("serial_lti", {"xdot0": ((0.0,),) * 10}, "xdot0 must be a flat list"),
        ("serial_lti", {"d_ref": ((0.0,),) * 10}, "d_ref must be a flat list"),
        ("serial_lti", {"disturbance_kind": "constant", "disturbance_vector": ((1.0,),) * 10},
         "disturbance vector must be a flat list"),
        ("serial_lti", {"init_preset": None, "xi0": ((0.0,),) * 20}, "xi0 must be a flat list"),
        ("gps_fig3", with_delay("gps_fig3", "poisson:0.001"), "stage 2: poisson mean"),
        ("serial_lti", {"graph_n": 10**9}, "n in 1..1000, got 1000000000"),
        ("serial_lti", {**THIRD_ORDER, "controller": "conventional"},
         "conventional is second order only"),
    ], ids=["self-loop", "out-of-range", "negative-weight", "two-entry-edge",
            "repeated-edge", "fractional-index",
            "zero-gain", "nan-ref", "nan-x0-compositional", "nan-x0-conventional",
            "nan-disturbance",
            "zero-poisson-mean-compositional", "zero-poisson-mean-conventional-ideal",
            "zero-ramp-cap", "negative-constant-delay", "gps-baseline-on-lti",
            "order-3-preset", "order-3-preset-and-xi0", "order-3-x0-and-xi0",
            "order-3-xdot0-and-xi0",
            "delay-on-inner-stage", "phi-on-static-stage", "omega-on-saturated-stage",
            "gains-on-inner-stage", "ref-on-delayed-relative-stage",
            "xi0-under-baseline", "preset-beside-xi0", "x0-beside-xi0",
            "xdot0-at-order-1", "scale-on-velocity-stage", "vector-under-none",
            "vector-under-random", "sup-under-none", "sup-under-constant",
            "edges-under-path", "tolerance-inf", "inf-ref", "inf-constant-delay",
            "inf-ramp-cap", "inf-poisson-mean", "inf-poisson-mean-without-edges",
            "nested-x0", "nested-xdot0", "nested-d-ref", "nested-disturbance-vector",
            "nested-xi0", "poisson-mean-below-dt", "agent-count", "order-3-baseline"])
    def test_rejected_scenario_file(self, preset_name, changes, says, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(emit_scenario(dataclasses.replace(preset(preset_name), **changes)))
        assert run_cli("--scenario", str(cfg), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and says in err, err

    @pytest.mark.parametrize("args", [
        ["--preset", "serial_lti", "--dt", "abc"],
        ["--preset", "serial_lti", "--no-such-flag"],
        [],
        ["--preset", "serial_lti", "--scenario", "serial_lti.cfg"],
    ], ids=["bad-number", "unknown-flag", "no-source", "two-sources"])
    def test_argument_error(self, args, tmp_path, capsys):
        assert run_cli(*args, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: consensuslab") and "\nconfiguration error:" in err, err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: consensuslab")

    @pytest.mark.parametrize("make", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(emit_scenario(preset("serial_lti")).encode() + b"# \xff\n"),
    ], ids=["missing", "directory", "not-utf-8"])
    def test_unreadable_scenario_file(self, make, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        make(cfg)
        assert run_cli("--scenario", str(cfg), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read scenario file {cfg}: "), err

    def test_overrides_apply_before_validation(self, tmp_path, capsys):
        """The scenario that runs is the one validated: a horizon off the
        record grid is rejected, and the --t-end that puts it on the grid
        runs."""
        cfg = tmp_path / "off_grid.cfg"
        cfg.write_text(emit_scenario(dataclasses.replace(preset("serial_lti"), t_end=1.005)))
        assert run_cli("--scenario", str(cfg), "--out", str(tmp_path / "rejected")) == 1
        assert "record_every must divide" in capsys.readouterr().err
        assert not (tmp_path / "rejected").exists()
        assert run_cli("--scenario", str(cfg), "--t-end", "1.0",
                       "--out", str(tmp_path / "out")) == 0
        assert read_report(tmp_path / "out" / "report.txt")["t_end"] == "1"

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

    @pytest.mark.parametrize("preset_name, kinds, says", [
        ("serial_lti", "compositional,bogus", "unknown controller 'bogus'"),
        ("serial_lti", "compositional,compositional", "names a controller twice"),
        ("serial_lti", "compositional,conventional-delayed",
         "delayed_absolute_velocity outer stage"),
        ("serial_lti", "", "empty --compare list"),
        ("serial_lti", ",", "empty --compare list"),
    ], ids=["unknown", "repeated", "rejected-scenario", "empty", "only-commas"])
    def test_whole_list_checked_before_any_run(self, preset_name, kinds, says, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        assert run_cli("--preset", preset_name, "--t-end", "1", "--compare", kinds,
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and says in err, err
        assert not out.exists()


    def test_unwritable_comparison(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "comparison.txt").mkdir(parents=True)
        assert run_cli("--preset", "serial_lti", "--t-end", "1", "--compare", "compositional",
                       "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith("could not write outputs:")
        assert (out / "compositional" / "report.txt").exists()


class TestTrajectoryCsv:
    @staticmethod
    def check_format(route, tmp_path):
        n, rows = 3, 2 * ROW_BLOCK + 452  # two full row blocks and a partial one
        rng = np.random.default_rng(5)
        states = rng.standard_normal((rows, 2 * n)) * 10.0 ** rng.integers(-300, 300, (rows, 2 * n))
        states[:7, 0] = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1]
        d_ref = np.array([0.25, -1.5, 3.0])
        # Offset-free positions apart from the states' extreme values,
        # derived from each block's times.
        positions = lambda t: np.sin(np.outer(t, [700.0, 1300.0, 2900.0]))
        L = build_laplacian(path_graph(n))
        traj = Trajectory(np.arange(rows) * 1e-3, states,
                          meta={"n_agents": n, "laplacian": L, "d_ref": tuple(d_ref),
                                "route": route, "order": 2},
                          plant=lambda s, t: (positions(t), s[:, n:]))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        plant_x = positions(traj.times)

        # The seminorm columns by their whole-record formulas; the x columns
        # carry the offsets.
        derived = np.column_stack((row_disagreement(plant_x), np.abs(plant_x @ L.T).max(axis=1)))
        header = ([f"x_{i}" for i in range(1, n + 1)] + [f"xdot_{i}" for i in range(1, n + 1)])
        columns = [traj.times, plant_x + d_ref, states[:, n:]]
        if route == "cascade":
            header += [f"xi_{k}_{i}" for k in (1, 2) for i in range(1, n + 1)]
            columns.append(states)
        data = np.column_stack(columns + [derived])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(["t", *header, "disagreement", "lap_seminorm"])
        assert len(lines) == rows + 1
        assert lines[1:] == [",".join(f"{v:.12g}" for v in row) for row in data]

    def test_matches_per_value_format(self, tmp_path):
        """Both column layouts, a formation offset and a partial last row
        block: the seminorm columns, taken block by block, equal their
        whole-record formulas."""
        for route in ("cascade", "plant"):
            self.check_format(route, tmp_path)


class TestReportFile:
    def test_report_lines_match_the_csv(self, tmp_path):
        """gps_fig3 sets formation offsets: the report's peak disagreement and
        final Laplacian seminorm read the same offset-free positions as the
        CSV's seminorm columns."""
        assert run_cli("--preset", "gps_fig3", "--t-end", "2", "--out", str(tmp_path)) == 0
        report = read_report(tmp_path / "report.txt")
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        column = header.index("disagreement")
        peak = max(rows, key=lambda row: float(row[column]))[column]
        assert report["peak_disagreement"] == peak
        assert report["final_lap_seminorm"] == rows[-1][header.index("lap_seminorm")]

    def test_gnuplot_script(self, tmp_path):
        assert run_cli("--preset", "counterexample_appD", "--gnuplot",
                       "--out", str(tmp_path / "plot")) == 0
        script = (tmp_path / "plot" / "plot.gp").read_text()
        assert "set title 'counterexample_appD (compositional)'" in script
        n = preset("counterexample_appD").graph_n
        series = re.findall(r"using 1:(\d+) with lines title 'x_(\d+)'", script)
        assert series == [(str(i + 2), str(i + 1)) for i in range(n)]
        assert run_cli("--preset", "counterexample_appD", "--out", str(tmp_path / "bare")) == 0
        assert not (tmp_path / "bare" / "plot.gp").exists()

    def test_gnuplot_title_escapes_quotes(self, tmp_path):
        # gnuplot reads '' inside a single-quoted string as one quote; an
        # unescaped quote would end the string and let the name run code.
        write_gnuplot(dataclasses.replace(preset("serial_lti"), name="a'b"), tmp_path / "p.gp")
        lines = (tmp_path / "p.gp").read_text().splitlines()
        assert "set title 'a''b (compositional)'" in lines


class TestOutputMemory:
    """The output stage takes the record one row block at a time, so beyond
    its inputs it allocates about one block, not a copy of the record. An
    order-2 plant-route record with many rows and two agents makes a
    whole-record copy stand out while it formats few values per row:
    tracemalloc slows the CSV formatting about twentyfold, which sets the
    row count."""

    @pytest.fixture(scope="class")
    def record(self):
        n, rows = 2, 48_001
        rng = np.random.default_rng(11)
        states = rng.uniform(-1.0, 1.0, (rows, 2 * n))
        return Trajectory(np.arange(rows) * 1e-3, states,
                          meta={"n_agents": n, "laplacian": build_laplacian(path_graph(n)),
                                "d_ref": (0.5, -0.5), "route": "plant", "order": 2},
                          plant=lambda s, t: (s[:, :n], s[:, n:]))

    def test_csv_writer(self, record, tmp_path):
        peak = peak_allocated(lambda: write_trajectory_csv(record, tmp_path / "t.csv"))
        assert peak < record.states.nbytes / 2

    def test_report(self, record):
        L = record.meta["laplacian"]
        peak = peak_allocated(lambda: build_report(record, regime_band=1.0, L=L))
        assert peak < record.states.nbytes / 2


class TestScenarioLaplacian:
    """A scenario builds its graph's Laplacian once, read-only, and every
    unit-scale Laplacian stage and the record hold that one array. At
    N = 1000 an N x N matrix is 7.6 MiB, so a validated scenario that kept
    the graph's weights or a second Laplacian beside it would hold twice
    that. A first validation at N = 2 pays the lazy imports."""

    def test_validation_holds_one_matrix(self):
        sc = dataclasses.replace(preset("serial_lti"), graph_n=1000)
        validate_scenario(dataclasses.replace(sc, graph_n=2))
        tracemalloc.start()
        try:
            built = validate_scenario(sc)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built[0].nbytes == 8 * 1000**2
        assert held < 10 * 2**20
        assert peak < 24 * 2**20

    def test_record_shares_the_stage_laplacian(self, monkeypatch):
        built, laplacians = [], []
        validate, build_laplacian = scenario.validate_scenario, scenario.graphs.build_laplacian
        monkeypatch.setattr(scenario, "validate_scenario",
                            lambda sc: built.append(validate(sc)) or built[-1])
        monkeypatch.setattr(scenario.graphs, "build_laplacian",
                            lambda g: laplacians.append(build_laplacian(g)) or laplacians[-1])
        sc = preset("serial_lti")
        outer = dataclasses.replace(sc.stages[1], scale=2.0)
        traj = simulate_scenario(dataclasses.replace(sc, stages=(sc.stages[0], outer),
                                                     t_end=sc.dt * sc.record_every))
        L, system = built[0][:2]
        assert len(laplacians) == 1 and laplacians[0] is L
        assert traj.meta["laplacian"] is L and not L.flags.writeable
        assert system.stages[0].L is L
        assert np.array_equal(system.stages[1].L, 2.0 * L)


def test_delayed_run_keeps_history_back_to_its_delay_bound():
    """gps_fig3 conventional-delayed reads the history back to its largest
    Poisson gap, 6.79 s: 1,701 rows of the 20-column plant state, 0.27 MB,
    where the whole 60 s grid would be 15,001 rows, 2.4 MB. A short run
    first pays the lazy imports."""
    sc = dataclasses.replace(preset("gps_fig3"), controller="conventional-delayed")
    simulate_scenario(dataclasses.replace(sc, t_end=sc.dt * sc.record_every))
    assert peak_allocated(lambda: simulate_scenario(sc)) < 2**20


@pytest.mark.parametrize("controller", ["compositional", "conventional"])
def test_simulation_stores_no_plant_copy(controller):
    """A run holds its record and no whole-record copy of the plant states
    beside it: they are derived per row block where they are read. The
    record of serial_lti kept at every step is large next to the history-free
    run's other allocations."""
    sc = dataclasses.replace(preset("serial_lti"), controller=controller,
                             t_end=5.0, record_every=1)
    simulate_scenario(dataclasses.replace(sc, t_end=sc.dt))  # a first run's lazy imports
    runs = []
    peak = peak_allocated(lambda: runs.append(simulate_scenario(sc)))
    assert peak < 1.5 * runs[0].states.nbytes


class TestPresetVerdicts:
    def test_gps_compositional_converges_delayed_baseline_does_not(self, gps_compare):
        _, out = gps_compare
        assert read_report(out / "compositional" / "report.txt")["converged"] == "true"
        delayed = read_report(out / "conventional-delayed" / "report.txt")
        assert delayed["converged"] == "false"
        assert "divergence_time" not in delayed

    @pytest.mark.parametrize("name, t_end, verdicts", [
        ("saturated_fig2", "50",
         {"compositional": "true", "conventional": "false", "naive-serial": "true"}),
        ("timevarying_fig1", "190", {"compositional": "true", "naive-serial": "false"}),
        ("saturated_fig2", "80",  # the full horizon
         {"compositional": "true", "conventional": "false", "naive-serial": "true"}),
    ])
    def test_baseline_verdicts(self, name, t_end, verdicts, tmp_path):
        assert run_cli("--preset", name, "--t-end", t_end, "--out", str(tmp_path),
                       "--compare", ",".join(verdicts)) == 0
        for kind, converged in verdicts.items():
            report = read_report(tmp_path / kind / "report.txt")
            assert report["converged"] == converged, kind
            assert "divergence_time" not in report, kind

    def test_saturated_regime_enters_the_band_and_converges(self, tmp_path):
        assert run_cli("--preset", "saturated_regime", "--out", str(tmp_path)) == 0
        report = read_report(tmp_path / "report.txt")
        assert report["converged"] == "true"
        assert report["regime_entry_time"] == "4.04"
        assert "divergence_time" not in report

    def test_appendix_d_drift_matches_closed_form(self, tmp_path):
        assert run_cli("--preset", "counterexample_appD", "--out", str(tmp_path)) == 0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        t, drift = data[:, 0], data[:, 1] - data[:, 2]
        assert t[-1] == 5.0
        # a = 1; the CSV's 12 significant digits bound the error near 5e-12.
        assert np.abs(drift - (t - 1.0 + np.exp(-t))).max() < 1e-9
