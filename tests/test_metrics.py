import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consensuslab

from consensuslab.cli import write_trajectory_csv
from consensuslab.exceptions import ConfigError, ConsensusLabError
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.metrics import (
    build_report,
    laplacian_seminorm,
    row_disagreement,
)
from consensuslab.sim import Trajectory

L2 = build_laplacian(path_graph(2))
L5 = build_laplacian(path_graph(5))


def make_traj(times, x, xdot=None, meta=None):
    """A record of positions x, or of plant states [x; xdot] whose plant map
    slices them."""
    times, x = np.asarray(times, float), np.asarray(x, float)
    if xdot is None:
        return Trajectory(times, x, meta=meta or {})
    n = x.shape[1]
    return Trajectory(times, np.hstack((x, np.asarray(xdot, float))), meta=meta or {},
                      plant=lambda s, t: (s[:, :n], s[:, n:]))


class TestSeminorms:
    def test_disagreement_vanishes_on_consensus(self):
        assert row_disagreement(np.full(7, 3.2)) == 0.0

    def test_disagreement_of_empty_vector_rejected(self):
        with pytest.raises(ConsensusLabError):
            row_disagreement([])

    def test_disagreement_symmetric_pair(self):
        assert row_disagreement([1.0, -1.0]) == 1.0

    def test_disagreement_hand_value(self):
        assert abs(row_disagreement([2.0, 0.0, 1.0]) - 1.0) < 1e-15

    def test_laplacian_seminorm_on_consensus(self):
        assert laplacian_seminorm(L5, np.full(5, -4.0)) < 1e-12

    def test_laplacian_seminorm_path_two(self):
        assert laplacian_seminorm(L2, [0.0, 1.0]) == 1.0

    def test_laplacian_seminorm_positive_off_consensus(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.normal(size=5)
            if np.abs(z - z.mean()).max() < 1e-8:
                continue
            assert laplacian_seminorm(L5, z) > 0.0

    def test_axioms_on_random_samples(self):
        rng = np.random.default_rng(1)
        n = 6
        z1 = rng.normal(size=(10_000, n))
        z2 = rng.normal(size=(10_000, n))
        a = rng.uniform(-5, 5, size=10_000)
        Ln = build_laplacian(path_graph(n))
        projections = (
            lambda Z: Z - Z.mean(axis=1, keepdims=True),
            lambda Z: Z @ Ln.T,
        )
        for proj in projections:
            semi = lambda Z: np.abs(proj(Z)).max(axis=1)
            s1, s2 = semi(z1), semi(z2)
            homog = semi(a[:, None] * z1) - np.abs(a) * s1
            assert np.abs(homog).max() < 1e-12
            triangle = semi(z1 + z2) - (s1 + s2)
            assert triangle.max() < 1e-12
            flat = np.tile(rng.normal(size=(50, 1)), (1, n))
            assert semi(flat).max() < 1e-12

    def test_disagreement_zero_iff_flat(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.normal(size=4)
            flat = z.max() - z.min() < 1e-12
            assert (row_disagreement(z) < 1e-12) == flat


class TestFlatTrajectory:
    """Every site that reports disagreement is exactly 0 on a flat trajectory."""

    @staticmethod
    def flat_traj():
        times = np.linspace(0.0, 1.0, 11)
        return make_traj(times, np.full((11, 7), 3.2))

    def test_peak_disagreement_exactly_zero(self):
        assert build_report(self.flat_traj()).peak_disagreement == 0.0

    def test_csv_disagreement_column_exactly_zero(self, tmp_path):
        traj = self.flat_traj()
        traj.meta.update(n_agents=7, laplacian=build_laplacian(path_graph(7)),
                         d_ref=np.zeros(7), route="plant", order=1)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj)
        assert all(float(row["disagreement"]) == 0.0 for row in rows)


class TestResiduals:
    def test_identical_agents_have_zero_residuals(self):
        times = np.linspace(0, 10, 101)
        x = np.tile(np.sin(times)[:, None], (1, 4))
        v = np.tile(np.cos(times)[:, None], (1, 4))
        res = build_report(make_traj(times, x, v)).order_residuals
        assert all(r == 0.0 for r in res)

    def test_offsets_enter_only_the_csv_positions(self, tmp_path):
        # Agents in consensus in simulation coordinates x - d_ref: the CSV's
        # x columns add the offsets, its seminorm columns and the report do
        # not.
        times = np.linspace(0, 1, 11)
        d_ref = np.array([0.0, -10.0, -20.0])
        x = np.tile(5.0 + np.sin(times)[:, None], (1, 3))
        traj = make_traj(times, x, np.zeros((11, 3)), meta={
            "d_ref": tuple(d_ref), "n_agents": 3, "laplacian": build_laplacian(path_graph(3)),
            "route": "plant", "order": 2})
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1:4] for row in rows] == [[f"{v:.12g}" for v in r] for r in x + d_ref]
        assert all(row[-2:] == ["0", "0"] for row in rows)
        report = build_report(traj, L=traj.meta["laplacian"])
        assert report.order_residuals == (0.0, 0.0)
        assert report.peak_disagreement == report.final_lap_seminorm == 0.0

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(np.array([]), np.zeros((0, 3)))
        with pytest.raises(ConsensusLabError):
            build_report(traj)

    def test_bad_tail_fraction_rejected(self):
        times = np.linspace(0, 1, 11)
        traj = make_traj(times, np.zeros((11, 2)))
        with pytest.raises(ConsensusLabError):
            build_report(traj, tail_fraction=0.0)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tolerance):
        traj = make_traj(np.linspace(0, 1, 11), np.zeros((11, 2)))
        with pytest.raises(ConfigError, match="tolerance"):
            build_report(traj, tolerance=tolerance)

    def test_second_order_residual_by_finite_difference(self):
        # agents share acceleration 2.0; one has a transient velocity offset
        times = np.linspace(0, 10, 1001)
        v = np.tile(2.0 * times[:, None], (1, 3))
        v[:, 2] += np.exp(-3 * times)
        x = np.cumsum(v, axis=0) * (times[1] - times[0])
        traj = make_traj(times, x, v, meta={"order": 3})
        res = build_report(traj, tail_fraction=0.1).order_residuals
        assert len(res) == 3
        assert res[2] < 1e-8


class TestRegimeEntry:
    def test_already_inside(self):
        times = np.linspace(0, 5, 51)
        x = np.tile([0.0, 0.2], (51, 1))
        assert build_report(make_traj(times, x), regime_band=1.0, L=L2).regime_entry == 0.0

    def test_entry_mid_run(self):
        times = np.linspace(0, 10, 101)
        gap = 3.0 * np.exp(-times)      # ||L x|| = gap, drops below 1 at ln 3
        x = np.column_stack((np.zeros(101), gap))
        t_star = build_report(make_traj(times, x), regime_band=1.0, L=L2).regime_entry
        assert abs(t_star - 1.1) < 0.11  # first grid point past ln 3 = 1.0986

    def test_never_inside(self):
        times = np.linspace(0, 5, 51)
        x = np.tile([0.0, 2.0], (51, 1))
        assert build_report(make_traj(times, x), regime_band=1.0, L=L2).regime_entry is None

    def test_band_validation(self):
        times = np.linspace(0, 5, 6)
        traj = make_traj(times, np.zeros((6, 2)))
        with pytest.raises(ConsensusLabError):
            build_report(traj, regime_band=0.0, L=L2)

    def test_band_without_laplacian_rejected(self):
        times = np.linspace(0, 5, 6)
        traj = make_traj(times, np.zeros((6, 2)))
        with pytest.raises(ConsensusLabError, match="regime band needs L"):
            build_report(traj, regime_band=1.0)


class TestReport:
    def test_converged_report(self):
        times = np.linspace(0, 10, 101)
        x = np.tile([1.0, 1.0], (101, 1))
        v = np.zeros((101, 2))
        report = build_report(make_traj(times, x, v), tolerance=1e-6)
        assert report.converged
        assert report.order_residuals == (0.0, 0.0)

    def test_divergence_blocks_convergence(self):
        times = np.linspace(0, 10, 101)
        x = np.tile([1.0, 1.0], (101, 1))
        traj = make_traj(times, x, meta={"divergence_time": 9.0})
        report = build_report(traj)
        assert not report.converged
        assert report.divergence_time == 9.0

    def test_one_walk_matches_whole_record_arithmetic(self):
        # 2,500 rows are three row blocks. The tail starts at row 1023 and
        # the order-4 differences reach back to row 1021, both in the first
        # block, so the block edge at row 1024 falls inside what they read.
        rng = np.random.default_rng(5)
        times = np.arange(2500) * 0.01
        decay = np.exp(-times / 10.0)[:, None]  # the band is left in the third block
        x, v = rng.normal(size=(2500, 3)) * decay, rng.normal(size=(2500, 3)) * decay
        traj = make_traj(times, x, v, meta={"order": 4})
        L3 = build_laplacian(path_graph(3))
        report = build_report(traj, tail_fraction=(24.99 - 10.23) / 24.99,
                              regime_band=0.5, L=L3)

        def spread(a):
            return (a.max(axis=1) - a.min(axis=1)).max()

        want, d = [spread(x[1023:]), spread(v[1023:])], v
        for k in (1, 2):
            d = (d[2:] - d[:-2]) / 0.02
            want.append(spread(d[1023 - k:]))
        assert report.order_residuals == tuple(want)
        assert report.peak_disagreement == row_disagreement(x).max()
        above = np.flatnonzero(np.abs(x @ L3.T).max(axis=1) >= 0.5)
        assert report.regime_entry == times[above[-1] + 1]

    def test_peak_disagreement(self):
        times = np.linspace(0, 1, 3)
        x = np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.5]])
        assert build_report(make_traj(times, x)).peak_disagreement == 1.0

    def test_final_lap_seminorm_reads_the_last_row(self):
        # 1,500 rows: the last row sits in a partial second row block.
        rng = np.random.default_rng(7)
        times = np.arange(1500) * 0.01
        x = rng.normal(size=(1500, 5))
        report = build_report(make_traj(times, x), L=L5)
        assert report.final_lap_seminorm == laplacian_seminorm(L5, x[-1])
        assert build_report(make_traj(times, x)).final_lap_seminorm is None


def test_package_import_loads_no_scipy():
    # The package depends on numpy alone: no module imports scipy.
    src = str(Path(consensuslab.__file__).resolve().parents[1])
    code = ("import sys, consensuslab; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
