import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consensuslab

from consensuslab.cli import write_trajectory_csv
from consensuslab.exceptions import ConsensusLabError
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.metrics import (
    build_report,
    check_iss_bound,
    common_root_over_windows,
    disagreement_seminorm,
    fit_iss_constants,
    integrated_connectivity,
    laplacian_seminorm,
    nth_order_residuals,
    peak_disagreement,
    regime_entry_time,
)
from consensuslab.operators import LinearTimeVarying
from consensuslab.sim import IntegratorConfig, Trajectory, integrate

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
        assert disagreement_seminorm(np.full(7, 3.2)) == 0.0

    def test_disagreement_of_empty_vector_rejected(self):
        with pytest.raises(ConsensusLabError):
            disagreement_seminorm([])

    def test_disagreement_symmetric_pair(self):
        assert disagreement_seminorm([1.0, -1.0]) == 1.0

    def test_disagreement_hand_value(self):
        assert abs(disagreement_seminorm([2.0, 0.0, 1.0]) - 1.0) < 1e-15

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
            assert (disagreement_seminorm(z) < 1e-12) == flat


class TestFlatTrajectory:
    """Every site that reports disagreement is exactly 0 on a flat trajectory."""

    @staticmethod
    def flat_traj():
        times = np.linspace(0.0, 1.0, 11)
        return make_traj(times, np.full((11, 7), 3.2))

    def test_peak_disagreement_exactly_zero(self):
        assert peak_disagreement(self.flat_traj()) == 0.0

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
        res = nth_order_residuals(make_traj(times, x, v))
        assert all(r == 0.0 for r in res)

    def test_offsets_removed_at_order_zero(self):
        times = np.linspace(0, 1, 11)
        d_ref = np.array([0.0, -10.0, -20.0])
        x = np.tile(d_ref, (11, 1)) + 5.0
        res = nth_order_residuals(make_traj(times, x, meta={"d_ref": tuple(d_ref)}))
        assert res[0] == 0.0

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(np.array([]), np.zeros((0, 3)))
        with pytest.raises(ConsensusLabError):
            nth_order_residuals(traj)

    def test_bad_tail_fraction_rejected(self):
        times = np.linspace(0, 1, 11)
        traj = make_traj(times, np.zeros((11, 2)))
        with pytest.raises(ConsensusLabError):
            nth_order_residuals(traj, tail_fraction=0.0)

    def test_second_order_residual_by_finite_difference(self):
        # agents share acceleration 2.0; one has a transient velocity offset
        times = np.linspace(0, 10, 1001)
        v = np.tile(2.0 * times[:, None], (1, 3))
        v[:, 2] += np.exp(-3 * times)
        x = np.cumsum(v, axis=0) * (times[1] - times[0])
        traj = make_traj(times, x, v, meta={"order": 3})
        res = nth_order_residuals(traj, tail_fraction=0.1)
        assert len(res) == 3
        assert res[2] < 1e-8


class TestIssBound:
    def setup_method(self):
        self.cfg = IntegratorConfig(dt=1e-3, t_end=10.0, record_every=10)

    def run_linear(self, L, z0, w):
        return integrate(lambda z, t, h: -(L @ z) + w, np.asarray(z0, float), self.cfg)

    def test_two_agent_decay_matches_exponential(self):
        traj = self.run_linear(L2, [0.0, 1.0], np.zeros(2))
        e = np.abs(traj.states @ L2.T).max(axis=1)
        assert np.abs(e - np.exp(-traj.times) * e[0]).max() < 1e-6

    def test_fitted_bound_passes_unforced(self):
        M, alpha = fit_iss_constants(L2, horizon=10.0)
        traj = self.run_linear(L2, [0.0, 1.0], np.zeros(2))
        for T0 in (0.0, 0.5, 2.0, 5.0, 8.0):
            ok, margin = check_iss_bound(traj, L2, M, alpha, 0.0, T0=T0)
            assert ok and margin >= 0.0

    def test_fitted_bound_passes_with_constant_input(self):
        M, alpha = fit_iss_constants(L2, horizon=10.0)
        traj = self.run_linear(L2, [0.0, 1.0], np.array([0.0, 0.1]))
        ok, margin = check_iss_bound(traj, L2, M, alpha, 0.1, T0=0.0)
        assert ok and margin >= 0.0

    def test_unit_m_is_not_enough_with_moore_penrose(self):
        # ||L+|| = 1/2 while the decay is exactly e^{-t}||Lz0||: M = 1 fails.
        traj = self.run_linear(L2, [0.0, 1.0], np.zeros(2))
        ok, margin = check_iss_bound(traj, L2, 1.0, 1.0, 0.0, T0=0.0)
        assert not ok and margin < 0.0

    def test_path_five_fitted_bound(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, 5)
        w[0] = 0.0
        w = 0.1 * w / w.max()
        cfg = IntegratorConfig(dt=1e-3, t_end=20.0, record_every=10)
        traj = integrate(lambda z, t, h: -(L5 @ z) + w,
                         rng.uniform(-1, 1, 5), cfg)
        M, alpha = fit_iss_constants(L5, horizon=20.0)
        ok, margin = check_iss_bound(traj, L5, M, alpha, 0.1, T0=0.0)
        assert ok and margin >= 0.0

    def test_invalid_constants_rejected(self):
        traj = self.run_linear(L2, [0.0, 1.0], np.zeros(2))
        with pytest.raises(ValueError):
            check_iss_bound(traj, L2, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            check_iss_bound(traj, L2, 1.0, 0.0, 0.0)


class TestRegimeEntry:
    def test_already_inside(self):
        times = np.linspace(0, 5, 51)
        x = np.tile([0.0, 0.2], (51, 1))
        assert regime_entry_time(make_traj(times, x), L2, 1.0) == 0.0

    def test_entry_mid_run(self):
        times = np.linspace(0, 10, 101)
        gap = 3.0 * np.exp(-times)      # ||L x|| = gap, drops below 1 at ln 3
        x = np.column_stack((np.zeros(101), gap))
        t_star = regime_entry_time(make_traj(times, x), L2, 1.0)
        assert abs(t_star - 1.1) < 0.11  # first grid point past ln 3 = 1.0986

    def test_never_inside(self):
        times = np.linspace(0, 5, 51)
        x = np.tile([0.0, 2.0], (51, 1))
        assert regime_entry_time(make_traj(times, x), L2, 1.0) is None

    def test_band_validation(self):
        times = np.linspace(0, 5, 6)
        traj = make_traj(times, np.zeros((6, 2)))
        with pytest.raises(ConsensusLabError):
            regime_entry_time(traj, L2, 0.0)


class TestIntegratedConnectivity:
    def test_static_spanning_tree_always_connected(self):
        gates = lambda t: np.ones(5)
        reports = integrated_connectivity(gates, L5, window=2.0,
                                          t_starts=np.linspace(0, 10, 6))
        assert all(r.has_spanning_tree for r in reports)
        assert common_root_over_windows(reports) == 0

    def test_sinusoid_gates_connected_over_full_period(self):
        rng = np.random.default_rng(3)
        omega = rng.uniform(0.5, 2.0, 5)
        phi = rng.uniform(0, 2 * np.pi, 5)
        window = 2 * np.pi / omega.min()
        reports = integrated_connectivity(
            LinearTimeVarying(L5, omega, phi).gates, L5, window,
            t_starts=np.linspace(0, 30, 8),
        )
        assert all(r.has_spanning_tree for r in reports)
        assert common_root_over_windows(reports) is not None

    def test_dead_gates_disconnect(self):
        gates = lambda t: np.zeros(5)
        reports = integrated_connectivity(gates, L5, window=2.0, t_starts=[0.0])
        assert not reports[0].has_spanning_tree


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

    def test_peak_disagreement(self):
        times = np.linspace(0, 1, 3)
        x = np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.5]])
        assert peak_disagreement(make_traj(times, x)) == 1.0


def test_package_import_loads_no_scipy():
    # scipy.linalg is imported by fit_iss_constants only; the CLI never fits.
    src = str(Path(consensuslab.__file__).resolve().parents[1])
    code = ("import sys, consensuslab; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
