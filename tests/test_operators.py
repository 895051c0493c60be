import warnings

import numpy as np
import pytest

from consensuslab.exceptions import (
    InsufficientHistoryError,
    NumericError,
    OperatorError,
)
from consensuslab.graphs import build_laplacian, graph_from_edges, path_graph
from consensuslab.operators import (
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from consensuslab.sim import ConstantDelay, PoissonSampledDelay, RampDelay

from history_views import FunctionView

L2 = build_laplacian(path_graph(2))
L3 = build_laplacian(path_graph(3))


def constant_history(z):
    return FunctionView(lambda s: z)


class TestEvaluate:
    def test_linear_static(self):
        op = LinearStatic(L2)
        assert np.array_equal(op.evaluate(np.array([0.0, 1.0]), 0.0), [0.0, 1.0])

    def test_saturated_clamps(self):
        op = Saturated(L2)
        assert np.array_equal(op.evaluate(np.array([0.0, 5.0]), 0.0), [0.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = op.evaluate(rng.uniform(-20, 20, 2), 0.0)
            assert (np.abs(out) <= 1.0).all()

    def test_time_varying_gate_values(self):
        op = LinearTimeVarying(L2, omega=[1.0, 1.0], phi=[0.0, 0.0])
        z = np.array([0.0, 1.0])
        assert np.allclose(op.evaluate(z, np.pi / 2), L2 @ z)
        assert np.allclose(op.evaluate(z, np.pi), 0.0)

    def test_gates_bounded_and_continuous(self):
        rng = np.random.default_rng(1)
        op = LinearTimeVarying(L3, omega=rng.uniform(0.5, 2, 3),
                               phi=rng.uniform(0, 2 * np.pi, 3))
        ts = np.linspace(0, 20, 4001)
        gates = np.array([op.gates(t) for t in ts])
        assert gates.min() >= 0.0 and gates.max() <= 1.0
        assert np.abs(np.diff(gates, axis=0)).max() < 2.5 * (ts[1] - ts[0])

    def test_gate_memo_returns_equal_read_only_arrays(self):
        op = LinearTimeVarying(L3, omega=[1.0, 2.0, -3.0], phi=[0.1, 0.2, 0.3])
        first = op.gates(0.7)
        assert np.array_equal(first, np.maximum(np.sin(op.omega * 0.7 + op.phi), 0.0))
        later = op.gates(1.1)
        assert np.array_equal(later, np.maximum(np.sin(op.omega * 1.1 + op.phi), 0.0))
        assert np.array_equal(op.gates(0.7), first)

    def test_zero_d_time_is_a_scalar_time(self):
        op = LinearTimeVarying(L3, omega=[1.0, 2.0, -3.0], phi=[0.1, 0.2, 0.3])
        z, zdot = np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.0, -1.0])
        at = np.array(0.5)
        assert np.array_equal(op.gates(at), op.gates(0.5))
        assert np.array_equal(op.evaluate(z, at), op.evaluate(z, 0.5))
        assert np.array_equal(op.gate_rates(at), op.gate_rates(0.5))
        assert np.array_equal(op.ae_derivative(z, zdot, at), op.ae_derivative(z, zdot, 0.5))
        at[...] = 2.0  # a gate vector keeps no reference to its time array
        assert np.array_equal(op.gates(0.5), np.maximum(np.sin(op.omega * 0.5 + op.phi), 0.0))

    def test_gate_blocks_are_their_rows(self):
        """An (m,) array of times gives (m, N) gates and gate rates whose
        row r is the scalar call at t[r], bit for bit."""
        rng = np.random.default_rng(8)
        op = LinearTimeVarying(L3, omega=rng.uniform(-3.0, 3.0, 3),
                               phi=rng.uniform(0.0, 6.0, 3))
        ts = rng.uniform(0.0, 40.0, 257)
        for block, scalar in ((op.gates(ts), op.gates), (op.gate_rates(ts), op.gate_rates)):
            assert block.shape == (257, 3)
            assert all(np.array_equal(block[r], scalar(t)) for r, t in enumerate(ts))

    @pytest.mark.parametrize("make", [
        lambda: LinearStatic(L3),
        lambda: LinearTimeVarying(L3, omega=[0.7, 1.3, 1.9], phi=[0.3, 2.0, 4.0]),
        lambda: Saturated(L3),
    ])
    def test_ae_derivative_of_a_block_is_its_rows(self, make):
        op = make()
        rng = np.random.default_rng(9)
        z, zdot = rng.uniform(-2.0, 2.0, (5, 3)), rng.uniform(-1.0, 1.0, (5, 3))
        ts = rng.uniform(0.0, 10.0, 5)
        block = op.ae_derivative(z, zdot, ts)
        rows = np.array([op.ae_derivative(z[r], zdot[r], ts[r]) for r in range(5)])
        assert block.shape == (5, 3)
        # z L^T may sum a row in another order than L z.
        assert np.abs(block - rows).max() <= 1e-14 * max(1.0, np.abs(rows).max())

    def test_delayed_relative_zero_delay_matches_static(self):
        w = path_graph(4).weights
        op = DelayedRelative(w, ConstantDelay(0.0))
        static = LinearStatic(build_laplacian(path_graph(4)))
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.uniform(-5, 5, 4)
            delayed = op.evaluate(z, 1.0, constant_history(z))
            assert np.abs(delayed - static.evaluate(z, 1.0)).max() < 1e-13

    def test_delayed_relative_reads_history(self):
        w = path_graph(2).weights
        op = DelayedRelative(w, ConstantDelay(1.0))
        hist = FunctionView(lambda s: np.array([s, 0.0]))  # leader trajectory z0(s) = s
        out = op.evaluate(np.array([3.0, 7.0]), 3.0, hist)
        # component 1: z1(3) - z0(3 - 1) = 7 - 2
        assert np.allclose(out, [0.0, 5.0])

    def test_delayed_relative_without_edges_is_zero(self):
        op = DelayedRelative(np.zeros((3, 3)), ConstantDelay(1.0))
        out = op.evaluate(np.array([1.0, -2.0, 3.0]), 2.0, constant_history(np.ones(3)))
        assert np.array_equal(out, np.zeros(3))
        # It reads nothing, so it needs no history either.
        assert np.array_equal(op.evaluate(np.array([1.0, -2.0, 3.0]), 2.0, None), np.zeros(3))

    def test_delayed_relative_poisson_edges_read_last_arrival(self):
        w = np.array([[0.0, 2.0, 0.0], [0.5, 0.0, 1.0], [0.0, 3.0, 0.0]])
        arrivals = {(0, 1): [0.5, 1.5], (1, 0): [], (1, 2): [1.25], (2, 1): [0.75]}
        delays = {e: PoissonSampledDelay(a, 10.0) for e, a in arrivals.items()}
        op = DelayedRelative(w, delays)
        assert op.tau_max == 10.0  # edge (1, 0) receives nothing on [0, 10]
        hist = FunctionView(lambda s: np.array([s, 10.0 * s, 100.0 * s]))
        z = np.array([1.0, 2.0, 3.0])
        out = op.evaluate(z, 1.4, hist)
        # Last arrivals at t = 1.4: 0.5, none (reads t = 0), 1.25 and 0.75.
        want = [2.0 * (1.0 - 5.0), 0.5 * (2.0 - 0.0) + 1.0 * (2.0 - 125.0),
                3.0 * (3.0 - 7.5)]
        assert np.allclose(out, want, rtol=1e-15)

    def test_numeric_reference(self):
        op = DelayedAbsoluteVelocity([2.0, 0.5], 10.0)
        assert getattr(op, "tau_max", None) is None
        assert np.array_equal(op.evaluate(np.array([11.0, 9.0]), 3.0), [2.0, -0.5])
        with pytest.raises(OperatorError):
            DelayedAbsoluteVelocity([1.0, 1.0], "ten")
        with pytest.raises(OperatorError):
            DelayedAbsoluteVelocity([1.0, 1.0], lambda s: 10.0)

    def test_missing_history_raises(self):
        op = DelayedRelative(path_graph(2).weights, ConstantDelay(0.1))
        with pytest.raises(InsufficientHistoryError):
            op.evaluate(np.zeros(2), 0.0, None)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            LinearStatic(L2).evaluate(np.array([np.nan, 0.0]), 0.0)
        with pytest.raises(NumericError):
            Saturated(L2).evaluate(np.array([np.inf, 0.0]), 0.0)

    @pytest.mark.parametrize("z", [np.array([1e308, 1e308]), [1e308, 1e308],
                                   np.array([[1e308, 1e308], [-1e308, -1e308]])])
    def test_finite_input_whose_sum_overflows_is_accepted(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = LinearStatic(L2).evaluate(z, np.zeros(2) if np.ndim(z) == 2 else 0.0)
        assert np.array_equal(out, np.zeros(np.shape(z)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_beside_an_overflowing_sum_raises(self, bad):
        for z in (np.array([1e308, 1e308, bad]), [1e308, 1e308, bad]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError):
                    LinearStatic(L3).evaluate(z, 0.0)


class TestAeDerivative:
    def test_linear_static_zero_rate(self):
        assert np.array_equal(
            LinearStatic(L3).ae_derivative(np.ones(3), np.zeros(3), 0.0),
            np.zeros(3),
        )

    def test_saturated_indicator_kills_saturated_rows(self):
        op = Saturated(L2)
        z = np.array([0.0, 2.0])          # (L z)_1 = 2, saturated
        zdot = np.array([1.0, -1.0])
        out = op.ae_derivative(z, zdot, 0.0)
        assert out[1] == 0.0

    def test_saturated_boundary_counts_as_outside(self):
        op = Saturated(L2)
        z = np.array([0.0, 1.0])          # (L z)_1 = 1 exactly
        out = op.ae_derivative(z, np.array([0.0, 1.0]), 0.0)
        assert out[1] == 0.0

    def test_time_varying_vanishes_on_closed_gate(self):
        op = LinearTimeVarying(L2, omega=[1.0, 1.0], phi=[0.0, 0.0])
        z = np.array([1.0, -1.0])
        out = op.ae_derivative(z, z, 1.5 * np.pi)  # sin < 0 on both gates
        assert np.array_equal(out, np.zeros(2))

    def test_delayed_kinds_unsupported(self):
        op = DelayedRelative(path_graph(2).weights, ConstantDelay(0.0))
        with pytest.raises(OperatorError):
            op.ae_derivative(np.zeros(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("make", [
        lambda: LinearStatic(L3),
        lambda: LinearTimeVarying(L3, omega=[0.7, 1.3, 1.9], phi=[0.3, 2.0, 4.0]),
        lambda: Saturated(L3),
    ])
    def test_matches_finite_difference(self, make):
        op = make()
        rng = np.random.default_rng(4)
        h = 1e-5
        checked = 0
        while checked < 30:
            z0 = rng.uniform(-2, 2, 3)
            z1 = rng.uniform(-1, 1, 3)
            t = rng.uniform(0.5, 9.5)
            z = lambda s: z0 + s * z1
            if isinstance(op, Saturated):
                if np.min(np.abs(np.abs(op.L @ z(t)) - 1.0)) < 1e-3:
                    continue
            if isinstance(op, LinearTimeVarying):
                if np.min(np.abs(np.sin(op.omega * t + op.phi))) < 1e-3:
                    continue
            fd = (op.evaluate(z(t + h), t + h) - op.evaluate(z(t - h), t - h)) / (2 * h)
            ae = op.ae_derivative(z(t), z1, t)
            assert np.abs(fd - ae).max() < 1e-5
            checked += 1


class TestRelativeInvariance:
    """Adding a * 1 to every agent leaves an inner kind's output as it was
    (on random digraphs: tests/test_properties.py::
    test_inner_kinds_are_translation_invariant). The delayed kinds are not
    invariant: adding the ramp a * s to every agent's history changes their
    output."""

    @staticmethod
    def constant_shift(op, seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            z = rng.uniform(-5.0, 5.0, op.n)
            t, a = rng.uniform(0.0, 10.0), rng.uniform(-10.0, 10.0)
            worst = max(worst, np.abs(op.evaluate(z + a, t) - op.evaluate(z, t)).max())
        return worst

    def test_linear_static_invariant(self):
        assert self.constant_shift(LinearStatic(L3), seed=0) < 1e-12

    def test_saturated_invariant(self):
        assert self.constant_shift(Saturated(L3), seed=1) < 1e-12

    def test_time_varying_invariant(self):
        op = LinearTimeVarying(L3, omega=[1.0, 2.0, 0.5], phi=[0.0, 1.0, 2.0])
        assert self.constant_shift(op, seed=2) < 1e-12

    @staticmethod
    def ramp_shift(op, z, t, a):
        base = op.evaluate(z, t, FunctionView(lambda s: z))
        shifted = op.evaluate(z + a * t, t, FunctionView(lambda s: z + a * s))
        return np.abs(shifted - base).max()

    def test_delayed_relative_ramp_breaks_invariance(self):
        op = DelayedRelative(path_graph(3).weights, RampDelay(5.0))
        assert self.ramp_shift(op, np.array([0.5, -1.0, 2.0]), 3.0, 2.0) > 1e-3

    def test_delayed_absolute_velocity_breaks_invariance(self):
        op = DelayedAbsoluteVelocity([1.0, 1.0], 0.0)
        assert self.ramp_shift(op, np.array([0.5, -1.0]), 3.0, 2.0) > 1e-3


class TestConstruction:
    def test_rejects_non_laplacian(self):
        with pytest.raises(OperatorError):
            LinearStatic(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_row_sum_tolerance_scales_with_the_row(self):
        # Rounding leaves this row about 2e-12 off zero at scale 1000.
        L = 1000.0 * build_laplacian(graph_from_edges(3, [(1, 2, 0.1), (1, 3, 9.7)]))
        assert LinearStatic(L).n == 3
        off = L.copy()
        off[0, 0] += 1e-6 * np.abs(L[0]).sum()
        with pytest.raises(OperatorError):
            LinearStatic(off)

    def test_rejects_zero_frequency(self):
        with pytest.raises(OperatorError):
            LinearTimeVarying(L2, omega=[0.0, 1.0], phi=[0.0, 0.0])

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(OperatorError):
            DelayedAbsoluteVelocity([1.0, 0.0], 0.0)

    def test_delayed_relative_needs_all_edge_delays(self):
        w = path_graph(3).weights
        with pytest.raises(OperatorError):
            DelayedRelative(w, {(1, 0): ConstantDelay(0.0)})

    def test_delayed_relative_rejects_delays_for_non_edges(self):
        w = path_graph(3).weights
        delays = {(1, 0): ConstantDelay(0.5), (2, 1): ConstantDelay(0.5),
                  (0, 2): ConstantDelay(9.0)}
        with pytest.raises(OperatorError, match=r"\(0, 2\)"):
            DelayedRelative(w, delays)
        del delays[(0, 2)]
        assert DelayedRelative(w, delays).tau_max == 0.5

    def test_delayed_relative_derives_its_bound(self):
        w = path_graph(3).weights
        assert DelayedRelative(w, RampDelay(5.0)).tau_max == 5.0
        delays = {(1, 0): RampDelay(2.0), (2, 1): ConstantDelay(1.5)}
        assert DelayedRelative(w, delays).tau_max == 2.0
        with pytest.raises(OperatorError, match="PoissonSampledDelay"):
            DelayedRelative(w, lambda t: 0.5)
