import numpy as np
import pytest

from consensuslab.exceptions import (
    InsufficientHistoryError,
    NumericError,
    OperatorError,
)
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.operators import (
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
    check_relative_invariance,
    estimate_lipschitz,
)
from consensuslab.sim import FunctionView, PoissonSampledDelay

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
        again = op.gates(0.7)
        assert np.array_equal(first, again)
        assert not first.flags.writeable and not again.flags.writeable
        with pytest.raises(ValueError):
            first *= 2.0
        later = op.gates(1.1)
        assert np.array_equal(later, np.maximum(np.sin(op.omega * 1.1 + op.phi), 0.0))
        assert np.array_equal(op.gates(0.7), first)

    def test_delayed_relative_zero_delay_matches_static(self):
        w = path_graph(4).weights
        op = DelayedRelative(w, lambda t: 0.0, tau_max=0.0)
        static = LinearStatic(build_laplacian(path_graph(4)))
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.uniform(-5, 5, 4)
            delayed = op.evaluate(z, 1.0, constant_history(z))
            assert np.abs(delayed - static.evaluate(z, 1.0)).max() < 1e-13

    def test_delayed_relative_reads_history(self):
        w = path_graph(2).weights
        op = DelayedRelative(w, lambda t: 1.0, tau_max=1.0)
        hist = FunctionView(lambda s: np.array([s, 0.0]))  # leader trajectory z0(s) = s
        out = op.evaluate(np.array([3.0, 7.0]), 3.0, hist)
        # component 1: z1(3) - z0(3 - 1) = 7 - 2
        assert np.allclose(out, [0.0, 5.0])

    def test_delayed_relative_without_edges_is_zero(self):
        op = DelayedRelative(np.zeros((3, 3)), lambda t: 1.0, tau_max=1.0)
        out = op.evaluate(np.array([1.0, -2.0, 3.0]), 2.0, constant_history(np.ones(3)))
        assert np.array_equal(out, np.zeros(3))

    def test_delayed_relative_poisson_edges_read_last_arrival(self):
        w = np.array([[0.0, 2.0, 0.0], [0.5, 0.0, 1.0], [0.0, 3.0, 0.0]])
        arrivals = {(0, 1): [0.5, 1.5], (1, 0): [], (1, 2): [1.25], (2, 1): [0.75]}
        delays = {e: PoissonSampledDelay(a, 10.0) for e, a in arrivals.items()}
        op = DelayedRelative(w, delays, tau_max=10.0)
        hist = FunctionView(lambda s: np.array([s, 10.0 * s, 100.0 * s]))
        z = np.array([1.0, 2.0, 3.0])
        out = op.evaluate(z, 1.4, hist)
        # Last arrivals at t = 1.4: 0.5, none (reads t = 0), 1.25 and 0.75.
        want = [2.0 * (1.0 - 5.0), 0.5 * (2.0 - 0.0) + 1.0 * (2.0 - 125.0),
                3.0 * (3.0 - 7.5)]
        assert np.allclose(out, want, rtol=1e-15)

    def test_numeric_reference(self):
        op = DelayedAbsoluteVelocity([2.0, 0.5], 10.0)
        assert op.tau_max is None
        assert np.array_equal(op.evaluate(np.array([11.0, 9.0]), 3.0), [2.0, -0.5])
        with pytest.raises(OperatorError):
            DelayedAbsoluteVelocity([1.0, 1.0], "ten")
        with pytest.raises(OperatorError):
            DelayedAbsoluteVelocity([1.0, 1.0], lambda s: 10.0)

    def test_delayed_absolute_velocity(self):
        op = DelayedAbsoluteVelocity(
            gains=[2.0, 2.0], ref=lambda s: 10.0 + s, delays=lambda t: 0.5,
            tau_max=0.5,
        )
        out = op.evaluate(np.array([11.0, 9.0]), 1.0)
        # ref(0.5) = 10.5
        assert np.allclose(out, [1.0, -3.0])

    def test_missing_history_raises(self):
        op = DelayedRelative(path_graph(2).weights, lambda t: 0.1, tau_max=0.1)
        with pytest.raises(InsufficientHistoryError):
            op.evaluate(np.zeros(2), 0.0, None)

    def test_nan_input_raises(self):
        with pytest.raises(NumericError):
            LinearStatic(L2).evaluate(np.array([np.nan, 0.0]), 0.0)
        with pytest.raises(NumericError):
            Saturated(L2).evaluate(np.array([np.inf, 0.0]), 0.0)


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
        op = DelayedRelative(path_graph(2).weights, lambda t: 0.0, tau_max=0.0)
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
    def test_linear_static_invariant(self):
        assert check_relative_invariance(LinearStatic(L3), 200, seed=0) < 1e-12

    def test_saturated_invariant(self):
        assert check_relative_invariance(Saturated(L3), 200, seed=1) < 1e-12

    def test_time_varying_invariant(self):
        op = LinearTimeVarying(L3, omega=[1.0, 2.0, 0.5], phi=[0.0, 1.0, 2.0])
        assert check_relative_invariance(op, 200, seed=2) < 1e-12

    def test_delayed_relative_ramp_breaks_invariance(self):
        op = DelayedRelative(path_graph(3).weights, lambda t: min(t, 5.0),
                             tau_max=5.0)
        assert check_relative_invariance(op, 200, seed=3) > 1e-3

    def test_delayed_absolute_velocity_breaks_invariance(self):
        op = DelayedAbsoluteVelocity([1.0, 1.0], lambda s: 0.0,
                                     lambda t: 0.0, tau_max=0.0)
        assert check_relative_invariance(op, 200, seed=4) > 1e-3


class TestLipschitz:
    def test_linear_static_approaches_induced_norm(self):
        est = estimate_lipschitz(LinearStatic(L3), 10_000, seed=0)
        assert est <= 2.0 + 1e-9
        assert est >= 1.9

    def test_saturated_below_induced_norm(self):
        est = estimate_lipschitz(Saturated(L3), 2000, seed=1)
        assert est <= 2.0 + 1e-9

    def test_zero_operator(self):
        assert estimate_lipschitz(LinearStatic(np.zeros((3, 3))), 100, seed=2) == 0.0


class TestConstruction:
    def test_rejects_non_laplacian(self):
        with pytest.raises(OperatorError):
            LinearStatic(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_zero_frequency(self):
        with pytest.raises(OperatorError):
            LinearTimeVarying(L2, omega=[0.0, 1.0], phi=[0.0, 0.0])

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(OperatorError):
            DelayedAbsoluteVelocity([1.0, 0.0], lambda s: 0.0,
                                    lambda t: 0.0, tau_max=0.0)

    def test_delayed_relative_needs_all_edge_delays(self):
        w = path_graph(3).weights
        with pytest.raises(OperatorError):
            DelayedRelative(w, {(1, 0): lambda t: 0.0}, tau_max=0.0)
