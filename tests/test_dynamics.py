import dataclasses

import numpy as np
import pytest

from consensuslab.dynamics import (
    Cascade,
    cascade_rhs,
    compositional_controller,
    conventional_controller,
    gps_velocity_controller,
    matched_cascade_state,
    naive_serial_controller,
    reconstruct_plant,
)
from consensuslab.exceptions import OperatorError, ShapeError
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.operators import (
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from consensuslab.presets import preset
from consensuslab.scenario import build_graph, build_operator, simulate_scenario
from consensuslab.sim import FunctionView, IntegratorConfig, integrate, poisson_delay_bank

L5 = build_laplacian(path_graph(5))
L2 = build_laplacian(path_graph(2))


def lti_cascade(n_stages, L=L5):
    op = LinearStatic(L)
    return Cascade((op,) * n_stages)


class TestCascadeField:
    def test_single_stage_is_classical_consensus(self):
        xi = np.array([1.0, 2.0, -1.0, 0.5, 0.0])
        out = cascade_rhs(lti_cascade(1))(xi, 0.0, None)
        assert np.allclose(out, -L5 @ xi)

    def test_zero_stages_give_double_integrator(self):
        zero = LinearStatic(np.zeros((3, 3)))
        casc = Cascade((zero, zero))
        xi = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        out = cascade_rhs(casc)(xi, 0.0, None)
        assert np.array_equal(out, [4.0, 5.0, 6.0, 0.0, 0.0, 0.0])

    def test_consensus_is_equilibrium(self):
        casc = lti_cascade(2)
        xi = np.concatenate((np.full(5, 3.3), np.zeros(5)))
        assert np.abs(cascade_rhs(casc)(xi, 0.0, None)).max() < 1e-12

    def test_equilibrium_for_all_inner_kinds(self):
        ops = (
            LinearStatic(L5),
            Saturated(L5),
            LinearTimeVarying(L5, omega=np.full(5, 1.3), phi=np.zeros(5)),
        )
        casc = Cascade(ops[:3])
        xi = np.concatenate((np.full(5, -2.0), np.zeros(5), np.zeros(5)))
        assert np.abs(cascade_rhs(casc)(xi, 1.7, None)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cascade_rhs(lti_cascade(2))(np.zeros(7), 0.0, None)

    def test_u_ref_feeds_outer_stage(self):
        casc = lti_cascade(2)
        xi = np.zeros(10)
        out = cascade_rhs(casc, lambda t: np.full(5, 2.0))(xi, 0.0, None)
        assert np.array_equal(out[5:], np.full(5, 2.0))
        assert np.array_equal(out[:5], np.zeros(5))


class TestNumericReferenceFold:
    def test_fold_matches_operator(self):
        gains = np.array([1.0, 0.5, 2.0, 3.0, 0.25])
        delayed = DelayedAbsoluteVelocity(gains, -1.5)
        field = cascade_rhs(Cascade((LinearStatic(L5), delayed)), lambda t: np.full(5, t))
        rng = np.random.default_rng(8)
        for t in (0.0, 0.7, 12.0):
            xi = rng.uniform(-5.0, 5.0, 10)
            want = np.concatenate((-L5 @ xi[:5] + xi[5:],
                                   -delayed.evaluate(xi[5:], t) + t))
            assert np.allclose(field(xi, t, None), want, rtol=1e-15, atol=1e-14)

    def test_gps_fig3_equals_history_route(self):
        # The folded constant reference against the same cascade with a
        # callable reference, read at each agent's last Poisson arrival on a
        # run with the history machinery on.
        sc = dataclasses.replace(preset("gps_fig3"), t_end=20.0)
        folded = simulate_scenario(sc)
        outer = DelayedAbsoluteVelocity(
            sc.stages[1].gains, lambda s: 10.0,
            poisson_delay_bank(1.0, sc.seed, sc.t_end, sc.graph_n), tau_max=sc.t_end)
        cascade = Cascade((build_operator(sc.stages[0], build_graph(sc), sc), outer))
        cfg = IntegratorConfig(sc.dt, sc.t_end, sc.record_every)
        history = integrate(cascade_rhs(cascade), folded.states[0], cfg, cascade.tau_max)
        assert np.array_equal(history.states, folded.states)


class TestCascadeValidation:
    def test_delayed_inner_stage_rejected(self):
        delayed = DelayedRelative(path_graph(5).weights, lambda t: 0.1, tau_max=0.1)
        with pytest.raises(OperatorError):
            Cascade((delayed, LinearStatic(L5)))

    def test_delayed_outer_stage_allowed(self):
        delayed = DelayedRelative(path_graph(5).weights, lambda t: 0.1, tau_max=0.1)
        casc = Cascade((LinearStatic(L5), delayed))
        assert casc.order == 2
        assert casc.tau_max == 0.1

    def test_numeric_reference_needs_no_history(self):
        delayed = DelayedAbsoluteVelocity(np.ones(5), 10.0, lambda t: 0.3, tau_max=0.3)
        assert delayed.tau_max is None
        assert Cascade((LinearStatic(L5), delayed)).tau_max is None

    def test_order_cap(self):
        with pytest.raises(OperatorError):
            Cascade((LinearStatic(L5),) * 5)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeError):
            Cascade((LinearStatic(L5), LinearStatic(L2)))


class TestControllers:
    def test_compositional_lti_expansion(self):
        op = LinearStatic(L5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=5)
            v = rng.normal(size=5)
            u = compositional_controller(op, op, x, v, 0.0)
            expanded = -(L5 + L5) @ v - L5 @ (L5 @ x)
            assert np.abs(u - expanded).max() < 1e-12

    def test_relative_feedback_nulls_consensus_state(self):
        op = LinearStatic(L5)
        x = np.full(5, 4.0)
        v = np.full(5, -1.5)
        for ctrl in (compositional_controller, conventional_controller,
                     naive_serial_controller):
            assert np.abs(ctrl(op, op, x, v, 0.0)).max() < 1e-12

    def test_compositional_saturated_hand_value(self):
        op = Saturated(L2)
        u = compositional_controller(op, op, np.array([0.0, 10.0]),
                                     np.zeros(2), 0.0)
        assert np.allclose(u, [0.0, -1.0])

    def test_conventional_saturated_formula(self):
        op = Saturated(L5)
        rng = np.random.default_rng(2)
        x, v = rng.normal(size=5) * 3, rng.normal(size=5) * 3
        u = conventional_controller(op, op, x, v, 0.0)
        expected = -np.clip(L5 @ v, -1, 1) - np.clip(L5 @ x, -1, 1)
        assert np.allclose(u, expected)

    def test_naive_serial_saturated_formula(self):
        op = Saturated(L5)
        rng = np.random.default_rng(3)
        x, v = rng.normal(size=5) * 3, rng.normal(size=5) * 3
        u = naive_serial_controller(op, op, x, v, 0.0)
        inner = np.clip(L5 @ x, -1, 1)
        expected = -2 * np.clip(L5 @ v, -1, 1) - np.clip(L5 @ inner, -1, 1)
        assert np.allclose(u, expected)

    def test_naive_serial_time_varying_formula(self):
        omega = np.array([1.0, 0.7, 1.1, 2.0, 0.6])
        phi = np.array([0.1, 1.0, 2.0, 3.0, 4.0])
        op = LinearTimeVarying(L5, omega, phi)
        rng = np.random.default_rng(4)
        x, v, t = rng.normal(size=5), rng.normal(size=5), 1.234
        D = np.diag(np.maximum(np.sin(omega * t + phi), 0.0))
        Lt = D @ L5
        u = naive_serial_controller(op, op, x, v, t)
        assert np.allclose(u, -(Lt + Lt) @ v - Lt @ (Lt @ x))

    def test_delayed_kinds_inadmissible_in_baselines(self):
        delayed = DelayedAbsoluteVelocity(np.ones(5), lambda s: 0.0,
                                          lambda t: 0.0, tau_max=0.0)
        op = LinearStatic(L5)
        with pytest.raises(OperatorError):
            conventional_controller(delayed, op, np.zeros(5), np.zeros(5), 0.0)
        with pytest.raises(OperatorError):
            naive_serial_controller(op, delayed, np.zeros(5), np.zeros(5), 0.0)
        with pytest.raises(OperatorError):
            compositional_controller(delayed, op, np.zeros(5), np.zeros(5), 0.0)


class TestReconstruction:
    def test_velocity_cancellation(self):
        casc = lti_cascade(2)
        xi1 = np.array([0.5, 1.0, -2.0, 0.0, 3.0])
        xi = np.concatenate((xi1, L5 @ xi1))
        x, xdot = reconstruct_plant(casc, xi, 0.0)
        assert np.array_equal(x, xi1)
        assert np.abs(xdot).max() < 1e-15

    def test_consensus_positions_pass_through_velocity(self):
        casc = lti_cascade(2)
        xi = np.concatenate((np.ones(5), np.array([1.0, 2, 3, 4, 5])))
        _, xdot = reconstruct_plant(casc, xi, 0.0)
        assert np.array_equal(xdot, [1.0, 2, 3, 4, 5])

    def test_order_one_has_no_velocity(self):
        x, xdot = reconstruct_plant(lti_cascade(1), np.ones(5), 0.0)
        assert xdot is None

    def test_matched_state_roundtrip(self):
        casc = lti_cascade(2)
        rng = np.random.default_rng(5)
        x0, v0 = rng.normal(size=5), rng.normal(size=5)
        xi0 = matched_cascade_state(casc, x0, v0)
        x, v = reconstruct_plant(casc, xi0, 0.0)
        assert np.allclose(x, x0)
        assert np.allclose(v, v0)

    def test_matched_state_requires_order_two(self):
        with pytest.raises(OperatorError):
            matched_cascade_state(lti_cascade(3), np.zeros(5), np.zeros(5))


class TestGpsController:
    def test_ideal_formula(self):
        op = LinearStatic(L5)
        ctrl = gps_velocity_controller(np.ones(5), op, v_ref=10.0)
        rng = np.random.default_rng(6)
        x, v = rng.normal(size=5), rng.normal(size=5)
        assert np.allclose(ctrl(x, v, 0.0), -(v - 10.0) - L5 @ x)

    def test_delayed_needs_history(self):
        op = LinearStatic(L5)
        ctrl = gps_velocity_controller(np.ones(5), op, 10.0,
                                       delays=lambda t: 0.5)
        with pytest.raises(OperatorError):
            ctrl(np.zeros(5), np.zeros(5), 1.0)

    def test_delayed_reads_velocity_history(self):
        op = LinearStatic(L2)
        ctrl = gps_velocity_controller(np.ones(2), op, 0.0,
                                       delays=lambda t: 1.0)
        hist = FunctionView(lambda s: np.array([2.0 * s, -s]))
        u = ctrl(np.zeros(2), np.zeros(2), 3.0, hist)
        assert np.allclose(u, [-4.0, 2.0])
