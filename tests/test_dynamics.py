import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import consensuslab
from consensuslab import dynamics
from consensuslab.dynamics import (
    BASELINES,
    Cascade,
    PlantLaw,
    cascade_rhs,
    compositional_controller,
    plant_rhs,
    reconstruct_plant,
)
from consensuslab.exceptions import InsufficientHistoryError, OperatorError, ShapeError
from consensuslab.graphs import build_laplacian, graph_from_edges, path_graph
from consensuslab.operators import (
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from consensuslab.presets import preset
from consensuslab.scenario import validate_scenario
from consensuslab.sim import ConstantDelay, RampDelay

from history_views import FunctionView

L5 = build_laplacian(path_graph(5))
L2 = build_laplacian(path_graph(2))


def lti_cascade(n_stages, L=L5):
    op = LinearStatic(L)
    return Cascade((op,) * n_stages)


def control(controller, l1, l2, x, v, t, hist=None, delays=None):
    """u of a baseline: the velocity block of its plant field at [x; v]."""
    law = PlantLaw(controller, (l1, l2), delays)
    return plant_rhs(law)(np.concatenate((x, v)), t, hist)[len(x):]


def conventional(l1, l2):
    return lambda x, v, t: control("conventional", l1, l2, x, v, t)


def naive_serial(l1, l2):
    return lambda x, v, t: control("naive-serial", l1, l2, x, v, t)


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

    @pytest.mark.parametrize("controller", ["conventional", "naive-serial"])
    def test_plant_shape_mismatch(self, controller):
        op = LinearStatic(L5)
        with pytest.raises(ShapeError):
            plant_rhs(PlantLaw(controller, (op, op)))(np.zeros(11), 0.0, None)

    def test_u_ref_feeds_outer_stage(self):
        casc = lti_cascade(2)
        xi = np.zeros(10)
        out = cascade_rhs(casc, lambda t: np.full(5, 2.0))(xi, 0.0, None)
        assert np.array_equal(out[5:], np.full(5, 2.0))
        assert np.array_equal(out[:5], np.zeros(5))


class TestJoinedFinish:
    def test_one_gate_call_per_run_of_shared_stages(self):
        op = LinearTimeVarying(L5, omega=np.full(5, 1.3), phi=np.zeros(5))
        calls = []
        gates = op.gates
        op.gates = lambda t: calls.append(t) or gates(t)
        xi = np.arange(10.0)
        cascade_rhs(Cascade((op, op)))(xi, 0.5, None)
        assert len(calls) == 1
        plant_rhs(PlantLaw("conventional", (op, op)))(xi, 0.5, None)
        assert len(calls) == 2
        # naive-serial's nested op(op(x)) is a second product.
        plant_rhs(PlantLaw("naive-serial", (op, op)))(xi, 0.5, None)
        assert len(calls) == 4


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


# A weighted digraph whose Laplacian does not commute with L5's, so that the
# fold of a nested product shows the order of its factors.
L5_OTHER = build_laplacian(graph_from_edges(5, [(1, 3, 0.5), (2, 1, 2.0), (4, 2, 1.0),
                                                (5, 4, 1.5), (3, 5, 0.25)]))
TRACKING = DelayedAbsoluteVelocity(np.array([1.0, 0.5, 2.0, 3.0, 0.25]), -1.5)
GATED = LinearTimeVarying(L5, omega=np.full(5, 1.3), phi=np.zeros(5))

AFFINE_SYSTEMS = {
    "cascade-1": lambda: lti_cascade(1),
    "cascade-3": lambda: Cascade((LinearStatic(L5), LinearStatic(L5_OTHER), LinearStatic(L5))),
    "tracking-cascade": lambda: Cascade((LinearStatic(L5), TRACKING)),
    "conventional": lambda: PlantLaw("conventional", (LinearStatic(L5), LinearStatic(L5_OTHER))),
    "naive-serial": lambda: PlantLaw("naive-serial", (LinearStatic(L5), LinearStatic(L5_OTHER))),
    "conventional-ideal": lambda: PlantLaw("conventional-ideal", (LinearStatic(L5_OTHER), TRACKING)),
}


class TestAffineFold:
    """A program whose every step is affine in the state carries its field
    as ``affine = (A, c)``; every other program carries None."""

    @pytest.mark.parametrize("name", AFFINE_SYSTEMS)
    def test_fold_is_the_field(self, name):
        field = AFFINE_SYSTEMS[name]().rhs()
        A, c = field.affine
        rng = np.random.default_rng(9)
        for t in (0.0, 0.7, 12.0):
            s = rng.uniform(-5.0, 5.0, len(c))
            out = field(s, t, None)
            assert A.shape == (len(s), len(s))
            assert np.abs(A @ s + c - out).max() <= 1e-13 * max(1.0, np.abs(out).max())

    def test_constant_of_a_linear_program_is_zero(self):
        for name in ("cascade-3", "conventional", "naive-serial"):
            assert not AFFINE_SYSTEMS[name]().rhs().affine[1].any(), name

    @pytest.mark.parametrize("system", [
        lambda: Cascade((GATED, LinearStatic(L5))),
        lambda: Cascade((LinearStatic(L5), Saturated(L5))),
        lambda: PlantLaw("naive-serial", (LinearStatic(L5), GATED)),
        lambda: PlantLaw("conventional-delayed", (LinearStatic(L5), TRACKING), ConstantDelay(0.5)),
        lambda: Cascade((LinearStatic(L5),
                         DelayedRelative(path_graph(5).weights, ConstantDelay(0.1)))),
    ], ids=["gated", "saturated", "nested-gated", "conventional-delayed", "delayed-relative"])
    def test_programs_that_are_not_affine(self, system):
        assert system().rhs().affine is None

    def test_nested_gated_product_alone_is_not_affine(self):
        # No gated block in M, so no finish run: the nested product decides.
        n = 5
        field = dynamics._compile([(0, 0, -1.0, L5)], (2 * n, n), n, [None, None], [],
                                  slice(0, n), nested=(GATED, slice(n, 2 * n)))
        assert field.affine is None

    @pytest.mark.parametrize("system", AFFINE_SYSTEMS.values(), ids=list(AFFINE_SYSTEMS))
    def test_a_feed_is_not_affine(self, system):
        assert system().rhs(lambda t: np.full(5, 0.5)).affine is None

    def test_row_sparse_program_is_not_affine(self):
        # serial_lti at N = 400 keeps its row-sparse product: no dense step
        # matrix is folded or built above the sparse threshold.
        for controller in ("compositional", "conventional", "naive-serial"):
            sc = dataclasses.replace(preset("serial_lti"), graph_n=400, controller=controller)
            field = validate_scenario(sc)[1].rhs()
            assert field.affine is None, controller


class TestCascadeValidation:
    def test_delayed_inner_stage_rejected(self):
        delayed = DelayedRelative(path_graph(5).weights, ConstantDelay(0.1))
        with pytest.raises(OperatorError):
            Cascade((delayed, LinearStatic(L5)))

    def test_delayed_outer_stage_allowed(self):
        delayed = DelayedRelative(path_graph(5).weights, ConstantDelay(0.1))
        casc = Cascade((LinearStatic(L5), delayed))
        assert casc.order == 2
        assert casc.tau_max == 0.1
        with pytest.raises(InsufficientHistoryError):
            cascade_rhs(casc)(np.zeros(10), 0.0, None)

    def test_numeric_reference_needs_no_history(self):
        delayed = DelayedAbsoluteVelocity(np.ones(5), 10.0)
        assert Cascade((LinearStatic(L5), delayed)).tau_max is None

    def test_order_cap(self):
        with pytest.raises(OperatorError):
            Cascade((LinearStatic(L5),) * 5)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_non_operator_stage_rejected(self, order):
        for k in range(order):
            stages = [LinearStatic(L5)] * order
            stages[k] = L5
            with pytest.raises(OperatorError, match=f"stage {k + 1} is not"):
                Cascade(tuple(stages))

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
            u = compositional_controller(op, op)(x, v, 0.0)
            expanded = -(L5 + L5) @ v - L5 @ (L5 @ x)
            assert np.abs(u - expanded).max() < 1e-12

    def test_relative_feedback_nulls_consensus_state(self):
        op = LinearStatic(L5)
        x = np.full(5, 4.0)
        v = np.full(5, -1.5)
        for ctrl in (compositional_controller, conventional, naive_serial):
            assert np.abs(ctrl(op, op)(x, v, 0.0)).max() < 1e-12

    def test_compositional_saturated_hand_value(self):
        op = Saturated(L2)
        u = compositional_controller(op, op)(np.array([0.0, 10.0]), np.zeros(2), 0.0)
        assert np.allclose(u, [0.0, -1.0])

    def test_conventional_saturated_formula(self):
        op = Saturated(L5)
        rng = np.random.default_rng(2)
        x, v = rng.normal(size=5) * 3, rng.normal(size=5) * 3
        u = conventional(op, op)(x, v, 0.0)
        expected = -np.clip(L5 @ v, -1, 1) - np.clip(L5 @ x, -1, 1)
        assert np.allclose(u, expected)

    def test_naive_serial_saturated_formula(self):
        op = Saturated(L5)
        rng = np.random.default_rng(3)
        x, v = rng.normal(size=5) * 3, rng.normal(size=5) * 3
        u = naive_serial(op, op)(x, v, 0.0)
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
        u = naive_serial(op, op)(x, v, t)
        assert np.allclose(u, -(Lt + Lt) @ v - Lt @ (Lt @ x))

    @pytest.mark.parametrize("controller", BASELINES)
    @pytest.mark.parametrize("k", [0, 1])
    def test_non_operator_stage_rejected(self, controller, k):
        stages = [LinearStatic(L5), LinearStatic(L5)]
        if controller.startswith("conventional-"):
            stages[1] = DelayedAbsoluteVelocity(np.ones(5), 0.0)
        delays = ConstantDelay(0.1) if controller == "conventional-delayed" else None
        stages[k] = 1.0
        with pytest.raises(OperatorError, match=f"stage {k + 1} is not"):
            PlantLaw(controller, tuple(stages), delays)
        with pytest.raises(OperatorError, match=f"stage {k + 1} is not"):
            compositional_controller(*stages)

    def test_delayed_kinds_inadmissible_in_baselines(self):
        delayed = DelayedAbsoluteVelocity(np.ones(5), 0.0)
        op = LinearStatic(L5)
        with pytest.raises(OperatorError):
            PlantLaw("conventional", (delayed, op))
        with pytest.raises(OperatorError):
            PlantLaw("naive-serial", (op, delayed))
        with pytest.raises(OperatorError):
            compositional_controller(delayed, op)


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

    @pytest.mark.parametrize("system", [
        lambda: lti_cascade(1),
        lambda: lti_cascade(2),
        *(lambda c=c: PlantLaw(c, (LinearStatic(L5), LinearStatic(L5)))
          for c in ("conventional", "naive-serial")),
        lambda: PlantLaw("conventional-ideal",
                         (LinearStatic(L5), DelayedAbsoluteVelocity(np.ones(5), 10.0))),
        lambda: PlantLaw("conventional-delayed",
                         (LinearStatic(L5), DelayedAbsoluteVelocity(np.ones(5), 10.0)),
                         ConstantDelay(0.5)),
    ], ids=["cascade-1", "cascade-2", *BASELINES])
    def test_matched_state_roundtrip(self, system):
        """A system's plant map reads back the plant initial conditions its
        initial state was built from; order 1 has no velocity."""
        system = system()
        rng = np.random.default_rng(5)
        x0, v0 = rng.normal(size=5), rng.normal(size=5)
        x, v = system.plant(system.initial_state(x0, v0)[None], np.zeros(1))
        assert np.array_equal(x, x0[None])
        if isinstance(system, Cascade) and system.order == 1:
            assert v is None
        else:
            assert np.abs(v - v0).max() < 1e-14

    def test_matched_state_requires_order_two(self):
        with pytest.raises(OperatorError, match="xi0 alone"):
            lti_cascade(3).initial_state(np.zeros(5), np.zeros(5))


class TestGpsController:
    def test_ideal_formula(self):
        op = LinearStatic(L5)
        outer = DelayedAbsoluteVelocity(np.ones(5), 10.0)
        rng = np.random.default_rng(6)
        x, v = rng.normal(size=5), rng.normal(size=5)
        u = control("conventional-ideal", op, outer, x, v, 0.0)
        assert np.allclose(u, -(v - 10.0) - L5 @ x)

    def test_delayed_needs_history(self):
        op = LinearStatic(L5)
        outer = DelayedAbsoluteVelocity(np.ones(5), 10.0)
        with pytest.raises(InsufficientHistoryError):
            control("conventional-delayed", op, outer, np.zeros(5), np.zeros(5), 1.0,
                    delays=ConstantDelay(0.5))

    def test_delayed_reads_velocity_history(self):
        op = LinearStatic(L2)
        outer = DelayedAbsoluteVelocity(np.ones(2), 0.0)
        # The view holds the plant state [x; xdot]; only xdot is read.
        hist = FunctionView(lambda s: np.array([0.0, 0.0, 2.0 * s, -s]))
        u = control("conventional-delayed", op, outer, np.zeros(2), np.zeros(2), 3.0,
                    hist, delays=ConstantDelay(1.0))
        assert np.allclose(u, [-4.0, 2.0])

    def test_gains_length_rejected(self):
        with pytest.raises(ShapeError):
            PlantLaw("conventional-ideal",
                     (LinearStatic(L5), DelayedAbsoluteVelocity(np.ones(4), 10.0)))

    def test_delays_need_their_bound(self):
        stages = (LinearStatic(L5), DelayedAbsoluteVelocity(np.ones(5), 10.0))
        assert PlantLaw("conventional-delayed", stages, ConstantDelay(0.5)).tau_max == 0.5
        ramps = [RampDelay(cap) for cap in (1.0, 3.0, 2.0, 0.5, 1.5)]
        assert PlantLaw("conventional-delayed", stages, ramps).tau_max == 3.0
        assert PlantLaw("conventional-ideal", stages).tau_max is None
        for unbounded in (lambda t: 0.5, [ConstantDelay(0.5)] * 4 + [lambda t: 0.5]):
            with pytest.raises(OperatorError, match="PoissonSampledDelay"):
                PlantLaw("conventional-delayed", stages, unbounded)
        with pytest.raises(OperatorError, match="only with it"):
            PlantLaw("conventional-ideal", stages, ConstantDelay(0.5))

    def test_delays_length_rejected(self):
        stages = (LinearStatic(L5), DelayedAbsoluteVelocity(np.ones(5), 10.0))
        with pytest.raises(ShapeError, match="5 delays, got 3"):
            PlantLaw("conventional-delayed", stages, [ConstantDelay(0.5)] * 3)


class TestLargeFields:
    """Fields above the sparse threshold keep only the nonzeros of their
    block matrix and multiply through numpy alone."""

    def test_build_allocates_no_dense_block_matrix(self):
        # Dense, the order-4 cascade's matrix is (4N)^2 floats (128 MB at
        # N = 1000) and the naive-serial plant's 4N x 2N (64 MB).
        n = 1000
        op = LinearStatic(build_laplacian(path_graph(n)))
        for system in (Cascade((op,) * 4), PlantLaw("naive-serial", (op, op))):
            tracemalloc.start()
            try:
                system.rhs()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * n * n * 8, (system, peak)

    def test_program_with_no_blocks(self):
        # A lone delayed stage leaves the block matrix empty; the tail step
        # alone writes the field.
        n = 200
        delayed = DelayedRelative(path_graph(n).weights, ConstantDelay(0.1))
        field = cascade_rhs(Cascade((delayed,)))
        z = np.linspace(-1.0, 1.0, n)
        hist = FunctionView(lambda s: s * z)
        assert np.array_equal(field(z, 1.0, hist), -delayed.evaluate(z, 1.0, hist))

    def test_run_above_the_threshold_loads_no_scipy(self):
        n = 400
        assert 2 * n >= dynamics._SPARSE_MIN_DIM
        src = str(Path(consensuslab.__file__).resolve().parents[1])
        code = ("import dataclasses, sys\n"
                "from consensuslab import presets, scenario\n"
                f"sc = dataclasses.replace(presets.serial_lti(), graph_n={n}, t_end=0.01)\n"
                "scenario.simulate_scenario(sc)\n"
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert proc.stdout.strip() == "[]"
