import dataclasses

import numpy as np
import pytest

from consensuslab.dynamics import Cascade, cascade_rhs
from consensuslab.exceptions import (
    ConfigError,
    DivergenceError,
    InsufficientHistoryError,
    ShapeError,
)
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.operators import DelayedRelative, LinearStatic, LinearTimeVarying, Saturated
from consensuslab.presets import preset
from consensuslab import sim
from consensuslab.scenario import _build_disturbance, simulate_scenario, validate_scenario
from consensuslab.sim import (
    PREFETCH_STEPS,
    ArrivalBank,
    ConstantDelay,
    HeldReads,
    HistoryBuffer,
    IntegratorConfig,
    PoissonSampledDelay,
    RampDelay,
    StepView,
    integrate,
    poisson_delay_bank,
    sample_poisson_delays,
)

from history_views import FunctionView


def exp_error(dt):
    cfg = IntegratorConfig(dt=dt, t_end=1.0, record_every=1)
    traj = integrate(lambda x, t, h: -x, np.array([1.0]), cfg)
    return np.abs(traj.states[:, 0] - np.exp(-traj.times)).max()


class TestIntegrator:
    def test_exponential_oracle(self):
        assert exp_error(1e-3) < 1e-9

    def test_zero_field_constant(self):
        cfg = IntegratorConfig(dt=0.01, t_end=2.0, record_every=4)
        traj = integrate(lambda x, t, h: np.zeros_like(x), np.array([3.0, -1.0]), cfg)
        assert np.array_equal(traj.states, np.tile([3.0, -1.0], (len(traj), 1)))

    def test_fourth_order_convergence(self):
        ratio = exp_error(0.1) / exp_error(0.05)
        assert 12.0 <= ratio <= 20.0

    def test_recording_grid(self):
        cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=5)
        traj = integrate(lambda x, t, h: -x, np.array([1.0]), cfg)
        assert len(traj) == 21
        assert np.allclose(np.diff(traj.times), 0.05)

    def test_record_every_must_divide(self):
        with pytest.raises(ConfigError):
            cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=7)
            integrate(lambda x, t, h: -x, np.array([1.0]), cfg)

    def test_divergence_carries_time_and_partial(self):
        cfg = IntegratorConfig(dt=0.01, t_end=20.0, record_every=1)
        with pytest.raises(DivergenceError) as err:
            integrate(lambda x, t, h: 3.0 * x, np.array([1.0]), cfg)
        # e^{3t} hits 1e9 near t = 6.9
        assert 6.0 < err.value.time < 8.0
        partial = err.value.trajectory
        assert len(partial) > 100
        assert np.isfinite(partial.states).all()

    def test_nan_field_raises_divergence(self):
        cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=1)
        with pytest.raises(DivergenceError):
            integrate(lambda x, t, h: np.full_like(x, np.nan), np.array([1.0]), cfg)

    @pytest.mark.parametrize("entry", [1e9, -1e9])
    def test_state_at_the_blowup_limit_keeps_running(self, entry):
        cfg = IntegratorConfig(dt=0.125, t_end=1.0)
        traj = integrate(lambda x, t, h: np.zeros_like(x), np.array([0.5, entry, -3.0]), cfg)
        assert len(traj) == 9 and np.all(traj.states[:, 1] == entry)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_state_just_past_the_blowup_limit_raises_at_its_step(self, sign):
        cfg = IntegratorConfig(dt=0.125, t_end=1.0)
        x0 = np.array([0.5, sign * np.nextafter(1e9, np.inf), -3.0])
        with pytest.raises(DivergenceError) as err:
            integrate(lambda x, t, h: np.zeros_like(x), x0, cfg)
        assert err.value.time == 0.125 and len(err.value.trajectory) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_raises_at_its_step(self, bad):
        def field(x, t, h):
            out = np.zeros_like(x)
            if t >= 0.5:  # the last stage of the step from 0.375 to 0.5
                out[1] = bad
            return out

        cfg = IntegratorConfig(dt=0.125, t_end=1.0)
        with pytest.raises(DivergenceError) as err:
            integrate(field, np.array([0.5, 2.0, -3.0]), cfg)
        assert err.value.time == 0.5
        assert np.array_equal(err.value.trajectory.states[:, 1], [2.0] * 4)

    def test_large_state_inside_the_limit_takes_the_exact_test(self):
        # Its sum of squares, 3.24e20, passes 1e18, so every step also takes
        # the exact max |x_i| test, which passes.
        x0 = np.full(400, 9e8)
        cfg = IntegratorConfig(dt=0.125, t_end=1.0)
        traj = integrate(lambda x, t, h: np.zeros_like(x), x0, cfg)
        assert np.all(traj.states == 9e8)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=-0.1, t_end=1.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.1, t_end=0.01)

    def test_empty_initial_state_rejected(self):
        cfg = IntegratorConfig(dt=0.1, t_end=1.0)
        with pytest.raises(ConfigError, match="nonempty"):
            integrate(lambda x, t, h: -x, np.array([]), cfg)

    @pytest.mark.parametrize("every", [2.0, np.float64(5.0), True, np.bool_(True)])
    def test_record_every_must_be_an_integer(self, every):
        with pytest.raises(ConfigError, match="record_every"):
            IntegratorConfig(dt=0.1, t_end=1.0, record_every=every)
        assert IntegratorConfig(dt=0.1, t_end=1.0, record_every=np.int64(5)).nsteps == 10

    def test_two_agent_decay_matches_exponential(self):
        L = build_laplacian(path_graph(2))
        cfg = IntegratorConfig(dt=1e-3, t_end=10.0, record_every=10)
        traj = integrate(lambda z, t, h: -(L @ z), np.array([0.0, 1.0]), cfg)
        e = np.abs(traj.states @ L.T).max(axis=1)
        assert np.abs(e - np.exp(-traj.times) * e[0]).max() < 1e-6

    def test_horizon_must_be_whole_steps(self):
        # 1.0 / 0.003 = 333.33 steps would silently stop at t = 0.999
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.003, t_end=1.0)
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: a whole number
        assert IntegratorConfig(dt=0.1, t_end=0.3).nsteps == 3


def counted(field, calls):
    """``field`` behind a wrapper that logs each call and carries its fold."""
    def wrapper(s, t, hist):
        calls.append(t)
        return field(s, t, hist)

    wrapper.affine = field.affine
    return wrapper


def opaque(field):
    """``field`` behind a wrapper without a fold: ``integrate`` runs its stages."""
    return lambda s, t, h: field(s, t, h)


def scenario_run(name, controller, t_end):
    """(field, initial state, config) of a preset under a controller."""
    sc = dataclasses.replace(preset(name), controller=controller, t_end=t_end)
    _, system, state0, _ = validate_scenario(sc)
    field = system.rhs(_build_disturbance(sc))
    return field, state0, IntegratorConfig(sc.dt, sc.t_end, sc.record_every)


def linear_cascade_run():
    L = build_laplacian(path_graph(5))
    x0 = np.random.default_rng(11).uniform(-1.0, 1.0, 15)
    return cascade_rhs(Cascade((LinearStatic(L),) * 3)), x0, IntegratorConfig(0.01, 3.0, 5)


AFFINE_RUNS = {
    "linear-cascade": linear_cascade_run,
    "gps-compositional": lambda: scenario_run("gps_fig3", "compositional", 4.0),
    "lti-conventional": lambda: scenario_run("serial_lti", "conventional", 2.0),
    "lti-naive-serial": lambda: scenario_run("serial_lti", "naive-serial", 2.0),
    "gps-conventional-ideal": lambda: scenario_run("gps_fig3", "conventional-ideal", 4.0),
}


class TestAffineStep:
    """An affine field steps as s <- s + Q s + g, RK4's own step, with no
    field call, and lands within rounding of the four-stage path."""

    @pytest.mark.parametrize("name", AFFINE_RUNS)
    def test_steps_as_the_stage_path(self, name):
        field, x0, cfg = AFFINE_RUNS[name]()
        assert field.affine is not None
        calls = []
        fast = integrate(counted(field, calls), x0, cfg)
        stages = integrate(opaque(field), x0, cfg)
        assert calls == []
        assert np.array_equal(fast.times, stages.times)
        scale = max(1.0, np.abs(stages.states).max())
        assert np.abs(fast.states - stages.states).max() <= 1e-12 * scale

    def test_fewer_steps_than_states_keep_the_stages(self):
        field, x0, _ = linear_cascade_run()
        dim = len(x0)
        calls = []
        integrate(counted(field, calls), x0, IntegratorConfig(0.01, 0.01 * (dim - 1)))
        assert len(calls) == 4 * (dim - 1)
        calls.clear()
        integrate(counted(field, calls), x0, IntegratorConfig(0.01, 0.01 * dim))
        assert calls == []

    def test_state_of_another_length_reaches_the_field(self):
        field, x0, cfg = linear_cascade_run()
        with pytest.raises(ShapeError):
            integrate(field, x0[:-1], cfg)

    def test_divergence_at_the_same_step(self):
        # -L still has zero row sums; its cascade blows up near t = 14.
        L = build_laplacian(path_graph(5))
        field = cascade_rhs(Cascade((LinearStatic(-L),) * 2))
        x0 = np.linspace(-1.0, 1.0, 10)
        cfg = IntegratorConfig(0.01, 100.0, 10)
        errors = []
        for f in (field, opaque(field)):
            with pytest.raises(DivergenceError) as err:
                integrate(f, x0, cfg)
            errors.append(err.value)
        fast, stages = errors
        assert fast.time == stages.time < 100.0
        assert np.array_equal(fast.trajectory.times, stages.trajectory.times)
        a, b = fast.trajectory.states, stages.trajectory.states
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestAffineProtocol:
    """``integrate`` asks ``affine`` whenever the admitted affine steps have
    run out, takes the four stages on None or j = 0, and builds the step
    only for a new A object."""

    def test_asks_builds_and_steps_as_answered(self, monkeypatch):
        A, c = np.array([[-1.0, 0.5], [0.0, -2.0]]), np.array([0.25, 0.0])
        other = A.copy()
        script = [(A, c, 3), None, (A, c, 0), (other, c, 2), (other, c, 1)]
        asks, calls, builds = [], [], []

        def field(s, t, hist):
            calls.append(t)
            return A @ s + c

        def affine(s, h):
            asks.append(s.copy())
            return script.pop(0) if script else None

        def rk4_step(*args):
            builds.append(args[0])
            return real(*args)

        real = sim._rk4_step
        monkeypatch.setattr(sim, "_rk4_step", rk4_step)
        field.affine = affine
        cfg = IntegratorConfig(0.125, 1.25)
        traj = integrate(field, np.array([1.0, -1.0]), cfg)
        # Steps 0-2 and 5-7 affine; 3, 4, 8 and 9 take the stages.
        assert len(asks) == 7 and len(builds) == 2
        assert builds[0] is A and builds[1] is other
        assert len(calls) == 16 and calls[::4] == [3 * 0.125, 4 * 0.125, 8 * 0.125, 9 * 0.125]
        stages = integrate(opaque(field), np.array([1.0, -1.0]), cfg)
        assert np.abs(traj.states - stages.states).max() <= 1e-15


PATTERN_RUNS = {
    "fig2-compositional": lambda: scenario_run("saturated_fig2", "compositional", 10.0),
    "regime": lambda: scenario_run("saturated_regime", "compositional", 20.0),
}


class TestPatternStep:
    """A saturated cascade steps by its clamp pattern's affine step where
    the bound admits it, by the stages elsewhere, and lands within rounding
    of the four-stage path."""

    @pytest.mark.parametrize("name", PATTERN_RUNS)
    def test_steps_as_the_stage_path(self, name):
        field, x0, cfg = PATTERN_RUNS[name]()
        assert field.affine is not None
        calls = []
        fast = integrate(counted(field, calls), x0, cfg)
        stages = integrate(opaque(field), x0, cfg)
        assert 0 < len(calls) < 0.1 * 4 * cfg.nsteps
        scale = max(1.0, np.abs(stages.states).max())
        assert np.abs(fast.states - stages.states).max() <= 1e-13 * scale


def gated_cascade_field(second, u_ref=None):
    """The field of a 10-agent cascade whose inner stage is gated."""
    rng = np.random.default_rng(5)
    L = build_laplacian(path_graph(5)) * 2.0
    inner = LinearTimeVarying(np.kron(np.eye(2), L), rng.uniform(0.5, 3.0, 10),
                              rng.uniform(0.0, 6.0, 10))
    return cascade_rhs(Cascade((inner, second(inner))), u_ref)


GATED_RUNS = {
    "fig1-compositional": lambda: scenario_run("timevarying_fig1", "compositional", 1.5),
    "fig1-conventional": lambda: scenario_run("timevarying_fig1", "conventional", 1.5),
    "fig1-naive-serial": lambda: scenario_run("timevarying_fig1", "naive-serial", 1.5),
    "saturated-outer": lambda: (
        gated_cascade_field(lambda op: Saturated(op.L)), np.linspace(-3.0, 3.0, 20),
        IntegratorConfig(0.0125, 0.0125 * 301, 7)),
    "constant-feed": lambda: (
        gated_cascade_field(lambda op: op, lambda t: np.full(10, 0.25)),
        np.linspace(-1.0, 2.0, 20), IntegratorConfig(0.02, 0.02 * 513)),
}


class TestGateTables:
    """A gated program reads its gates from tables that ``integrate`` fills
    a block of steps at a time, bit for bit as its ``finish`` computes them."""

    @pytest.mark.parametrize("name", GATED_RUNS)
    def test_prefetched_run_is_the_stage_path(self, name):
        field, x0, cfg = GATED_RUNS[name]()
        assert field.prefetch is not None and cfg.nsteps % PREFETCH_STEPS != 0
        fast = integrate(field, x0, cfg)
        stages = integrate(opaque(GATED_RUNS[name]()[0]), x0, cfg)
        assert np.array_equal(fast.states, stages.states)

    # Each id counts the gated runs and nested products that the one block serves.
    @pytest.mark.parametrize("controller", ["compositional", "conventional", "naive-serial"],
                             ids=["compositional-1", "conventional-1", "naive-serial-2"])
    def test_one_gate_block_per_prefetch(self, monkeypatch, controller):
        """One ``gates`` call per block of steps for the one operator that
        fig1's stages share, whatever runs and nested product it gates, and
        no call per stage time."""
        field, x0, cfg = scenario_run("timevarying_fig1", controller, 1.5)
        calls = []
        real = LinearTimeVarying.gates

        def gates(op, t):
            calls.append(np.ndim(t))
            return real(op, t)

        monkeypatch.setattr(LinearTimeVarying, "gates", gates)
        integrate(field, x0, cfg)
        blocks = -(-cfg.nsteps // PREFETCH_STEPS)
        assert blocks == 2 and calls == [1] * blocks

    def test_direct_calls_match_a_fresh_field(self):
        field, x0, cfg = scenario_run("timevarying_fig1", "naive-serial", 0.05)
        integrate(field, x0, cfg)  # fills the tables at the stage times
        fresh = scenario_run("timevarying_fig1", "naive-serial", 0.05)[0]
        for t in (0.0125, 0.0130, 3.0):
            assert np.array_equal(field(x0, t, None), fresh(x0, t, None))

    @pytest.mark.parametrize("name, controllers", [
        ("serial_lti", ("compositional", "conventional", "naive-serial")),
        ("saturated_fig2", ("compositional", "conventional", "naive-serial")),
        ("gps_fig3", ("compositional", "conventional-ideal", "conventional-delayed")),
        ("counterexample_appD", ("compositional",)),
    ])
    def test_ungated_programs_carry_no_prefetch(self, name, controllers):
        for controller in controllers:
            assert scenario_run(name, controller, 1.0)[0].prefetch is None

    def test_divergence_at_the_same_step(self):
        # -L still has zero row sums; the gated cascade blows up mid-block.
        fields = [gated_cascade_field(lambda op: LinearTimeVarying(-op.L, op.omega, op.phi))
                  for _ in range(2)]
        x0 = np.linspace(-1.0, 1.0, 20)
        cfg = IntegratorConfig(0.01, 100.0, 10)
        errors = []
        for f in (fields[0], opaque(fields[1])):
            with pytest.raises(DivergenceError) as err:
                integrate(f, x0, cfg)
            errors.append(err.value)
        fast, stages = errors
        assert fast.time == stages.time < 100.0
        assert round(fast.time / cfg.dt) % PREFETCH_STEPS != 0
        assert np.array_equal(fast.trajectory.times, stages.trajectory.times)
        assert np.array_equal(fast.trajectory.states, stages.trajectory.states)


class TestHistory:
    def test_pre_history_is_initial_condition(self):
        # field reads 5 s into the past; for t < 5 that is the initial state
        def field(x, t, hist):
            return hist(t - 5.0) - x

        cfg = IntegratorConfig(dt=0.01, t_end=2.0, record_every=10)
        traj = integrate(field, np.array([2.0]), cfg, tau_max=5.0)
        # xdot = x0 - x -> x(t) = x0 exactly (starts at x0)
        assert np.abs(traj.states - 2.0).max() < 1e-12

    def test_zero_delay_reproduces_undelayed_path(self):
        g = path_graph(5)
        delayed = Cascade((DelayedRelative(g.weights, ConstantDelay(0.0)),))
        static = Cascade((LinearStatic(build_laplacian(g)),))
        x0 = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
        cfg = IntegratorConfig(dt=1e-3, t_end=10.0, record_every=10)
        td = integrate(cascade_rhs(delayed), x0, cfg, tau_max=0.0)
        tu = integrate(cascade_rhs(static), x0, cfg)
        assert np.abs(td.states - tu.states).max() < 1e-10

    def test_buffer_interpolates_and_clamps(self):
        buf = HistoryBuffer(dt=0.5, nsteps=4, x0=np.array([0.0]))
        for v in (1.0, 2.0, 3.0):
            buf.commit(np.array([v]))
        assert buf.state_at(-1.0)[0] == 0.0       # pre-history clamp
        assert buf.state_at(0.75)[0] == 1.5       # midpoint interpolation
        assert buf.state_at(99.0)[0] == 3.0       # clamp at committed end

    def test_step_view_extends_to_stage_point(self):
        buf = HistoryBuffer(dt=1.0, nsteps=4, x0=np.array([0.0]))
        buf.commit(np.array([1.0]))
        view = StepView(buf, t_stage=1.5, z_stage=np.array([2.0]))
        assert view(1.0)[0] == 1.0
        assert view(1.25)[0] == 1.5
        assert view(1.5)[0] == 2.0

    def test_components_match_scalar_reads(self):
        # Reference: np.interp on the committed grid extended by the stage
        # point, clamped to the initial state before t = 0.
        rng = np.random.default_rng(0)
        buf = HistoryBuffer(dt=0.1, nsteps=50, x0=rng.normal(size=4))
        for _ in range(50):
            buf.commit(rng.normal(size=4))
        view = StepView(buf, t_stage=5.03, z_stage=rng.normal(size=4))
        ts = rng.uniform(-0.5, 5.03, size=40)
        idx = rng.integers(0, 4, size=40)
        vec = view.components(ts, idx)
        grid = np.append(np.arange(51) * 0.1, 5.03)
        samples = np.vstack((buf.values[:51], view.z_stage))
        ref = np.array([np.interp(s, grid, samples[:, i]) for s, i in zip(ts, idx)])
        assert np.abs(vec - ref).max() < 1e-14

    @pytest.mark.parametrize("dt", [0.01, 0.025, 0.1, 1e-3, 4e-3])
    def test_a_grid_time_reads_its_sample(self, dt):
        """A read at k * dt gives sample k exactly while sample k is the
        committed end and after the next one is committed."""
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 3))
        buf = HistoryBuffer(dt, 199, values[0])
        idx = np.arange(3)
        for k in range(1, 200):
            buf.commit(values[k])
            for j in (k - 1, k):
                got = buf.components(np.full(3, j * dt), idx)
                assert np.array_equal(got, values[j]), (j, got - values[j])


    def test_ring_keeps_the_latest_samples(self):
        # Four rows, ten commits: samples 7 to 10 are kept, 0 to 6 overwritten.
        values = np.arange(11.0)[:, None] * np.array([1.0, -3.0])
        buf = HistoryBuffer(dt=0.5, nsteps=3, x0=values[0])
        for v in values[1:]:
            buf.commit(v)
        assert buf.values.shape == (4, 2) and buf.t_last == 5.0
        for j in range(7, 11):
            assert np.array_equal(buf.state_at(j * 0.5), values[j]), j
        assert np.array_equal(buf.components([3.75, 4.25], [0, 1]), [7.5, -25.5])
        view = StepView(buf, t_stage=5.25, z_stage=np.array([12.0, -36.0]))
        assert np.array_equal(view.components([5.125, 3.5], [0, 1]), [11.0, -21.0])
        for s in (3.25, 3.0, -1.0):
            with pytest.raises(InsufficientHistoryError, match=rf"t = {s:g} is older .* t = 3\.5;"):
                buf.components([4.0, s], [0, 1])

    def test_too_small_tau_max_raises(self):
        # The outer stage reads 0.5 s back; a ring sized for 0.1 s loses
        # those samples once it wraps.
        g = path_graph(4)
        cascade = Cascade((DelayedRelative(g.weights, ConstantDelay(0.5)),))
        cfg = IntegratorConfig(dt=0.01, t_end=2.0)
        x0 = np.array([1.0, -1.0, 0.5, 2.0])
        with pytest.raises(InsufficientHistoryError, match="older than the oldest sample kept"):
            integrate(cascade_rhs(cascade), x0, cfg, tau_max=0.1)
        assert cascade.tau_max == 0.5
        integrate(cascade_rhs(cascade), x0, cfg, tau_max=cascade.tau_max)

    def test_huge_tau_max_keeps_the_whole_grid(self):
        rows = set()

        def field(x, t, hist):
            rows.add(len(hist.buf.values))
            return hist(t - 0.3) - x

        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, record_every=100)
        x0 = np.array([1.0, 2.0])
        whole = integrate(field, x0, cfg, tau_max=1e308)
        assert rows == {1001}
        rows.clear()
        assert np.array_equal(integrate(field, x0, cfg, tau_max=0.3).states, whole.states)
        assert rows == {302}


class TestDelayProcesses:
    def test_constant_and_ramp(self):
        c = ConstantDelay(0.4)
        assert c(10.0) == 0.4 and c.tau_max == 0.4
        r = RampDelay(5.0)
        assert r(2.0) == 2.0 and r(7.0) == 5.0 and r.tau_max == 5.0

    @pytest.mark.parametrize("arrivals, t_end", [
        ([3.0, 1.0, 2.0], 5.0), ([-1.0, 2.0], 5.0), ([1.0, np.nan, 2.0], 5.0),
        ([1.0, np.inf], 5.0), ([1.0, 2.0], np.inf), ([1.0, 2.0], np.nan),
    ], ids=["unsorted", "negative", "nan-arrival", "inf-arrival", "inf-horizon",
            "nan-horizon"])
    def test_poisson_delay_rejects_streams_it_cannot_read(self, arrivals, t_end):
        with pytest.raises(ConfigError):
            PoissonSampledDelay(arrivals, t_end)

    def test_poisson_determinism(self):
        a = sample_poisson_delays(1.0, 123, 100.0)
        b = sample_poisson_delays(1.0, 123, 100.0)
        assert np.array_equal(a.arrivals, b.arrivals)
        c = sample_poisson_delays(1.0, 124, 100.0)
        assert not np.array_equal(a.arrivals, c.arrivals)

    def test_poisson_mean_inter_arrival(self):
        d = sample_poisson_delays(1.0, 7, 10_000.0)
        gaps = np.diff(d.arrivals)
        assert abs(gaps.mean() - 1.0) < 0.05

    def test_delay_before_first_arrival_is_t(self):
        d = sample_poisson_delays(1.0, 7, 100.0)
        t = d.arrivals[0] / 2
        assert d(t) == t

    def test_delay_bounded_by_tau_max(self):
        d = sample_poisson_delays(2.0, 11, 200.0)
        ts = np.linspace(0, 200, 5000)
        taus = np.array([d(t) for t in ts])
        assert taus.min() >= 0.0
        assert taus.max() <= d.tau_max + 1e-12

    def test_per_agent_streams_stable_under_growth(self):
        bank5 = poisson_delay_bank(1.0, 99, 50.0, 5)
        bank8 = poisson_delay_bank(1.0, 99, 50.0, 8)
        for i in range(5):
            assert np.array_equal(bank5[i].arrivals, bank8[i].arrivals)

    def test_arrival_bank_matches_loop(self):
        bank_delays = poisson_delay_bank(1.0, 5, 30.0, 6)
        bank = ArrivalBank(bank_delays)
        for t in np.linspace(0.0, 30.0, 200):
            vec = bank.last_arrivals(t)
            loop = np.array([t - d(t) for d in bank_delays])
            assert np.abs(vec - loop).max() < 1e-12

    def test_arrival_bank_window_matches_loop(self):
        bank_delays = poisson_delay_bank(1.0, 5, 30.0, 6)
        bank = ArrivalBank(bank_delays)
        arrivals = np.sort(np.concatenate([d.arrivals for d in bank_delays]))
        first, final = arrivals[0], arrivals[-1]
        points = [
            *arrivals[::7],                                   # exactly on an arrival
            *np.nextafter(arrivals[::7], -np.inf),            # one ulp before one
            0.0, first / 2, np.nextafter(first, -np.inf),     # before the first
            final, final + 0.5, 30.0,                         # after the last
        ]
        for t in points:
            times, lo, hi = bank.window(t)
            # The last arrival before or at t, per delay, by its own lookup.
            loop = np.array([d.arrivals[d.arrivals <= t].max(initial=0.0)
                             for d in bank_delays])
            assert np.array_equal(times, loop), t
            assert lo == loop.max() <= t < hi
            assert hi == arrivals[arrivals > t].min(initial=np.inf), t
            for s in (lo, np.nextafter(hi, -np.inf)):
                assert np.array_equal(bank.window(s)[0], times), (t, s)
        assert bank.window(final)[2] == np.inf
        assert bank.window(0.0)[1:] == (0.0, first)


class CountingView:
    """FunctionView that counts its reads and reports a chosen committed end."""

    def __init__(self, fn, t_last):
        self.view = FunctionView(fn)
        self.source = self.view.source
        self.t_last = t_last
        self.reads = 0

    def components(self, ts, idx):
        self.reads += 1
        return self.view.components(ts, idx)


class TestHeldReads:
    def delays(self):
        return [PoissonSampledDelay([1.0, 3.0], 10.0), PoissonSampledDelay([2.0], 10.0)]

    def test_held_between_arrivals_once_committed(self):
        reads = HeldReads(self.delays(), [0, 1])
        view = CountingView(lambda s: np.array([s, 10.0 + s]), t_last=np.inf)
        for t in (2.0, 2.5, 2.999):
            assert np.array_equal(reads(t, view), [1.0, 12.0])
        assert view.reads == 1
        assert np.array_equal(reads(3.0, view), [3.0, 12.0])
        assert view.reads == 2
        with pytest.raises(ValueError):
            reads(3.5, view)[0] = 0.0  # the held values are read-only

    def test_reads_at_the_committed_end_are_held(self):
        reads = HeldReads(self.delays(), [0, 1])
        view = CountingView(lambda s: np.array([s, -s]), t_last=2.0)
        for t in (2.0, 2.5, 2.999):  # the latest arrival, 2.0, is the committed end
            assert np.array_equal(reads(t, view), [1.0, -2.0])
        assert view.reads == 1

    def test_uncommitted_reads_are_not_held(self):
        reads = HeldReads(self.delays(), [0, 1])
        view = CountingView(lambda s: np.array([s, -s]), t_last=2.5)
        for t in (3.0, 3.2, 3.4):
            assert np.array_equal(reads(t, view), [3.0, -2.0])
        assert view.reads == 3

    def test_another_history_is_read_afresh(self):
        reads = HeldReads(self.delays(), [0, 1])
        a = CountingView(lambda s: np.array([s, s]), t_last=np.inf)
        b = CountingView(lambda s: np.array([-s, -s]), t_last=np.inf)
        assert np.array_equal(reads(2.2, a), [1.0, 2.0])
        assert np.array_equal(reads(2.4, b), [-1.0, -2.0])
        assert np.array_equal(reads(2.6, b), [-1.0, -2.0])
        assert (a.reads, b.reads) == (1, 1)

    def test_other_delays_read_every_call(self):
        reads = HeldReads([ConstantDelay(0.5), RampDelay(1.0)], [0, 0])
        view = CountingView(lambda s: np.array([s]), t_last=np.inf)
        for t in (0.25, 0.5, 0.5, 3.0):
            assert np.array_equal(reads(t, view), [t - 0.5, t - min(t, 1.0)])
        assert view.reads == 4

    def test_ramp_reads_held_before_the_cap(self):
        reads = HeldReads([RampDelay(1.0), RampDelay(2.0)], [0, 1])
        view = CountingView(lambda s: np.array([1.0 + s, 2.0 - s]), t_last=np.inf)
        for t in (0.0, 0.3, 0.999):
            assert np.array_equal(reads(t, view), [1.0, 2.0])
        assert view.reads == 1
        for t in (1.0, 1.5, 1.5):  # from the smallest cap on, read afresh
            assert np.array_equal(reads(t, view), [1.0 + t - 1.0, 2.0 - t + min(t, 2.0)])
        assert view.reads == 4

    def test_one_shared_delay_reads_like_one_per_read(self):
        view = FunctionView(lambda s: np.array([s, 10.0 + s, 20.0 + s]))
        for delay in (PoissonSampledDelay([1.0, 3.0], 10.0), RampDelay(2.0), ConstantDelay(0.5)):
            shared, listed = HeldReads(delay, [2, 0]), HeldReads([delay, delay], [2, 0])
            for t in (0.5, 1.5, 3.25, 7.0):
                assert np.array_equal(shared(t, view), listed(t, view))


class TestCounterexample:
    """The appendix-D preset under a common input a: the follower reads the
    leader through tau(t) = min(t, 5), so while the ramp is active the
    agents drift apart as a * (t - 1 + e^-t)."""

    @staticmethod
    def drift(a, t_end, record_every):
        sc = dataclasses.replace(preset("counterexample_appD"), disturbance_vector=(a, a),
                                 t_end=t_end, record_every=record_every)
        traj = simulate_scenario(sc)
        x = np.concatenate([x for _, x, _ in traj.plant_blocks()])
        drift = x[:, 0] - x[:, 1]
        t = traj.times
        err = np.abs(drift - a * (t - 1.0 + np.exp(-t))).max()
        return traj, drift, err

    def test_unit_input_drift(self):
        traj, drift, err = self.drift(1.0, 5.0, 5)
        assert err < 1e-4
        i = np.searchsorted(traj.times, 1.0)
        assert abs(drift[i] - np.exp(-1.0)) < 1e-4

    def test_zero_input_no_drift(self):
        _, drift, err = self.drift(0.0, 2.0, 10)
        assert err < 1e-12
        assert np.abs(drift).max() < 1e-12

    def test_drift_linear_in_input(self):
        _, _, err = self.drift(-2.0, 3.0, 10)
        assert err < 2e-4

    def test_ramp_reads_held(self, monkeypatch):
        # Every read before the cap is at t - t = 0, so the held read serves
        # all but the first step's stages and the read at the cap.
        reads = []
        components = HistoryBuffer.components

        def counted(buf, ts, idx):
            reads.append(ts)
            return components(buf, ts, idx)

        monkeypatch.setattr(HistoryBuffer, "components", counted)
        self.drift(1.0, 5.0, 5)
        assert len(reads) <= 6
