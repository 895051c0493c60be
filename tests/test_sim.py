import numpy as np
import pytest

from consensuslab.dynamics import Cascade, cascade_rhs
from consensuslab.exceptions import ConfigError, DivergenceError
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.operators import DelayedRelative, LinearStatic
from consensuslab.sim import (
    ArrivalBank,
    ConstantDelay,
    FunctionView,
    HeldReads,
    HistoryBuffer,
    IntegratorConfig,
    PoissonSampledDelay,
    RampDelay,
    StepView,
    counterexample_two_agent,
    integrate,
    poisson_delay_bank,
    sample_poisson_delays,
)


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
        cfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=7)
        with pytest.raises(ConfigError):
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

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=-0.1, t_end=1.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.1, t_end=0.01)

    def test_horizon_must_be_whole_steps(self):
        # 1.0 / 0.003 = 333.33 steps would silently stop at t = 0.999
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.003, t_end=1.0)
        # 0.3 / 0.1 is 2.9999999999999996 in floating point: a whole number
        assert IntegratorConfig(dt=0.1, t_end=0.3).nsteps == 3


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
        delayed = Cascade((DelayedRelative(g.weights, lambda t: 0.0, 0.0),))
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
        rng = np.random.default_rng(0)
        buf = HistoryBuffer(dt=0.1, nsteps=50, x0=rng.normal(size=4))
        for _ in range(50):
            buf.commit(rng.normal(size=4))
        view = StepView(buf, t_stage=5.03, z_stage=rng.normal(size=4))
        ts = rng.uniform(-0.5, 5.03, size=40)
        idx = rng.integers(0, 4, size=40)
        vec = view.components(ts, idx)
        scalar = np.array([view(s)[i] for s, i in zip(ts, idx)])
        assert np.abs(vec - scalar).max() < 1e-14


class TestDelayProcesses:
    def test_constant_and_ramp(self):
        c = ConstantDelay(0.4)
        assert c(10.0) == 0.4 and c.tau_max == 0.4
        r = RampDelay(5.0)
        assert r(2.0) == 2.0 and r(7.0) == 5.0 and r.tau_max == 5.0

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


class TestCounterexample:
    def test_unit_input_drift(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=5.0, record_every=5)
        traj, err = counterexample_two_agent(1.0, 5.0, cfg)
        assert err < 1e-4
        i = np.searchsorted(traj.times, 1.0)
        drift = traj.states[i, 0] - traj.states[i, 1]
        assert abs(drift - np.exp(-1.0)) < 1e-4

    def test_zero_input_no_drift(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=2.0, record_every=10)
        traj, err = counterexample_two_agent(0.0, 5.0, cfg)
        assert err < 1e-12
        assert np.abs(traj.states[:, 0] - traj.states[:, 1]).max() < 1e-12

    def test_drift_linear_in_input(self):
        cfg = IntegratorConfig(dt=1e-3, t_end=3.0, record_every=10)
        _, err = counterexample_two_agent(-2.0, 5.0, cfg)
        assert err < 2e-4
