"""Deterministic fixed-step integration, delay processes, history buffers.

The integrator is classical 4-stage Runge-Kutta on a fixed grid. Delayed
terms are handled method-of-steps style: committed samples live at step
boundaries and queries interpolate linearly between them. Pre-history
(t < 0) is the constant initial condition. Queries past the committed end,
which only occur when a delay is shorter than one step, interpolate to the
current RK stage point so that zero delays reproduce the undelayed path.

Every history view handed to an operator or controller answers
``components(ts, idx)``: entry m is component idx[m] of the state at time
ts[m]. A view also reports ``t_last``, the end of its committed samples,
and ``source``, the history it reads. ``FunctionView`` adapts a plain
function s -> state to that protocol; its committed end is +inf.

Delayed reads go through one sample-and-hold reader, ``HeldReads``. An
arrival-based delay reads the state at the agent's last arrival, so the
read times stay fixed on a window [lo, hi) between arrivals
(``ArrivalBank.window``). Once every read time lies before the committed
end, the values read are fixed as well: the reader keeps them and returns
them until t leaves the window. Reads whose arrival lies inside the current
step still go through the view, and its provisional segment, at every
stage. Other delays look up and read afresh on every call.

Everything here is deterministic: identical inputs (including seeds) give
bit-identical trajectories within one environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DivergenceError

BLOWUP_LIMIT = 1e9


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings and the rules of the integration grid.

    The horizon must be a whole number of steps (to a relative 1e-9) and
    ``record_every`` must divide the step count; the latter is checked when
    ``nsteps`` is read.
    """

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.dt <= self.t_end < math.inf:
            raise ConfigError("t_end must be finite and at least one step")
        if self.record_every < 1 or self.record_every != int(self.record_every):
            raise ConfigError("record_every must be a positive integer")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(
                f"t_end = {self.t_end} is not a whole number of steps of dt = {self.dt}"
            )

    @property
    def nsteps(self) -> int:
        nsteps = int(round(self.t_end / self.dt))
        if nsteps % self.record_every != 0:
            raise ConfigError("record_every must divide the step count")
        return nsteps


@dataclass
class Trajectory:
    """Recorded samples of one run.

    ``states`` holds the raw integrated vectors (stacked cascade states or
    plant [x; xdot]); ``plant_x``/``plant_xdot`` are filled in by the
    scenario layer after reconstruction.
    """

    times: np.ndarray
    states: np.ndarray
    plant_x: np.ndarray | None = None
    plant_xdot: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)


class HistoryBuffer:
    """Committed state samples on the uniform grid k * dt, starting at t = 0.

    ``source`` is a small token that identifies these samples to readers
    that hold values read from them, without keeping the samples alive.
    """

    __slots__ = ("dt", "values", "count", "source")

    def __init__(self, dt, nsteps, x0):
        self.dt = dt
        self.values = np.empty((nsteps + 1, len(x0)))
        self.values[0] = x0
        self.count = 1
        self.source = object()

    def commit(self, x):
        self.values[self.count] = x
        self.count += 1

    @property
    def t_last(self):
        return (self.count - 1) * self.dt

    def state_at(self, s) -> np.ndarray:
        """Linear interpolation, clamped to [0, t_last]."""
        pos = s / self.dt
        last = self.count - 1
        if pos <= 0.0:
            return self.values[0]
        if pos >= last:
            return self.values[last]
        k = int(pos)
        frac = pos - k
        return (1.0 - frac) * self.values[k] + frac * self.values[k + 1]

    def components(self, ts, idx) -> np.ndarray:
        """Vectorized clamped reads of single components at per-entry times."""
        last = self.count - 1
        if last == 0:
            return self.values[0, idx]
        pos = np.clip(np.asarray(ts, dtype=float) / self.dt, 0.0, last)
        k = np.minimum(pos.astype(np.int64), last - 1)
        frac = pos - k
        return (1.0 - frac) * self.values[k, idx] + frac * self.values[k + 1, idx]


class StepView:
    """History view handed to the vector field during one RK stage.

    Reads at or before the committed end use the buffer; later reads
    interpolate between the committed end and the provisional stage point
    (t_stage, z_stage). Only delays smaller than one step ever hit the
    provisional segment.
    """

    __slots__ = ("buf", "t_stage", "z_stage", "t_last", "source")

    def __init__(self, buf, t_stage, z_stage):
        self.buf = buf
        self.source = buf.source
        self.t_stage = t_stage
        self.z_stage = z_stage
        self.t_last = buf.t_last

    def __call__(self, s) -> np.ndarray:
        if s <= self.t_last or self.t_stage <= self.t_last:
            return self.buf.state_at(s)
        if s >= self.t_stage:
            return self.z_stage
        frac = (s - self.t_last) / (self.t_stage - self.t_last)
        return (1.0 - frac) * self.buf.values[self.buf.count - 1] + frac * self.z_stage

    def components(self, ts, idx) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = np.asarray(idx)
        if self.t_stage <= self.t_last or ts.max() <= self.t_last:
            return self.buf.components(ts, idx)
        out = self.buf.components(np.minimum(ts, self.t_last), idx)
        prov = ts > self.t_last
        frac = np.minimum(
            (ts[prov] - self.t_last) / (self.t_stage - self.t_last), 1.0
        )
        tail = self.buf.values[self.buf.count - 1, idx[prov]]
        out[prov] = (1.0 - frac) * tail + frac * self.z_stage[idx[prov]]
        return out


class SliceView:
    """Restriction of a stacked-state history view to the block at ``start``."""

    __slots__ = ("base", "start", "t_last", "source")

    def __init__(self, base, start):
        self.base = base
        self.start = start
        self.t_last = base.t_last
        self.source = (base.source, start)

    def components(self, ts, idx):
        return self.base.components(ts, np.asarray(idx) + self.start)


class FunctionView:
    """History view over a plain function s -> state vector.

    The function is taken as fixed, so every read is committed.
    """

    __slots__ = ("fn", "source")
    t_last = math.inf

    def __init__(self, fn):
        self.fn = self.source = fn

    def components(self, ts, idx):
        return np.array([self.fn(s)[i] for s, i in zip(ts, idx)])


class HeldReads:
    """Sample-and-hold reads of history components at delayed read times.

    ``reads(t, view)`` returns component idx[m] of the viewed state at the
    read time of delays[m] at t. The read times hold on the window [lo, hi)
    of ``read_window(delays)``, and lo bounds them from above. When lo lies
    strictly before the view's committed end, the values read are kept and
    returned as they are, read-only, until t leaves the window or another
    history is read. They equal a fresh read: interpolation between
    committed samples never changes. (A read exactly at the committed end
    clamps there, and a later read may interpolate an ulp past it, so that
    one is not kept.)
    """

    __slots__ = ("window", "idx", "times", "lo", "hi", "source", "held")

    def __init__(self, delays, idx):
        self.window = read_window(delays)
        self.idx = np.asarray(idx, dtype=np.int64)
        self.times = None
        self.lo = self.hi = -math.inf
        self.source = self.held = None

    def __call__(self, t, view):
        if not self.lo <= t < self.hi:
            self.times, self.lo, self.hi = self.window(t)
            self.held = None
        elif self.held is not None and view.source == self.source:
            return self.held
        vals = view.components(self.times, self.idx)
        if self.lo < view.t_last:
            vals.flags.writeable = False
            self.source, self.held = view.source, vals
        return vals


def integrate(field, x0, cfg: IntegratorConfig, tau_max=None) -> Trajectory:
    """Integrate ``xdot = field(x, t, hist)`` over [0, t_end] with RK4.

    ``tau_max = None`` disables the history machinery entirely (hist is
    passed as None); any ``tau_max >= 0`` enables it, including 0 for
    delayed fields whose delays happen to vanish. Raises DivergenceError
    (carrying the partial trajectory) if the state leaves |x| <= 1e9 or
    turns non-finite.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ConfigError("initial state must be a vector")
    if not np.isfinite(x).all():
        raise ConfigError("initial state must be finite")
    dt = cfg.dt
    nsteps = cfg.nsteps

    use_hist = tau_max is not None
    buf = HistoryBuffer(dt, nsteps, x) if use_hist else None

    every = cfg.record_every
    nrec = nsteps // every + 1
    times = np.arange(nrec) * (dt * every)
    states = np.empty((nrec, len(x)))
    states[0] = x
    rec = 1

    half = 0.5 * dt
    # A blow-up overflows inside the RK stages before the step-end test
    # reports it; its overflow warnings would only repeat that report.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            t = k * dt
            if use_hist:
                k1 = field(x, t, StepView(buf, t, x))
                z = x + half * k1
                k2 = field(z, t + half, StepView(buf, t + half, z))
                z = x + half * k2
                k3 = field(z, t + half, StepView(buf, t + half, z))
                z = x + dt * k3
                k4 = field(z, t + dt, StepView(buf, t + dt, z))
            else:
                k1 = field(x, t, None)
                z = x + half * k1
                k2 = field(z, t + half, None)
                z = x + half * k2
                k3 = field(z, t + half, None)
                z = x + dt * k3
                k4 = field(z, t + dt, None)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            # False for NaN as well as for +-inf and finite blow-ups.
            if not np.abs(x).max() <= BLOWUP_LIMIT:
                partial = Trajectory(times[:rec].copy(), states[:rec].copy())
                raise DivergenceError((k + 1) * dt, partial)

            if use_hist:
                buf.commit(x)
            if (k + 1) % every == 0:
                states[rec] = x
                rec += 1

    return Trajectory(times, states)


# ---------------------------------------------------------------------------
# Delay processes


@dataclass(frozen=True)
class ConstantDelay:
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ConfigError("constant delay must be nonnegative")

    @property
    def tau_max(self):
        return self.tau

    def __call__(self, t):
        return self.tau


@dataclass(frozen=True)
class RampDelay:
    """tau(t) = min(t, cap): the agent only ever sees the initial state
    until t reaches the cap. Realizes the drift counterexample."""

    cap: float

    def __post_init__(self):
        if not self.cap > 0:
            raise ConfigError("ramp cap must be positive")

    @property
    def tau_max(self):
        return self.cap

    def __call__(self, t):
        return t if t < self.cap else self.cap


class PoissonSampledDelay:
    """Sawtooth delay from aperiodic arrivals: tau(t) = t - latest arrival.

    Before the first arrival tau(t) = t (no information received yet).
    ``tau_max`` is the largest gap realized on [0, t_end].
    """

    def __init__(self, arrivals, t_end):
        arrivals = np.asarray(arrivals, dtype=float)
        self.arrivals = arrivals[arrivals <= t_end]
        self.t_end = float(t_end)
        if len(self.arrivals) == 0:
            self.tau_max = self.t_end
        else:
            gaps = np.diff(np.concatenate(([0.0], self.arrivals, [self.t_end])))
            self.tau_max = float(gaps.max())

    def __call__(self, t):
        idx = self.arrivals.searchsorted(t, "right") - 1
        if idx < 0:
            return t
        return t - self.arrivals[idx]


class ArrivalBank:
    """Vectorized last-arrival lookup across agents.

    Pads the per-agent arrival sequences into one matrix (sentinel arrival
    at t = 0, +inf beyond the end) so a single comparison sweep yields every
    agent's most recent arrival. The delayed read time t - tau_i(t) of a
    sawtooth delay *is* that arrival time.
    """

    def __init__(self, delays):
        arrs = [d.arrivals for d in delays]
        width = max((len(a) for a in arrs), default=0) + 1
        self.A = np.full((len(arrs), width), np.inf)
        self.A[:, 0] = 0.0
        for i, a in enumerate(arrs):
            self.A[i, 1:1 + len(a)] = a
        self.rows = np.arange(len(arrs))
        # Every arrival of every agent, sorted, closed by +inf.
        self.merged = np.sort(np.append(self.A[:, 1:], np.inf))

    def last_arrivals(self, t) -> np.ndarray:
        idx = (self.A <= t).sum(axis=1) - 1
        return self.A[self.rows, idx]

    def window(self, t):
        """(last arrivals at t, lo, hi): the last arrivals are the same at
        every time in [lo, hi), from the latest of them to the next arrival
        of any agent (+inf after the last one)."""
        times = self.last_arrivals(t)
        hi = self.merged[self.merged.searchsorted(t, "right")]
        return times, times.max(), hi


def read_window(delays):
    """Callable t -> (read times t - d(t) for d in ``delays``, lo, hi).

    The read times are the same at every time in [lo, hi), and lo bounds
    them from above. When every delay is arrival-based, an ArrivalBank
    looks them up for all delays at once and the window runs between
    arrivals. Otherwise the window [t, t) is empty.
    """
    if delays and all(hasattr(d, "arrivals") for d in delays):
        return ArrivalBank(delays).window
    return lambda t: ([t - d(t) for d in delays], t, t)


def sample_poisson_delays(mean, seed, t_end) -> PoissonSampledDelay:
    """One seeded realization of Poisson measurement arrivals on [0, t_end].

    Inter-arrival times come from the inverse exponential CDF driven by a
    PCG64 stream, so a fixed seed reproduces the identical arrival sequence
    on any platform. ``seed`` may be an int or a (seed, agent) tuple.
    """
    if not mean > 0:
        raise ConfigError("mean inter-arrival time must be positive")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    arrivals = []
    t = 0.0
    while True:
        t += -mean * np.log1p(-rng.random())
        if t > t_end:
            break
        arrivals.append(t)
    return PoissonSampledDelay(np.array(arrivals), t_end)


def poisson_delay_bank(mean, seed, t_end, n_agents) -> list[PoissonSampledDelay]:
    """Independent per-agent arrival streams derived from (seed, agent index).

    Adding agents never perturbs the streams of existing agents.
    """
    return [sample_poisson_delays(mean, (seed, i), t_end) for i in range(n_agents)]


# ---------------------------------------------------------------------------
# Appendix-style exact counterexample


def counterexample_two_agent(a, tau_cap, cfg: IntegratorConfig):
    """Two agents from consensus, the follower reading the leader through a
    ramp delay tau(t) = min(t, tau_cap):

        zdot_0 = a
        zdot_1 = -z_1 + z_0(t - tau(t)) + a

    While the ramp is active the follower only ever sees z_0(0), so the
    agents drift apart as a * (t - 1 + exp(-t)) despite the common input.
    Returns the trajectory and the max absolute error against that closed
    form over the grid points with t <= tau_cap.
    """
    a = float(a)
    delay = RampDelay(tau_cap)

    def field(z, t, hist):
        lagged = hist(t - delay(t))[0]
        return np.array([a, -z[1] + lagged + a])

    traj = integrate(field, [0.0, 0.0], cfg, tau_max=tau_cap)
    mask = traj.times <= tau_cap + 1e-12
    drift = traj.states[mask, 0] - traj.states[mask, 1]
    analytic = a * (traj.times[mask] - 1.0 + np.exp(-traj.times[mask]))
    max_err = float(np.abs(drift - analytic).max())
    return traj, max_err
