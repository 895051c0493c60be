"""Deterministic fixed-step integration, delay processes, history buffers.

The integrator is classical 4-stage Runge-Kutta on a fixed grid. Delayed
terms are handled method-of-steps style: committed samples live at step
boundaries, the latest ceil(tau_max/dt) + 2 of them, and queries
interpolate linearly between them. Pre-history (t < 0) is the constant
initial condition. Queries past the committed end, which only occur when a
delay is shorter than one step, interpolate to the current RK stage point
so that zero delays reproduce the undelayed path. A query older than the
samples kept raises InsufficientHistoryError.

A field may say where it is affine by carrying ``affine(s, h)``, which
answers (A, c, j) when s' = A s + c holds at every RK4 stage point of the
next j steps of size h from s, and None when it cannot say (``dynamics``
attaches one to every block program that it can fold: an affine program
answers one (A, c) for the whole run, a saturated cascade the (A, c) of
its clamp pattern for as many steps as a bound proves that the pattern
holds). Those j steps are taken by RK4's own step polynomial, with no field
call: one RK4 step of an affine field is exactly s <- s + (Q s + g), with
Q = R(hA) - I and g = h P(hA) c, where R(z) = 1 + z P(z) = 1 + z + z^2/2 +
z^3/6 + z^4/24 is RK4's stability function. Where the field is affine at
every stage point it is the same method, so truncation error, stability
and verdicts are RK4's; only the rounding differs.

A field whose terms are known functions of t alone, before integration,
says so by carrying a non-None ``prefetch`` (``dynamics`` attaches one to
every gated block program). The stage path hands it, once every
``PREFETCH_STEPS`` steps, the exact stage times of the steps to come, so
that the field computes those terms for the whole block at once and looks
them up by t at each stage.

Every history view handed to a field or an operator answers
``components(ts, idx)``: entry m is column idx[m] of the whole viewed
state at time ts[m], so each delayed read names the absolute columns it
touches. A view also reports ``t_last``, the end of its committed samples,
and ``source``, the history it reads. The interpolation rule is written
once, in ``HistoryBuffer.components``, and the read past the committed end
once, in ``StepView.components``; the whole-state reads
``HistoryBuffer.state_at`` and ``StepView(s)`` go through them.

Delayed reads go through one sample-and-hold reader, ``HeldReads``. An
arrival-based delay reads the state at the agent's last arrival, so the
read times stay fixed on a window [lo, hi) between arrivals
(``ArrivalBank.window``). A ramp delay min(t, cap) reads the state at time
0 exactly on its window [0, cap). Once every read time lies at or before
the committed end, the values read are fixed as well: the reader keeps
them and returns them until t leaves the window. Reads whose arrival lies
inside the current step still go through the view, and its provisional
segment, at every stage. Other delays, and a ramp from its cap on, look up
and read afresh on every call. ``HeldReads`` is the one place that rejects a
read without a history view. Each delay carries its bound ``tau_max``, and
a delayed system derives its own with ``delay_bound``; no caller states one.

Everything here is deterministic: identical inputs (including seeds) give
bit-identical trajectories within one environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DivergenceError, InsufficientHistoryError, OperatorError

BLOWUP_LIMIT = 1e9
_BLOWUP_SQUARED = BLOWUP_LIMIT**2  # 1e18, exact in binary64

# Rows per block of ``Trajectory.plant_blocks``: plant reconstruction, the
# report's metrics and the CSV writer each take a record this many rows at
# a time, so their temporaries scale with one block, not with the record.
# Large enough to amortize the per-block calls: saturated_fig2 recorded at
# every step has 40,001 rows, 40 blocks.
ROW_BLOCK = 1024

# Steps per ``prefetch`` call of ``integrate``: a field's gate tables hold
# the 3 * PREFETCH_STEPS stage times of one block of steps, so a gated run of
# m N-agent blocks holds 768 rows of m N floats, 0.37 MB at N = 20 and m = 3.
# One vectorized sin per block amortizes its call over 256 steps.
PREFETCH_STEPS = 256


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings and the rules of the integration grid,
    checked on construction: the horizon must be a whole number of steps (to
    a relative 1e-9) and ``record_every`` must divide the step count."""

    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.dt <= self.t_end < math.inf:
            raise ConfigError("t_end must be finite and at least one step")
        every = self.record_every
        if not isinstance(every, (int, np.integer)) or isinstance(every, bool) or every < 1:
            raise ConfigError("record_every must be a positive integer")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigError(
                f"t_end = {self.t_end} is not a whole number of steps of dt = {self.dt}"
            )
        if self.nsteps % self.record_every != 0:
            raise ConfigError("record_every must divide the step count")

    @property
    def nsteps(self) -> int:
        return int(round(self.t_end / self.dt))


def _positions(states, times):
    """The plant map of a bare ``integrate`` record: its states are positions."""
    return states, None


@dataclass
class Trajectory:
    """Recorded samples of one run.

    ``states`` holds the raw integrated vectors (stacked cascade states or
    plant [x; xdot]). ``plant`` maps a block of recorded states and the
    block's times to the plant (x, xdot) of those rows: x the positions in
    the simulated, offset-free coordinates x - d_ref, xdot None at order 1.
    The scenario layer sets it to the system's plant map; the default reads
    the states as positions. Plant states are derived where they are read,
    one block at a time (``plant_blocks``), and are never stored.
    """

    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)
    plant: object = _positions

    def __len__(self):
        return len(self.times)

    def plant_blocks(self):
        """(first row, x, xdot) of each block of ``ROW_BLOCK`` recorded rows."""
        for first in range(0, len(self), ROW_BLOCK):
            rows = slice(first, first + ROW_BLOCK)
            yield (first, *self.plant(self.states[rows], self.times[rows]))


class HistoryBuffer:
    """The latest committed whole states on the uniform grid k * dt, from
    t = 0: a ring of ``nsteps + 1`` rows that spans ``nsteps`` steps back
    from the committed end. Sample k lives in row k % rows until sample
    k + rows overwrites it.

    ``source`` is a small token that identifies these samples to readers
    that hold values read from them, without keeping the samples alive.
    """

    __slots__ = ("dt", "values", "rows", "count", "source")

    def __init__(self, dt, nsteps, x0):
        self.dt = dt
        self.rows = nsteps + 1
        self.values = np.empty((self.rows, len(x0)))
        self.values[0] = x0
        self.count = 1
        self.source = object()

    def commit(self, x):
        self.values[self.count % self.rows] = x
        self.count += 1

    @property
    def t_last(self):
        return (self.count - 1) * self.dt

    def state_at(self, s) -> np.ndarray:
        """The whole state at time s, read as ``components`` reads it."""
        n = self.values.shape[1]
        return self.components(np.full(n, s), np.arange(n))

    def components(self, ts, idx) -> np.ndarray:
        """Linear interpolation of single components at per-entry times,
        clamped to [0, t_last]. A time within rounding of grid index k
        reads sample k exactly, however many samples are committed. A read
        that needs a sample the ring has overwritten raises
        InsufficientHistoryError."""
        last = self.count - 1
        if last == 0:
            return self.values[0, idx]
        pos = np.asarray(ts, dtype=float) / self.dt
        near = np.rint(pos)
        pos = np.clip(np.where(np.abs(pos - near) <= 1e-12 * pos, near, pos), 0.0, last)
        k = np.minimum(pos.astype(np.int64), last - 1)
        frac = pos - k
        rows, oldest = self.rows, self.count - self.rows
        if oldest > 0 and k.min() < oldest:
            raise InsufficientHistoryError(
                f"a history read at t = {np.ravel(ts)[k.argmin()]:.9g} is older than "
                f"the oldest sample kept, t = {oldest * self.dt:.9g}; the history's "
                f"tau_max is too small for the delays read")
        return (1.0 - frac) * self.values[k % rows, idx] + frac * self.values[(k + 1) % rows, idx]


class StepView:
    """View of a ``HistoryBuffer``, and its ``source``, for one RK stage.

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
        n = len(self.z_stage)
        return self.components(np.full(n, s), np.arange(n))

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
        tail = self.buf.values[(self.buf.count - 1) % self.buf.rows, idx[prov]]
        out[prov] = (1.0 - frac) * tail + frac * self.z_stage[idx[prov]]
        return out


class HeldReads:
    """Sample-and-hold reads of history components at delayed read times.

    ``reads(t, view)`` returns component idx[m] of the viewed state at the
    read time of delays[m] at t; ``delays`` is one delay per read, or one
    delay that every read shares. The read times hold on the window [lo, hi)
    of ``read_window(delays)``, and lo bounds them from above. When lo lies
    at or before the view's committed end, the values read are kept and
    returned as they are, read-only, until t leaves the window or another
    history is read. They equal a fresh read: interpolation between
    committed samples never changes, and a kept value stays valid after the
    history overwrites the samples it came from. A call without a view raises
    InsufficientHistoryError.
    """

    __slots__ = ("window", "idx", "times", "lo", "hi", "source", "held")

    def __init__(self, delays, idx):
        self.idx = np.asarray(idx, dtype=np.int64)
        self.window = read_window([delays] * len(self.idx) if callable(delays) else delays)
        self.times = None
        self.lo = self.hi = -math.inf
        self.source = self.held = None

    def __call__(self, t, view):
        if view is None:
            raise InsufficientHistoryError("a delayed read needs a history view")
        if not self.lo <= t < self.hi:
            self.times, self.lo, self.hi = self.window(t)
            self.held = None
        elif self.held is not None and view.source is self.source:
            return self.held
        vals = view.components(self.times, self.idx)
        if self.lo <= view.t_last:
            vals.flags.writeable = False
            self.source, self.held = view.source, vals
        return vals


def integrate(field, x0, cfg: IntegratorConfig, tau_max=None) -> Trajectory:
    """Integrate ``xdot = field(x, t, hist)`` over [0, t_end] with RK4.

    ``tau_max`` is the bound a delayed system derives from its delays. None
    disables the history entirely (hist is passed as None). A finite
    ``tau_max >= 0``, 0 too for delayed fields whose delays happen to
    vanish, keeps the latest min(nsteps, ceil(tau_max/dt) + 1) + 1 states:
    every read at or after t - tau_max at stage time t, with a step to spare
    for rounding. A read further back raises InsufficientHistoryError.

    Each step is one of two: the affine step or the four stages. A field
    with a non-None ``affine`` is asked ``affine(x, dt)`` before a step
    whenever the affine steps of its last answer have run out. An answer
    (A, c, j) admits the next j steps, which are taken as
    x <- x + (Q x + g) without a field call; None, or j = 0, takes the four
    stages for this step and asks again before the next. Q and g are built
    here by Horner's rule (``_rk4_step``), in three D x D products, only
    when an answer carries another A object than the last one built, so an
    unchanged A costs nothing more. The increment form keeps the stage
    path's rounding: x + (Q x + g) rounds once against x, where R(hA) x
    would round 1 + q on R's diagonal at every step (max |delta| from the
    stage path 1e-10 against 1e-13 on serial_lti, and the naive-serial
    residual 9.3e-11 against 5.4e-12); adding g before x keeps gps_fig3's
    drift at 1e-12 against 4e-10. The cost rule: ``dynamics`` answers only
    where the program's M is dense, which the sparse threshold allows only
    where D^2 floats fit, and an A is built only while at least D steps of
    the run remain, so that the 6 D^3-flop build can pay for itself.
    A saturated cascade keeps one clamp pattern over most of its run (24
    builds in saturated_fig2's 40,000 steps), so an answer that admits few
    steps usually carries the A already built.

    A field with a non-None ``prefetch`` on the stage path is handed, before
    step k of every block of ``PREFETCH_STEPS`` steps (and of the shorter
    last block), the array of the block's stage times k' dt, k' dt + dt/2
    and k' dt + dt for each of its steps k'. Built as ``ks * dt``,
    ``+ dt/2`` and ``+ dt``, each equals bit for bit the Python float that
    the loop passes at that stage, so a field may key on them exactly. The
    field is then called at those times and no others, and must return
    what it would without the call.

    Raises DivergenceError (carrying the partial trajectory) at the end of
    the first step whose state leaves |x| <= 1e9 or turns non-finite. The
    test reads x . x first and takes the exact max |x_i| only when the dot
    exceeds 1e18, which a blown-up or non-finite state always makes it do.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or len(x) == 0 or not np.isfinite(x).all():
        raise ConfigError("initial state must be a nonempty finite vector")
    if tau_max is not None and not 0 <= tau_max < math.inf:
        raise ConfigError(f"tau_max must be None or finite and nonnegative, got {tau_max}")
    dt = cfg.dt
    nsteps = cfg.nsteps

    use_hist = tau_max is not None
    buf = None
    if use_hist:
        # tau_max / dt overflows to inf for a huge tau_max: compare before math.ceil.
        back = tau_max / dt
        span = nsteps if back >= nsteps else min(nsteps, math.ceil(back) + 1)
        buf = HistoryBuffer(dt, span, x)

    every = cfg.record_every
    nrec = nsteps // every + 1
    times = np.arange(nrec) * (dt * every)
    states = np.empty((nrec, len(x)))
    states[0] = x
    rec = 1

    affine = getattr(field, "affine", None)
    A = Q = g = None
    until = 0  # the affine steps admitted run up to step `until`
    prefetch = getattr(field, "prefetch", None)

    half = 0.5 * dt
    # The coefficients h/2, 2, h and h/6 as 0-d float64 arrays: a ufunc takes
    # one at 0.7x a Python float's call cost (0.91 against 1.29 us at D = 20)
    # and rounds each product exactly as the float would.
    c_half, c_two, c_dt, c_sixth = (np.array(c) for c in (half, 2.0, dt, dt / 6.0))
    # In place, rounded as x + h k and ((k1 + 2 k2) + 2 k3) + k4 would be; each
    # slope is read before the stage point z is overwritten, and none is written.
    z, acc, term = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    # A blow-up overflows inside the RK stages before the step-end test
    # reports it; its overflow warnings would only repeat that report.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            if k >= until and affine is not None:
                answer = affine(x, dt)
                if answer is not None:
                    new, c, j = answer
                    if new is not A and nsteps - k >= len(x):
                        A, (Q, g) = new, _rk4_step(new, c, dt)
                    if new is A:
                        until = k + j
            if k < until:
                inc = Q.dot(x)
                if g is not None:
                    inc += g
                x += inc
            else:
                if prefetch is not None and k % PREFETCH_STEPS == 0:
                    t0 = np.arange(k, min(k + PREFETCH_STEPS, nsteps)) * dt
                    prefetch(np.concatenate((t0, t0 + half, t0 + dt)))
                t = k * dt
                k1 = field(x, t, StepView(buf, t, x) if use_hist else None)
                np.add(x, np.multiply(k1, c_half, out=z), out=z)
                k2 = field(z, t + half, StepView(buf, t + half, z) if use_hist else None)
                np.add(k1, np.multiply(k2, c_two, out=acc), out=acc)
                np.add(x, np.multiply(k2, c_half, out=z), out=z)
                k3 = field(z, t + half, StepView(buf, t + half, z) if use_hist else None)
                np.add(acc, np.multiply(k3, c_two, out=term), out=acc)
                np.add(x, np.multiply(k3, c_dt, out=z), out=z)
                k4 = field(z, t + dt, StepView(buf, t + dt, z) if use_hist else None)
                acc += k4
                x += np.multiply(acc, c_sixth, out=acc)

            # x . x (0.96 us at D = 20) screens for the exact max |x_i| (3.2 us),
            # which runs only when the dot exceeds 1e18, so both raise at the
            # same steps. The dot is NaN or inf whenever x is. Rounding is
            # monotone on sums of nonnegative terms, with or without FMA, and
            # the smallest double above 1e9 squares to 1e18 + 238, which rounds
            # to 1e18 + 256: any |x_i| > 1e9 puts the dot above 1e18.
            if not x.dot(x) <= _BLOWUP_SQUARED and not np.abs(x).max() <= BLOWUP_LIMIT:
                partial = Trajectory(times[:rec].copy(), states[:rec].copy())
                raise DivergenceError((k + 1) * dt, partial)

            if use_hist:
                buf.commit(x)
            if (k + 1) % every == 0:
                states[rec] = x
                rec += 1

    return Trajectory(times, states)


def _rk4_step(A, c, h):
    """(Q, g) of one classical RK4 step of s' = A s + c, which is exactly
    s <- s + Q s + g with Q = R(hA) - I and g = h P(hA) c, where
    R(z) = 1 + z P(z) is RK4's stability function and
    P(z) = 1 + z/2 + z^2/6 + z^3/24; g is None when c is zero. P is built
    by Horner's rule: three D x D products in all."""
    eye = np.eye(len(A))
    P = eye + (h / 4.0) * A
    P = eye + (h / 3.0) * A.dot(P)
    P = eye + (h / 2.0) * A.dot(P)
    return h * A.dot(P), (h * P.dot(c) if c.any() else None)


# ---------------------------------------------------------------------------
# Delay processes


@dataclass(frozen=True)
class ConstantDelay:
    tau: float

    def __post_init__(self):
        if not 0 <= self.tau < math.inf:
            raise ConfigError("constant delay must be nonnegative and finite")

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
        if not 0 < self.cap < math.inf:
            raise ConfigError("ramp cap must be positive and finite")

    @property
    def tau_max(self):
        return self.cap

    def __call__(self, t):
        return t if t < self.cap else self.cap


class PoissonSampledDelay:
    """Sawtooth delay from aperiodic arrivals: tau(t) = t - latest arrival.

    Before the first arrival tau(t) = t (no information received yet).
    ``arrivals`` are sorted nonnegative finite times, kept up to the finite
    ``t_end``. ``tau_max`` is the largest gap realized on [0, t_end].
    """

    def __init__(self, arrivals, t_end):
        arrivals = np.asarray(arrivals, dtype=float)
        if not 0 <= t_end < math.inf:
            raise ConfigError("the horizon t_end must be nonnegative and finite")
        if arrivals.ndim != 1 or not (np.all((arrivals >= 0) & (arrivals < math.inf))
                                      and np.all(np.diff(arrivals) >= 0)):
            raise ConfigError("arrivals must be a sorted vector of nonnegative finite times")
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


def delay_bound(delays) -> float:
    """The largest ``tau_max`` of one delay or a sequence of delays, 0.0 for none."""
    try:
        return float(max((d.tau_max for d in ([delays] if callable(delays) else delays)),
                         default=0.0))
    except AttributeError:
        raise OperatorError("a delay must be a ConstantDelay, RampDelay or "
                            "PoissonSampledDelay, which carry their bound") from None


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
    arrivals. When every delay is a ramp, each read time is t - t = 0 on
    [0, cap) for the smallest cap. Otherwise the window [t, t) is empty.
    """
    if delays and all(hasattr(d, "arrivals") for d in delays):
        return ArrivalBank(delays).window

    def fresh(t):
        return [t - d(t) for d in delays], t, t

    if not delays or not all(isinstance(d, RampDelay) for d in delays):
        return fresh
    cap = min(d.cap for d in delays)
    origin = np.zeros(len(delays))
    origin.flags.writeable = False

    def ramp(t):
        return (origin, 0.0, cap) if 0.0 <= t < cap else fresh(t)

    return ramp


def sample_poisson_delays(mean, seed, t_end) -> PoissonSampledDelay:
    """One seeded realization of Poisson measurement arrivals on [0, t_end].

    Inter-arrival times come from the inverse exponential CDF driven by a
    PCG64 stream, so a fixed seed reproduces the identical arrival sequence
    on any platform. ``seed`` may be an int or a (seed, agent) tuple. Gaps
    are drawn 1024 at a time and summed in order, as one by one, up to the
    first block that passes t_end.
    """
    if not 0 < mean < math.inf:
        raise ConfigError("mean inter-arrival time must be positive and finite")
    if not 0 <= t_end < math.inf:  # The sampling loop runs to t_end.
        raise ConfigError("the horizon t_end must be nonnegative and finite")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    blocks, size, last = [], 1024, 0.0
    while True:
        gaps = -mean * np.log1p(-rng.random(size))
        gaps[0] += last
        times = gaps.cumsum()
        blocks.append(times[:times.searchsorted(t_end, "right")])
        if len(blocks[-1]) < size:
            return PoissonSampledDelay(np.concatenate(blocks), t_end)
        last = times[-1]


def poisson_delay_bank(mean, seed, t_end, n_agents) -> list[PoissonSampledDelay]:
    """Independent per-agent arrival streams derived from (seed, agent index).

    Adding agents never perturbs the streams of existing agents.
    """
    return [sample_poisson_delays(mean, (seed, i), t_end) for i in range(n_agents)]
