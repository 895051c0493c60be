"""Property tests for invariants the toolkit documents."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from consensuslab import dynamics
from consensuslab.dynamics import gps_velocity_controller
from consensuslab.config import emit_scenario, parse_scenario
from consensuslab.dynamics import Cascade, cascade_rhs
from consensuslab.graphs import build_laplacian, path_graph
from consensuslab.metrics import disagreement_seminorm
from consensuslab.operators import (
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from consensuslab.scenario import INIT_PRESETS, Scenario, StageSpec, validate_scenario
from consensuslab.sim import (
    FunctionView,
    IntegratorConfig,
    PoissonSampledDelay,
    SliceView,
    integrate,
)

INNER = ("linear_static", "linear_time_varying", "saturated")
OUTER = INNER + ("delayed_relative", "delayed_absolute_velocity")
DELAYS = ("constant:0.25", "ramp:2.0", "poisson:1.5")

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e3)


def vectors(n, elements=finite):
    return st.tuples(*[elements] * n)


def maybe(strategy):
    return st.none() | strategy


@given(c=st.floats(allow_nan=False, allow_infinity=False),
       n=st.integers(min_value=1, max_value=64))
def test_disagreement_exactly_zero_on_flat_vectors(c, n):
    assert disagreement_seminorm(np.full(n, c)) == 0.0


@st.composite
def stage_specs(draw, n, kind):
    nonzero = st.floats(min_value=0.1, max_value=5.0) | st.floats(min_value=-5.0, max_value=-0.1)
    gated = kind == "linear_time_varying"
    delayed = kind in ("delayed_relative", "delayed_absolute_velocity")
    absolute = kind == "delayed_absolute_velocity"
    return StageSpec(
        kind=kind,
        scale=draw(positive),
        omega=draw(vectors(n, nonzero) if gated else maybe(vectors(n, nonzero))),
        phi=draw(vectors(n) if gated else maybe(vectors(n))),
        gains=draw(vectors(n, positive) if absolute else maybe(vectors(n, positive))),
        ref=draw(st.just("constant:10.0") if absolute else maybe(st.just("constant:-1.5"))),
        delay=draw(st.sampled_from(DELAYS) if delayed else maybe(st.sampled_from(DELAYS))),
    )


@st.composite
def scenarios(draw):
    """Valid scenarios in which every optional config key may appear."""
    n = draw(st.integers(min_value=1, max_value=4))
    order = draw(st.integers(min_value=1, max_value=4))
    kinds = [draw(st.sampled_from(INNER)) for _ in range(order - 1)]
    kinds.append(draw(st.sampled_from(OUTER)))
    stages = tuple(draw(stage_specs(n, kind)) for kind in kinds)
    controllers = ["compositional"]
    if order == 2 and kinds[1] in INNER:
        controllers += ["conventional", "naive-serial"]
    if order == 2 and kinds[1] == "delayed_absolute_velocity":
        controllers += ["conventional-ideal", "conventional-delayed"]
    init_preset = draw(maybe(st.sampled_from(INIT_PRESETS)))
    x0 = draw(maybe(vectors(n)))
    xi0 = draw(vectors(order * n) if init_preset is None and x0 is None
               else maybe(vectors(order * n)))
    disturbance = draw(st.sampled_from(("none", "constant", "random")))
    graph_kind = draw(st.sampled_from(("path", "edges")))
    edges = st.lists(st.tuples(st.integers(1, n), st.integers(1, n), positive),
                     min_size=1, max_size=4).map(tuple)
    record_every = draw(st.integers(min_value=1, max_value=50))
    dt = draw(st.floats(min_value=1e-4, max_value=0.5))
    nsteps = record_every * draw(st.integers(min_value=1, max_value=1000))
    return Scenario(
        name=draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        order=order,
        controller=draw(st.sampled_from(controllers)),
        graph_kind=graph_kind,
        graph_n=n,
        stages=stages,
        graph_edges=draw(edges if graph_kind == "edges" else maybe(edges)),
        init_preset=init_preset,
        x0=x0,
        xdot0=draw(maybe(vectors(n))),
        xi0=xi0,
        d_ref=draw(maybe(vectors(n))),
        disturbance_kind=disturbance,
        disturbance_vector=draw(vectors(n) if disturbance == "constant" else maybe(vectors(n))),
        disturbance_sup=draw(positive if disturbance == "random" else maybe(positive)),
        dt=dt,
        t_end=nsteps * dt,
        record_every=record_every,
        tolerance=draw(positive),
        tail_fraction=draw(st.floats(min_value=1e-3, max_value=1.0)),
    )


@given(sc=scenarios())
def test_config_round_trip(sc):
    validate_scenario(sc)
    assert parse_scenario(emit_scenario(sc)) == sc


def reference_field(cascade, u_ref, xi, t, hist):
    """The cascade field by its definition, one checked evaluate per stage:
    xi_k' = -op_k(xi_k) + xi_{k+1}, the outer stage fed by u_ref."""
    n = cascade.n
    blocks = []
    for k, op in enumerate(cascade.stages):
        sl = slice(k * n, (k + 1) * n)
        view = None if op.relative_feedback else SliceView(hist, sl.start)
        val = -op.evaluate(xi[sl], t, view)
        if k + 1 < cascade.order:
            val = val + xi[sl.stop:sl.stop + n]
        elif u_ref is not None:
            val = val + u_ref(t)
        blocks.append(val)
    return np.concatenate(blocks)


def random_operator(kind, n, rng):
    w = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(w, 0.0)
    L = np.diag(w.sum(axis=1)) - w
    if kind == "linear_static":
        return LinearStatic(L)
    if kind == "linear_time_varying":
        return LinearTimeVarying(L, rng.uniform(0.5, 3.0, n) * rng.choice([-1, 1], n),
                                 rng.uniform(0.0, 2 * np.pi, n))
    if kind == "saturated":
        return Saturated(L)
    if kind == "delayed_relative":
        return DelayedRelative(w, lambda t: 0.3, tau_max=0.3)
    gains = rng.uniform(0.5, 2.0, n)
    if rng.random() < 0.5:
        return DelayedAbsoluteVelocity(gains, rng.uniform(-5.0, 5.0))
    return DelayedAbsoluteVelocity(gains, lambda s: 1.5 * s, lambda t: 0.2, tau_max=0.2)


@given(n=st.integers(min_value=1, max_value=5),
       kinds=st.lists(st.sampled_from(INNER), min_size=0, max_size=3),
       outer=st.sampled_from(OUTER),
       with_u_ref=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       t=st.floats(min_value=0.0, max_value=50.0))
def test_compiled_field_matches_definition(n, kinds, outer, with_u_ref, seed, t):
    rng = np.random.default_rng(seed)
    cascade = Cascade(tuple(random_operator(kind, n, rng) for kind in [*kinds, outer]))
    dim = cascade.order * n
    u = rng.uniform(-3.0, 3.0, n)
    u_ref = (lambda s: u * np.cos(s)) if with_u_ref else None
    base, slope = rng.uniform(-5.0, 5.0, dim), rng.uniform(-1.0, 1.0, dim)
    hist = FunctionView(lambda s: base + slope * s)
    xi = rng.uniform(-5.0, 5.0, dim)
    want = reference_field(cascade, u_ref, xi, t, hist)
    got = cascade_rhs(cascade, u_ref)(xi, t, hist)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_csr_field_matches_definition_above_threshold():
    n = 150  # order 2: dim 300, above the CSR threshold
    L = build_laplacian(path_graph(n))
    rng = np.random.default_rng(3)
    stages = (LinearTimeVarying(L, rng.uniform(0.5, 3.0, n), rng.uniform(0.0, 6.0, n)),
              LinearStatic(2.0 * L))
    dim = 2 * n
    A = np.zeros((dim, dim))
    A[:n, :n], A[n:, n:], A[:n, n:] = -L, -2.0 * L, np.eye(n)
    assert not isinstance(dynamics._block_operator(A), np.ndarray)
    assert isinstance(dynamics._block_operator(A[:n, :n]), np.ndarray)
    assert isinstance(dynamics._block_operator(rng.random((dim, dim))), np.ndarray)
    u = rng.uniform(-1.0, 1.0, n)
    for cascade in (Cascade(stages), Cascade(stages[1:] * 2)):
        field = cascade_rhs(cascade, lambda s: u)
        for t in (0.0, 0.4, 7.3):
            xi = rng.uniform(-5.0, 5.0, dim)
            want = reference_field(cascade, lambda s: u, xi, t, None)
            assert np.abs(field(xi, t, None) - want).max() <= 1e-12 * np.abs(want).max()


@st.composite
def arrival_streams(draw, count, dt, nsteps):
    """``count`` sorted arrival sequences on (0, nsteps * dt]; some arrivals
    sit exactly on the step grid, where a read time meets a committed end."""
    on_grid = st.integers(1, nsteps).map(lambda k: k * dt)
    off_grid = st.floats(min_value=0.0, max_value=nsteps * dt, exclude_min=True)
    stream = st.lists(on_grid | off_grid, max_size=8).map(sorted)
    return [draw(stream) for _ in range(count)]


def last_arrival(delay, t):
    before = delay.arrivals[delay.arrivals <= t]
    return before[-1] if len(before) else 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4),
       dt=st.sampled_from((0.01, 0.025, 0.05)), nsteps=st.integers(20, 120),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_held_reads_equal_fresh_reads(data, n, dt, nsteps, seed):
    """Held delayed reads give the trajectories of reading the view at every
    RK stage at each delay's own last arrival."""
    rng = np.random.default_rng(seed)
    t_end = nsteps * dt
    cfg = IntegratorConfig(dt, t_end, record_every=1)
    w = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(w, 0.0)
    L = np.diag(w.sum(axis=1)) - w

    # Delayed GPS velocity tracking on the plant [x; xdot].
    gains = rng.uniform(0.5, 2.0, n)
    delays = [PoissonSampledDelay(a, t_end)
              for a in data.draw(arrival_streams(n, dt, nsteps))]
    held = gps_velocity_controller(gains, LinearStatic(L), 10.0, delays)
    agents = np.arange(n)

    def held_plant(state, t, hist):
        x, v = state[:n], state[n:]
        return np.concatenate((v, held(x, v, t, SliceView(hist, n))))

    def fresh_plant(state, t, hist):
        x, v = state[:n], state[n:]
        ts = np.array([last_arrival(d, t) for d in delays])
        u = -gains * (hist.components(ts, agents + n) - 10.0) - L @ x
        return np.concatenate((v, u))

    x0 = rng.uniform(-2.0, 2.0, 2 * n)
    a = integrate(held_plant, x0, cfg, tau_max=t_end)
    b = integrate(fresh_plant, x0, cfg, tau_max=t_end)
    assert np.array_equal(a.states, b.states)

    # A delayed_relative cascade with one Poisson stream per edge.
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(w))]
    streams = data.draw(arrival_streams(len(edges), dt, nsteps))
    edge_delays = {e: PoissonSampledDelay(s, t_end) for e, s in zip(edges, streams)}
    u = rng.uniform(-1.0, 1.0, n)
    cascade = Cascade((DelayedRelative(w, edge_delays, tau_max=t_end),))

    def fresh_cascade(z, t, hist):
        out = w.sum(axis=1) * z
        if edges:
            ts = np.array([last_arrival(edge_delays[e], t) for e in edges])
            vals = hist.components(ts, np.array([j for _, j in edges]))
            for (i, j), v in zip(edges, vals):
                out[i] -= w[i, j] * v
        return -out + u

    z0 = rng.uniform(-2.0, 2.0, n)
    a = integrate(cascade_rhs(cascade, lambda t: u), z0, cfg, tau_max=t_end)
    b = integrate(fresh_cascade, z0, cfg, tau_max=t_end)
    assert np.array_equal(a.states, b.states)
