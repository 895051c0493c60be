"""Property tests for invariants the toolkit documents."""

import dataclasses
import math
import signal
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from consensuslab import dynamics, sim
from consensuslab.cli import main
from consensuslab.config import emit_scenario, parse_scenario
from consensuslab.dynamics import Cascade, PlantLaw, cascade_rhs, plant_rhs
from consensuslab.exceptions import ConfigError, ConsensusLabError, DivergenceError
from consensuslab.graphs import WeightedDigraph, build_laplacian, graph_from_edges, path_graph
from consensuslab.metrics import row_disagreement
from consensuslab.operators import (
    DelayedAbsoluteVelocity,
    DelayedRelative,
    LinearStatic,
    LinearTimeVarying,
    Saturated,
)
from consensuslab.scenario import (
    INIT_PRESETS,
    Scenario,
    StageSpec,
    simulate_scenario,
    validate_scenario,
)
from consensuslab.sim import (
    ArrivalBank,
    ConstantDelay,
    IntegratorConfig,
    PoissonSampledDelay,
    RampDelay,
    integrate,
    sample_poisson_delays,
)

from history_views import FunctionView

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
    assert row_disagreement(np.full(n, c)) == 0.0


@st.composite
def stage_specs(draw, n, kind):
    nonzero = st.floats(min_value=0.1, max_value=5.0) | st.floats(min_value=-5.0, max_value=-0.1)
    gated = kind == "linear_time_varying"
    delayed = kind in ("delayed_relative", "delayed_absolute_velocity")
    absolute = kind == "delayed_absolute_velocity"
    # Each kind takes exactly the keys it reads; validation rejects the rest,
    # and a scale other than the default 1 where it is not read.
    return StageSpec(
        kind=kind,
        scale=1.0 if absolute else draw(positive),
        omega=draw(vectors(n, nonzero)) if gated else None,
        phi=draw(vectors(n)) if gated else None,
        gains=draw(vectors(n, positive)) if absolute else None,
        ref="constant:10.0" if absolute else None,
        delay=draw(st.sampled_from(DELAYS)) if delayed else None,
    )


@st.composite
def scenarios(draw):
    """Valid scenarios in which every optional config key that the drawn
    stages and route read may appear."""
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
    controller = draw(st.sampled_from(controllers))
    # A cascade may start from xi0, and then from xi0 alone; order 3 and up
    # must. Otherwise a preset or x0 gives the plant state, and xdot0 is
    # read from order 2 on.
    init_preset = x0 = xdot0 = xi0 = None
    if order >= 3 or (controller == "compositional" and draw(st.booleans())):
        xi0 = draw(vectors(order * n))
    else:
        init_preset = draw(maybe(st.sampled_from(INIT_PRESETS)))
        x0 = draw(vectors(n) if init_preset is None else maybe(vectors(n)))
        xdot0 = draw(maybe(vectors(n))) if order >= 2 else None
    disturbance = draw(st.sampled_from(("none", "constant", "random")))
    graph_kind = draw(st.sampled_from(("path", "edges")))
    # The graph rejects self-loops and repeated pairs, so a lone agent has
    # no edges to draw.
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = st.lists(st.tuples(st.sampled_from(pairs), positive), min_size=1, max_size=4,
                     unique_by=lambda e: e[0]).map(
        lambda es: tuple((*pair, wt) for pair, wt in es)) if pairs else st.just(())
    record_every = draw(st.integers(min_value=1, max_value=50))
    dt = draw(st.floats(min_value=1e-4, max_value=0.5))
    nsteps = record_every * draw(st.integers(min_value=1, max_value=1000))
    return Scenario(
        name=draw(st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        order=order,
        controller=controller,
        graph_kind=graph_kind,
        graph_n=n,
        stages=stages,
        graph_edges=draw(edges) if graph_kind == "edges" else None,
        init_preset=init_preset,
        x0=x0,
        xdot0=xdot0,
        xi0=xi0,
        d_ref=draw(maybe(vectors(n))),
        disturbance_kind=disturbance,
        disturbance_vector=draw(vectors(n)) if disturbance == "constant" else None,
        disturbance_sup=draw(positive) if disturbance == "random" else None,
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


NUMBER_FIELDS = ("seed", "order", "graph_n", "dt", "t_end", "tolerance", "tail_fraction",
                 "disturbance_sup")
# Characters the config's line splitting and value stripping act on, a quote
# and the config's own syntax.
AWKWARD_TEXT = st.text(st.sampled_from("ab _-'#=[]:.0\t\n\r\x0b\x0c\x1c\x85\u2028"),
                       max_size=6)


@st.composite
def perturbed_scenarios(draw):
    """A valid scenario with one value that its config echo might not
    reproduce: a bool where a number goes, a stage scale as a bool, or a
    name or spec drawn from characters the parser splits, strips or reads."""
    sc = draw(scenarios())
    target = draw(st.sampled_from(NUMBER_FIELDS + ("scale", "name", "spec")))
    k = draw(st.integers(min_value=0, max_value=sc.order - 1))
    stages = list(sc.stages)
    if target in NUMBER_FIELDS:
        return dataclasses.replace(sc, **{target: draw(st.booleans())})
    if target == "name":
        return dataclasses.replace(sc, name=draw(AWKWARD_TEXT))
    if target == "scale":
        stages[k] = dataclasses.replace(stages[k], scale=draw(st.booleans()))
    else:
        key = "delay" if stages[-1].delay is not None else "ref"
        spec = getattr(stages[-1], key) or "constant:1.0"
        cut = draw(st.integers(min_value=0, max_value=len(spec)))
        spec = draw(AWKWARD_TEXT) + spec[:cut] + draw(AWKWARD_TEXT) + spec[cut:]
        stages[-1] = dataclasses.replace(stages[-1], **{key: spec})
    return dataclasses.replace(sc, stages=tuple(stages))


@settings(deadline=None)
@given(sc=perturbed_scenarios())
def test_validated_scenarios_echo_back(sc):
    """Validation rejects, as a ConfigError, whatever the config echo would
    not reproduce."""
    try:
        validate_scenario(sc)
    except ConfigError:
        return
    assert parse_scenario(emit_scenario(sc)) == sc


class ReachedIntegrator(Exception):
    pass


@settings(deadline=None)
@given(sc=scenarios())
@example(sc=Scenario(  # rounding leaves a row of this Laplacian ~2e-12 off zero
    name="scaled", seed=0, order=1, controller="compositional", graph_kind="edges",
    graph_n=3, graph_edges=((1, 2, 0.1), (1, 3, 9.7)),
    stages=(StageSpec(kind="linear_static", scale=1000.0),), x0=(0.0, 1.0, 2.0),
    dt=0.1, t_end=1.0, record_every=1))
def test_validated_scenarios_reach_the_integrator(sc):
    """A scenario that validation accepts builds: its run raises nothing
    before the first RK step."""
    validate_scenario(sc)
    with mock.patch.object(sim, "integrate", side_effect=ReachedIntegrator):
        with pytest.raises(ReachedIntegrator):
            simulate_scenario(sc)


def reference_field(cascade, u_ref, xi, t, hist):
    """The cascade field by its definition, one checked evaluate per stage:
    xi_k' = -op_k(xi_k) + xi_{k+1}, the outer stage fed by u_ref."""
    n = cascade.n
    blocks = []
    for k, op in enumerate(cascade.stages):
        sl = slice(k * n, (k + 1) * n)
        view = None if op.relative_feedback else FunctionView(lambda s: hist.fn(s)[sl])
        val = -op.evaluate(xi[sl], t, view)
        if k + 1 < cascade.order:
            val = val + xi[sl.stop:sl.stop + n]
        elif u_ref is not None:
            val = val + u_ref(t)
        blocks.append(val)
    return np.concatenate(blocks)


def random_operator(kind, n, rng, L=None):
    """An operator of ``kind`` on a random weighted digraph, or on the
    Laplacian ``L`` when one is given (inner kinds only)."""
    w = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(w, 0.0)
    if L is None:
        L = np.diag(w.sum(axis=1)) - w
    if kind == "linear_static":
        return LinearStatic(L)
    if kind == "linear_time_varying":
        return LinearTimeVarying(L, rng.uniform(0.5, 3.0, n) * rng.choice([-1, 1], n),
                                 rng.uniform(0.0, 2 * np.pi, n))
    if kind == "saturated":
        return Saturated(L)
    if kind == "delayed_relative":
        return DelayedRelative(w, ConstantDelay(0.3))
    return DelayedAbsoluteVelocity(rng.uniform(0.5, 2.0, n), rng.uniform(-5.0, 5.0))


@given(kind=st.sampled_from(INNER), n=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       t=st.floats(min_value=0.0, max_value=50.0), a=finite)
def test_inner_kinds_are_translation_invariant(kind, n, seed, t, a):
    """Shifting every agent by the same a leaves an inner kind's output as
    it was, up to the rounding of z + a and of L's zero row sums."""
    rng = np.random.default_rng(seed)
    op = random_operator(kind, n, rng)
    z = rng.uniform(-5.0, 5.0, n)
    diff = np.abs(op.evaluate(z + a, t) - op.evaluate(z, t)).max()
    assert diff <= 1e-12 * max(1.0, abs(a), np.abs(z).max())


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
    n = 150  # order 2: dim 300, above the sparse threshold
    L = build_laplacian(path_graph(n))
    rng = np.random.default_rng(3)
    stages = (LinearTimeVarying(L, rng.uniform(0.5, 3.0, n), rng.uniform(0.0, 6.0, n)),
              LinearStatic(2.0 * L))
    dim = 2 * n
    A = [(0, 0, -1.0, L), (n, n, -2.0, L), (0, n, 1.0, np.ones(n))]
    assert not isinstance(dynamics._block_operator(A, (dim, dim)), np.ndarray)
    assert isinstance(dynamics._block_operator(A[:1], (n, n)), np.ndarray)
    full = [(0, 0, 1.0, rng.random((dim, dim)))]
    assert isinstance(dynamics._block_operator(full, (dim, dim)), np.ndarray)
    u = rng.uniform(-1.0, 1.0, n)
    for cascade in (Cascade(stages), Cascade(stages[1:] * 2)):
        field = cascade_rhs(cascade, lambda s: u)
        for t in (0.0, 0.4, 7.3):
            xi = rng.uniform(-5.0, 5.0, dim)
            want = reference_field(cascade, lambda s: u, xi, t, None)
            assert np.abs(field(xi, t, None) - want).max() <= 1e-12 * np.abs(want).max()
    # Every plant matrix has at least 2N = 300 rows and is row-sparse too.
    gated, saturated = stages[0], Saturated(L)
    velocity = DelayedAbsoluteVelocity(rng.uniform(0.5, 2.0, n), 1.5)
    laws = (PlantLaw("conventional", (gated, saturated)),
            PlantLaw("conventional", (gated, gated)),
            PlantLaw("naive-serial", (gated, saturated)),
            PlantLaw("naive-serial", (LinearStatic(L), stages[1])),
            PlantLaw("conventional-ideal", (gated, velocity)),
            PlantLaw("conventional-delayed", (gated, velocity), ConstantDelay(0.5)))
    base, slope = rng.uniform(-5.0, 5.0, dim), rng.uniform(-1.0, 1.0, dim)
    hist = FunctionView(lambda s: base + slope * s)
    for law in laws:
        field = plant_rhs(law, lambda s: u)
        for t in (0.0, 0.4, 7.3):
            state = rng.uniform(-5.0, 5.0, dim)
            want = reference_plant(law, lambda s: u, state, t, hist)
            assert np.array_equal(field(state, t, hist), want), law.controller


@given(n=st.integers(min_value=1, max_value=6),
       grid=st.tuples(*[st.integers(min_value=1, max_value=4)] * 2),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_row_sparse_product_matches_dense(n, grid, seed, bad):
    """The row-sparse product of a random block program (matrix blocks with
    empty rows, diagonal blocks with zeros, block rows with no block, blocks
    in any order, or no block at all) sums each row in column order from
    0.0, agrees with the dense product, and a non-finite entry of s poisons
    exactly the rows that store its column."""
    rng = np.random.default_rng(seed)
    shape = (grid[0] * n, grid[1] * n)
    blocks = []
    for i in range(0, shape[0], n):
        for j in range(0, shape[1], n):
            if rng.random() < 0.5:
                B = (rng.uniform(-2.0, 2.0, n) * (rng.random(n) < 0.7) if rng.random() < 0.3
                     else rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.4))
                blocks.append((i, j, rng.choice([-1.0, 0.5, 1.0]), B))
    blocks = [blocks[k] for k in rng.permutation(len(blocks))]
    M = np.zeros(shape)
    for i, j, c, B in blocks:
        M[i:i + n, j:j + n] = c * (B if B.ndim == 2 else np.diag(B))
    with mock.patch.multiple(dynamics, _SPARSE_MIN_DIM=0, _SPARSE_MAX_DENSITY=1.0):
        product = dynamics._block_operator(blocks, shape)
    assert not isinstance(product, np.ndarray)
    s = rng.uniform(-5.0, 5.0, shape[1])
    rowwise = np.zeros(shape[0])
    for r in range(shape[0]):
        for col in np.flatnonzero(M[r]):
            rowwise[r] += M[r, col] * s[col]
    got = product.dot(s)
    assert got.dtype == float and np.array_equal(got, rowwise)
    assert np.all(np.abs(got - M @ s) <= 1e-12 * (np.abs(M) @ np.abs(s)))
    col = rng.integers(shape[1])
    s[col] = bad
    assert np.array_equal(~np.isfinite(product.dot(s)), M[:, col] != 0)


@given(n=st.integers(min_value=1, max_value=66),
       grid=st.tuples(*[st.integers(min_value=1, max_value=3)] * 2),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]))
def test_dense_product_dot_matches_matmul(n, grid, seed, bad):
    """Below the sparse threshold the block product is a dense matrix, and
    the field's ``M.dot(s)`` equals ``M @ s`` bit for bit, on a whole state
    and on a block of a longer vector, as naive-serial's nested product
    reads it, non-finite entries included."""
    rng = np.random.default_rng(seed)
    shape = (grid[0] * n, grid[1] * n)
    assume(shape[0] < dynamics._SPARSE_MIN_DIM)
    blocks = [(i, j, rng.choice([-1.0, 0.5, 1.0]), rng.uniform(-2.0, 2.0, (n, n)))
              for i in range(0, shape[0], n) for j in range(0, shape[1], n)
              if rng.random() < 0.6]
    M = dynamics._block_operator(blocks, shape)
    assert isinstance(M, np.ndarray)
    s = rng.uniform(-5.0, 5.0, 2 * shape[1])
    if bad is not None:
        s[rng.integers(len(s))] = bad
    with np.errstate(invalid="ignore"):  # 0 * inf, as inside ``sim.integrate``
        for v in (s[:shape[1]], s[shape[1]:]):
            assert np.array_equal(M.dot(v), M @ v, equal_nan=True)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=6),
       kinds=st.lists(st.sampled_from(INNER), max_size=1),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_delay_equals_no_delay(n, kinds, seed):
    """A delayed_relative outer stage with delay 0 reads its neighbours at
    the RK stage point, through the history view's provisional segment, so
    it runs the linear_static cascade on the same digraph."""
    rng = np.random.default_rng(seed)
    inner = tuple(random_operator(kind, n, rng) for kind in kinds)
    w = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(w, 0.0)
    delayed = Cascade((*inner, DelayedRelative(w, ConstantDelay(0.0))))
    static = Cascade((*inner, LinearStatic(np.diag(w.sum(axis=1)) - w)))
    xi0 = rng.uniform(-2.0, 2.0, static.order * n)
    cfg = IntegratorConfig(0.01, 2.0)
    a = integrate(cascade_rhs(delayed), xi0, cfg, tau_max=0.0).states
    b = integrate(cascade_rhs(static), xi0, cfg).states
    assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(b).max())


def reference_plant(law, w, s, t, hist):
    """The plant field [xdot; u + w] by each baseline's definition, one
    checked evaluate per operator term."""
    n = law.n
    x, v = s[:n], s[n:]
    first, second = law.stages
    if law.controller == "conventional":
        u = -first.evaluate(v, t) - second.evaluate(x, t)
    elif law.controller == "naive-serial":
        u = (-(second.evaluate(v, t) + first.evaluate(v, t))
             - second.evaluate(first.evaluate(x, t), t))
    else:
        if law.delays is not None:
            v = hist.components([t - law.delays(t)] * n, np.arange(n) + n)
        u = -second.gains * (v - second.ref) - first.evaluate(x, t)
    if w is not None:
        u = u + w(t)
    return np.concatenate((s[n:], u))


@given(n=st.integers(min_value=1, max_value=5),
       controller=st.sampled_from(dynamics.BASELINES),
       kinds=st.tuples(st.sampled_from(INNER), st.sampled_from(INNER)),
       shared=st.booleans(), path=st.booleans(), with_w=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       t=st.floats(min_value=0.0, max_value=50.0))
def test_plant_field_matches_definition(n, controller, kinds, shared, path, with_w, seed, t):
    """On a unit-weight path graph every product is exact and every row sums
    at most two of them, so the compiled field must equal the definition
    bit for bit; on weighted digraphs the block product may sum a row in
    another order."""
    rng = np.random.default_rng(seed)
    L = build_laplacian(path_graph(n)) if path else None
    first = random_operator(kinds[0], n, rng, L)
    second = first if shared else random_operator(kinds[1], n, rng, L)
    delays = None
    if controller.startswith("conventional-"):
        second = DelayedAbsoluteVelocity(rng.uniform(0.5, 2.0, n), rng.uniform(-5.0, 5.0))
        if controller == "conventional-delayed":
            delays = ConstantDelay(rng.uniform(0.0, 2.0))
    law = PlantLaw(controller, (first, second), delays)
    d = rng.uniform(-3.0, 3.0, n)
    w = (lambda s: d * np.cos(s)) if with_w else None
    base, slope = rng.uniform(-5.0, 5.0, 2 * n), rng.uniform(-1.0, 1.0, 2 * n)
    hist = FunctionView(lambda s: base + slope * s)
    state = rng.uniform(-5.0, 5.0, 2 * n)
    want = reference_plant(law, w, state, t, hist)
    got = plant_rhs(law, w)(state, t, hist)
    if path:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       kind=st.sampled_from(INNER),
       order=st.integers(min_value=1, max_value=4),
       full_blocks=st.integers(min_value=0, max_value=2),
       partial=st.integers(min_value=1, max_value=sim.ROW_BLOCK - 1),
       path=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_reconstruction_matches_rows(n, kind, order, full_blocks, partial, path, seed):
    """Plant reconstruction one row block per call, with the last block
    partial, equals reconstruction row by row at each row's own time: bit
    for bit on a unit-weight path graph, where every product is exact and
    every row sums at most two of them; on weighted digraphs the block
    product may sum a row in another order, and so may the subtraction
    from xi_2 round the other way."""
    rng = np.random.default_rng(seed)
    first = random_operator(kind, n, rng, build_laplacian(path_graph(n)) if path else None)
    cascade = Cascade((first,) + tuple(LinearStatic(first.L) for _ in range(order - 1)))
    rows = full_blocks * sim.ROW_BLOCK + partial
    times = rng.uniform(0.0, 100.0, rows)
    states = rng.uniform(-5.0, 5.0, (rows, order * n))

    plant = lambda xi, t: dynamics.reconstruct_plant(cascade, xi, t)
    blocks = list(sim.Trajectory(times, states, plant=plant).plant_blocks())
    assert [b for b, _, _ in blocks] == list(range(0, rows, sim.ROW_BLOCK))
    plant_x = np.concatenate([x for _, x, _ in blocks])
    by_row = [dynamics.reconstruct_plant(cascade, xi, t)
              for xi, t in zip(states, times)]
    assert np.array_equal(plant_x, [x for x, _ in by_row])
    if order == 1:
        assert all(xdot is None for _, _, xdot in blocks)
        return
    plant_xdot = np.concatenate([xdot for _, _, xdot in blocks])
    want = np.array([xdot for _, xdot in by_row])
    if path:
        assert np.array_equal(plant_xdot, want)
    else:
        x, xi_2 = states[:, :n], states[:, n:2 * n]
        scale = np.abs(first.L).sum(axis=1).max() * np.abs(x).max() + np.abs(xi_2).max()
        assert np.abs(plant_xdot - want).max() <= 1e-14 * scale


@st.composite
def arrival_streams(draw, count, dt, nsteps):
    """``count`` sorted arrival sequences on (0, nsteps * dt]; some arrivals
    sit exactly on the step grid, where a read time meets a committed end."""
    on_grid = st.integers(1, nsteps).map(lambda k: k * dt)
    off_grid = st.floats(min_value=0.0, max_value=nsteps * dt, exclude_min=True)
    stream = st.lists(on_grid | off_grid, max_size=8).map(sorted)
    return [draw(stream) for _ in range(count)]


@st.composite
def delay_draws(draw, count, dt, nsteps):
    """``count`` delays: Poisson streams, or ramps whose caps fall on or off
    the step grid, inside the horizon or beyond it."""
    t_end = nsteps * dt
    if draw(st.booleans()):
        return [PoissonSampledDelay(a, t_end) for a in draw(arrival_streams(count, dt, nsteps))]
    cap = st.integers(1, 2 * nsteps).map(lambda k: k * dt) | st.floats(
        min_value=dt / 4, max_value=2 * t_end)
    return [RampDelay(c) for c in draw(st.lists(cap, min_size=count, max_size=count))]


def read_time(delay, t):
    """t - tau(t), written out: a Poisson stream's last arrival (0 before
    the first) and 0 or t - cap for a ramp."""
    if isinstance(delay, RampDelay):
        return 0.0 if t < delay.cap else t - delay.cap
    before = delay.arrivals[delay.arrivals <= t]
    return before[-1] if len(before) else 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4),
       dt=st.sampled_from((0.01, 0.025, 0.05)), nsteps=st.integers(20, 120),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_held_reads_equal_fresh_reads(data, n, dt, nsteps, seed):
    """Held delayed reads give the trajectories of reading the view at every
    RK stage at each delay's own read time."""
    rng = np.random.default_rng(seed)
    t_end = nsteps * dt
    cfg = IntegratorConfig(dt, t_end, record_every=1)
    w = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(w, 0.0)
    L = np.diag(w.sum(axis=1)) - w

    # Delayed GPS velocity tracking on the plant [x; xdot], against the
    # ideal law evaluated at freshly read velocities.
    stages = (LinearStatic(L), DelayedAbsoluteVelocity(rng.uniform(0.5, 2.0, n), 10.0))
    delays = data.draw(delay_draws(n, dt, nsteps))
    held_plant = plant_rhs(PlantLaw("conventional-delayed", stages, delays))
    ideal = plant_rhs(PlantLaw("conventional-ideal", stages))
    velocities = np.arange(n) + n

    def fresh_plant(state, t, hist):
        ts = np.array([read_time(d, t) for d in delays])
        lagged = np.concatenate((state[:n], hist.components(ts, velocities)))
        return np.concatenate((state[n:], ideal(lagged, t, None)[n:]))

    x0 = rng.uniform(-2.0, 2.0, 2 * n)
    a = integrate(held_plant, x0, cfg, tau_max=t_end)
    b = integrate(fresh_plant, x0, cfg, tau_max=t_end)
    assert np.array_equal(a.states, b.states)

    # A delayed_relative cascade with one delay per edge.
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(w))]
    edge_delays = dict(zip(edges, data.draw(delay_draws(len(edges), dt, nsteps))))
    u = rng.uniform(-1.0, 1.0, n)
    cascade = Cascade((DelayedRelative(w, edge_delays),))

    def fresh_cascade(z, t, hist):
        out = w.sum(axis=1) * z
        if edges:
            ts = np.array([read_time(edge_delays[e], t) for e in edges])
            vals = hist.components(ts, np.array([j for _, j in edges]))
            for (i, j), v in zip(edges, vals):
                out[i] -= w[i, j] * v
        return -out + u

    z0 = rng.uniform(-2.0, 2.0, n)
    a = integrate(cascade_rhs(cascade, lambda t: u), z0, cfg, tau_max=t_end)
    b = integrate(fresh_cascade, z0, cfg, tau_max=t_end)
    assert np.array_equal(a.states, b.states)


@st.composite
def bounded_delays(draw, count, dt, nsteps):
    """``count`` delays for a ring-size property: constant delays on or off
    the step grid, or ``delay_draws``' Poisson streams and ramps."""
    if draw(st.booleans()):
        return draw(delay_draws(count, dt, nsteps))
    tau = st.integers(0, nsteps).map(lambda k: k * dt) | st.floats(
        min_value=0.0, max_value=nsteps * dt / 2)
    return [ConstantDelay(c) for c in draw(st.lists(tau, min_size=count, max_size=count))]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4),
       dt=st.floats(min_value=0.005, max_value=0.05), nsteps=st.integers(20, 120),
       inner=st.lists(st.sampled_from(("linear_static", "saturated")), max_size=1),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_history_bounded_by_tau_max_runs_as_the_whole_grid(data, n, dt, nsteps, inner, seed):
    """A history that keeps only the samples back to a system's own
    ``tau_max`` gives the states of one that keeps the whole grid, on a
    conventional-delayed plant and on a delayed_relative cascade."""
    rng = np.random.default_rng(seed)
    t_end = nsteps * dt
    cfg = IntegratorConfig(dt, t_end)
    w = rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
    np.fill_diagonal(w, 0.0)
    L = np.diag(w.sum(axis=1)) - w

    stages = (LinearStatic(L), DelayedAbsoluteVelocity(rng.uniform(0.5, 2.0, n), 10.0))
    law = PlantLaw("conventional-delayed", stages, data.draw(bounded_delays(n, dt, nsteps)))
    x0 = rng.uniform(-2.0, 2.0, 2 * n)
    a = integrate(plant_rhs(law), x0, cfg, tau_max=law.tau_max)
    b = integrate(plant_rhs(law), x0, cfg, tau_max=t_end)
    assert np.array_equal(a.states, b.states)

    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(w))]
    delays = dict(zip(edges, data.draw(bounded_delays(len(edges), dt, nsteps))))
    cascade = Cascade((*(random_operator(kind, n, rng) for kind in inner),
                       DelayedRelative(w, delays)))
    z0 = rng.uniform(-2.0, 2.0, cascade.order * n)
    a = integrate(cascade_rhs(cascade), z0, cfg, tau_max=cascade.tau_max)
    b = integrate(cascade_rhs(cascade), z0, cfg, tau_max=t_end)
    assert np.array_equal(a.states, b.states)


def gated_systems(inner, rng, t_end):
    """(label, system, feed) of each gated layout: a gated cascade, one with
    a constant feed and one that diverges, a gated inner stage under a
    saturated and under a delayed_relative outer stage, and every plant law
    on a gated stage 1."""
    n, L = inner.n, inner.L
    w = np.diag(np.diag(L)) - L
    outer = random_operator("linear_time_varying", n, rng, L)
    velocity = DelayedAbsoluteVelocity(rng.uniform(0.5, 2.0, n), rng.uniform(-5.0, 5.0))
    feed = rng.uniform(-1.0, 1.0, n)
    yield "cascade", Cascade((inner, outer)), None
    # -L has zero row sums still; scaled to the horizon, it blows up inside the run.
    unstable = LinearTimeVarying(-20.0 / t_end * L, inner.omega, inner.phi)
    yield "diverging", Cascade((unstable, unstable)), None
    yield "cascade-feed", Cascade((inner, inner)), lambda t: feed
    yield "saturated-outer", Cascade((inner, Saturated(L))), None
    yield "delayed-outer", Cascade((inner, DelayedRelative(w, ConstantDelay(0.05)))), None
    for controller in ("conventional", "naive-serial"):
        yield controller, PlantLaw(controller, (inner, outer)), None
    yield "conventional-ideal", PlantLaw("conventional-ideal", (inner, velocity)), None
    yield "conventional-delayed", PlantLaw("conventional-delayed", (inner, velocity),
                                           ConstantDelay(0.05)), None


@settings(max_examples=8, deadline=None)
@given(n=st.integers(min_value=1, max_value=4),
       omega=st.lists(st.floats(min_value=0.2, max_value=8.0), min_size=4, max_size=4),
       phi=st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=4, max_size=4),
       dt=st.floats(min_value=1e-3, max_value=0.05),
       nsteps=st.integers(min_value=257, max_value=320),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_prefetched_gates_run_as_the_opaque_field(n, omega, phi, dt, nsteps, seed):
    """A gated program that ``integrate`` prefetches runs bit for bit as the
    same program behind a wrapper that carries no ``prefetch``, which
    computes every gate at its stage time: the same states, or the same
    divergence time and partial record."""
    rng = np.random.default_rng(seed)
    L = build_laplacian(path_graph(n)) * rng.uniform(0.5, 4.0)
    inner = LinearTimeVarying(L, omega[:n], phi[:n])
    cfg = IntegratorConfig(dt, nsteps * dt)
    for label, system, feed in gated_systems(inner, rng, cfg.t_end):
        x0 = rng.uniform(-2.0, 2.0, system.order * n if system.route == "cascade" else 2 * n)
        fields = [system.rhs(feed) for _ in range(2)]
        opaque = fields[1]
        results = []
        for field in (fields[0], lambda s, t, h: opaque(s, t, h)):
            try:
                results.append(integrate(field, x0, cfg, system.tau_max))
            except DivergenceError as err:
                results.append((err.time, err.trajectory))
        assert fields[0].prefetch is not None, label
        fast, stages = results
        assert type(fast) is type(stages), label
        if isinstance(fast, tuple):
            assert fast[0] == stages[0], label
            fast, stages = fast[1], stages[1]
        assert np.array_equal(fast.states, stages.states), label


def rk4_path(field, s, h, steps):
    """The four-stage RK4 path of an autonomous field from s, written out:
    the state after each step and each step's four stage points."""
    x, states, points = s.copy(), [], []
    for _ in range(steps):
        k1 = field(x, 0.0, None)
        z2 = x + 0.5 * h * k1
        k2 = field(z2, 0.0, None)
        z3 = x + 0.5 * h * k2
        k3 = field(z3, 0.0, None)
        z4 = x + h * k3
        k4 = field(z4, 0.0, None)
        points.append((x.copy(), z2, z3, z4))
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return states, points


def band_sides(cascade, z):
    """The saturated rows' arguments L_k xi_k of a cascade state z."""
    n = cascade.n
    return np.concatenate([op.L @ z[k * n:(k + 1) * n] for k, op in enumerate(cascade.stages)
                           if isinstance(op, Saturated)])


def keeps_pattern(cascade, s, z, tol=1e-12):
    """Every saturated row of z on the side of the band edge that it holds
    at s: inside (|y| < 1) or clamped at sign(y), to within ``tol``."""
    y0, y = band_sides(cascade, s), band_sides(cascade, z)
    inside = np.abs(y0) < 1.0
    return bool(np.all(np.where(inside, np.abs(y) <= 1.0 + tol, np.sign(y0) * y >= 1.0 - tol)))


def random_laplacian(n, rng):
    w = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(w, 0.0)
    return (np.diag(w.sum(axis=1)) - w) * rng.uniform(0.2, 5.0)


@settings(max_examples=60, deadline=None)
@given(order=st.integers(min_value=1, max_value=3), below=st.integers(min_value=0, max_value=2),
       n=st.integers(min_value=1, max_value=5), fed=st.booleans(),
       edge=st.floats(min_value=0.5, max_value=3.0), step=st.floats(min_value=0.01, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(order=2, below=0, n=5, fed=True, edge=1.2, step=0.05, seed=1)
def test_admitted_pattern_steps_are_the_stage_steps(order, below, n, fed, edge, step, seed):
    """On a random saturated cascade (linear static stages below the
    saturated ones), every step that the admitted budget runs keeps the
    clamp pattern at all four stage points and equals the four-stage step
    to 1e-13 relative."""
    rng = np.random.default_rng(seed)
    below = min(below, order - 1)
    Ls = [random_laplacian(n, rng) for _ in range(order)]
    cascade = Cascade(tuple(LinearStatic(L) if k < below else Saturated(L)
                            for k, L in enumerate(Ls)))
    s = rng.uniform(-1.0, 1.0, order * n)
    for k in range(below, order):  # the arguments L_k xi_k reach |y| = edge
        block = s[k * n:(k + 1) * n]
        reach = np.abs(Ls[k] @ block).max()
        if reach > 0:
            block *= edge / reach
    w = rng.uniform(-1.0, 1.0, n) if fed else None
    field = cascade_rhs(cascade, w)
    norm = max(np.abs(L).sum(axis=1).max() for L in Ls)
    h = step / norm if norm > 0 else step
    answer = field.affine(s, h)
    if answer is None:
        return
    A, c, j = answer
    states, points = rk4_path(field, s, h, min(j, 64))
    for stage_points in points:
        assert all(keeps_pattern(cascade, s, z) for z in stage_points)
    Q, g = sim._rk4_step(A, c, h)
    x = s.copy()
    for want in states:
        inc = Q.dot(x)
        if g is not None:
            inc += g
        x += inc
        assert np.abs(x - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


PAIR = np.array([[1.0, -1.0], [-1.0, 1.0]])


def two_agent_pair():
    """An undirected pair fed apart by w = (-2, 2): while clamped at +1,
    its argument y_1 = x_1 - x_2 falls at 6 = ||L|| + ||L w||, the bound's
    own rate; inside the band near -1 it falls at about 2."""
    cascade = Cascade((Saturated(PAIR),))
    return cascade, cascade_rhs(cascade, np.array([-2.0, 2.0]))


def two_agent_second_order():
    """The pair at order 2 with xi_2 = (-5, 5): y_1 clamped at 1.5 falls at
    12 = ||L|| + ||L xi_2||, the bound's first-order rate."""
    cascade = Cascade((Saturated(PAIR), Saturated(PAIR)))
    return cascade, cascade_rhs(cascade)


@pytest.mark.parametrize("gap, crossing", [(0.005, 1), (0.015, 3)], ids=["k2", "k4"])
def test_a_stage_point_across_the_band_is_refused(gap, crossing):
    """A state whose first step's k2 (or, only, k4) stage point crosses the
    band edge gets no affine step."""
    cascade, field = two_agent_pair()
    s = np.array([0.0, 1.0 - gap])  # y_1 = gap - 1
    _, [points] = rk4_path(field, s, 0.01, 1)
    kept = [keeps_pattern(cascade, s, z, tol=0.0) for z in points]
    assert kept.index(False) == crossing
    assert field.affine(s, 0.01) is None


@pytest.mark.parametrize("system, s, steps", [
    (two_agent_pair, [1.5, 0.0], 8),
    (two_agent_second_order, [1.5, 0.0, -5.0, 5.0], 4),
], ids=["order-1", "order-2"])
def test_the_budget_ends_at_the_first_crossing(system, s, steps):
    """Where y_1 falls into the band at the bound's own rate, the budget
    runs every step before the first whose stage points cross, and no more."""
    cascade, field = system()
    s = np.array(s)
    _, points = rk4_path(field, s, 0.01, 20)
    first = next(m for m, zs in enumerate(points)
                 if not all(keeps_pattern(cascade, s, z, tol=0.0) for z in zs))
    assert field.affine(s, 0.01)[2] == first == steps


@given(arrivals=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=8).map(sorted))
def test_one_arrival_lookup(arrivals):
    """A Poisson delay and an ArrivalBank over it read the same last arrival:
    at each arrival, between two and before the first."""
    d = PoissonSampledDelay(arrivals, 50.0)
    bank = ArrivalBank([d])
    bounds = [0.0, *arrivals, 50.0]
    for t in [0.0, *arrivals, *((a + b) / 2 for a, b in zip(bounds, bounds[1:]))]:
        assert d(t) == t - bank.last_arrivals(t)[0], t


NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))


def with_number(value, k, new):
    """(``value`` with its k-th number set to ``new``, how many numbers it
    holds). Numbers are counted depth first through tuples, lists and
    dataclass fields; a tagged spec "<tag>:<value>" holds one."""
    if isinstance(value, (int, float)):
        return (new if k == 0 else value), 1
    if isinstance(value, str):
        tag, colon, _ = value.partition(":")
        return (f"{tag}:{new}" if colon and k == 0 else value), int(bool(colon))
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif isinstance(value, (tuple, list)):
        fields = dict(enumerate(value))
    else:
        return value, 0
    total = 0
    for key, item in fields.items():
        fields[key], count = with_number(item, k - total, new)
        total += count
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **fields), total
    return type(value)(fields.values()), total


@contextmanager
def interrupted_after(seconds):
    """Raise TimeoutError inside the block after ``seconds``, so that a loop
    that never ends fails the test instead of hanging it."""
    def stop(signum, frame):
        raise TimeoutError
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def poisson_arrivals_one_by_one(mean, seed, t_end):
    """Reference for ``sample_poisson_delays``: each gap drawn and summed
    on its own."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    arrivals, t = [], 0.0
    while True:
        t += -mean * np.log1p(-rng.random())
        if t > t_end:
            return np.array(arrivals)
        arrivals.append(t)


@settings(deadline=None)
@given(mean=st.floats(min_value=5e-3, max_value=5.0),
       seed=st.integers(0, 2**32) | st.tuples(st.integers(0, 99), st.integers(0, 99)),
       t_end=st.floats(min_value=0.0, max_value=20.0))
@example(mean=5e-3, seed=3, t_end=20.0)  # about four blocks of gaps
def test_poisson_block_draw_matches_one_by_one(mean, seed, t_end):
    got = sample_poisson_delays(mean, seed, t_end)
    want = PoissonSampledDelay(poisson_arrivals_one_by_one(mean, seed, t_end), t_end)
    assert np.array_equal(got.arrivals, want.arrivals)
    assert got.tau_max == want.tau_max


L3 = build_laplacian(path_graph(3)).tolist()
W3 = path_graph(3).weights.tolist()
# Each constructor with valid arguments; every number in them is one the
# constructor reads. A delay object, a seed and a field are bound.
CONSTRUCTORS = {
    "WeightedDigraph": (WeightedDigraph, (W3,)),
    "graph_from_edges": (graph_from_edges, (3, ((2, 1, 1.0), (3, 2, 0.5)))),
    "LinearStatic": (LinearStatic, (L3,)),
    "Saturated": (Saturated, (L3,)),
    "LinearTimeVarying": (LinearTimeVarying, (L3, [0.7, 1.3, 1.9], [0.3, 2.0, 4.0])),
    "DelayedRelative": (lambda w: DelayedRelative(w, ConstantDelay(0.5)), (W3,)),
    "DelayedAbsoluteVelocity": (DelayedAbsoluteVelocity, ([1.0, 2.0, 3.0], 10.0)),
    "ConstantDelay": (ConstantDelay, (0.5,)),
    "RampDelay": (RampDelay, (2.0,)),
    "PoissonSampledDelay": (PoissonSampledDelay, ([1.0, 2.5, 4.0], 10.0)),
    "sample_poisson_delays": (lambda mean, t_end: sample_poisson_delays(mean, 7, t_end),
                              (1.5, 10.0)),
    "IntegratorConfig": (IntegratorConfig, (0.1, 1.0, 2)),
    "integrate": (lambda x0, tau_max: integrate(lambda x, t, h: -x, x0,
                                                IntegratorConfig(0.1, 0.2), tau_max),
                  ([1.0, -2.0], 0.5)),
}


@settings(deadline=None)
@given(name=st.sampled_from(sorted(CONSTRUCTORS)), data=st.data(), bad=NON_FINITE)
def test_constructors_reject_non_finite_numbers(name, data, bad):
    """A NaN or infinity in any one number a constructor reads raises a
    toolkit error, never numpy's or Python's."""
    make, args = CONSTRUCTORS[name]
    make(*args)
    _, count = with_number(args, -1, bad)
    args, _ = with_number(args, data.draw(st.integers(0, count - 1)), bad)
    # An unbounded horizon would keep a sampler drawing arrivals forever.
    with pytest.raises(ConsensusLabError), interrupted_after(2.0):
        make(*args)


@settings(deadline=None)
@given(sc=scenarios(), data=st.data(), bad=NON_FINITE)
def test_config_route_rejects_non_finite_numbers(sc, data, bad):
    """A NaN or infinity in any number or tagged spec of a valid scenario is
    a ConfigError, and a config file holding it exits 1."""
    _, count = with_number(sc, -1, bad)
    sc, _ = with_number(sc, data.draw(st.integers(0, count - 1)), bad)
    with pytest.raises(ConfigError):
        validate_scenario(sc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bad.cfg"
        cfg.write_text(emit_scenario(sc))
        assert main(["--scenario", str(cfg), "--out", str(Path(tmp) / "out"), "--quiet"]) == 1
