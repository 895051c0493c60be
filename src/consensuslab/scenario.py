"""Declarative experiment descriptions and the dispatcher that runs them.

A Scenario is plain data (strings, numbers, tuples) so that config round
trips reproduce it exactly; operators, delay realizations, and disturbance
vectors are only instantiated at simulation time from the scenario seed.

Seeding scheme: initial conditions draw from SeedSequence((seed, 101)),
random disturbances from SeedSequence((seed, 202)), per-agent delay streams
from (seed, agent) and per-edge streams from (seed, i, j). Controllers in a
comparison therefore see sample-identical delay and disturbance
realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, graphs, operators, sim
from .exceptions import ConfigError, DivergenceError

CONTROLLERS = (
    "compositional",
    "conventional",
    "naive-serial",
    "conventional-ideal",
    "conventional-delayed",
)
INIT_PRESETS = ("uniform_pm1", "standstill_leader_v10", "positional_error_v10")
STAGE_KINDS = operators.INNER_KINDS + operators.DELAYED_KINDS


@dataclass(frozen=True)
class StageSpec:
    """Declarative description of one composition stage."""

    kind: str
    scale: float = 1.0
    omega: tuple | None = None
    phi: tuple | None = None
    gains: tuple | None = None
    ref: str | None = None     # "constant:<value>"
    delay: str | None = None   # "constant:<tau>" | "ramp:<cap>" | "poisson:<mean>"


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    order: int
    controller: str
    graph_kind: str            # "path" | "edges"
    graph_n: int
    stages: tuple
    graph_edges: tuple | None = None
    init_preset: str | None = None
    x0: tuple | None = None
    xdot0: tuple | None = None
    xi0: tuple | None = None
    d_ref: tuple | None = None
    disturbance_kind: str = "none"
    disturbance_vector: tuple | None = None
    disturbance_sup: float | None = None
    dt: float = 1e-3
    t_end: float = 60.0
    record_every: int = 10
    tolerance: float = 1e-6
    tail_fraction: float = 0.1


def validate_scenario(sc: Scenario) -> None:
    """Reject inconsistent scenarios; raises ConfigError with the reason."""
    n = sc.graph_n
    if sc.graph_kind not in ("path", "edges"):
        raise ConfigError(f"unknown graph kind {sc.graph_kind!r}")
    if sc.graph_kind == "edges" and sc.graph_edges is None:
        raise ConfigError("graph kind 'edges' needs an edges list")
    if n < 1:
        raise ConfigError("graph needs at least one agent")
    if sc.seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {sc.seed}")
    if sc.controller not in CONTROLLERS:
        raise ConfigError(f"unknown controller {sc.controller!r}")
    if sc.order != len(sc.stages):
        raise ConfigError(
            f"order {sc.order} does not match {len(sc.stages)} stage sections"
        )
    if not 1 <= sc.order <= dynamics.MAX_ORDER:
        raise ConfigError(f"order must be 1..{dynamics.MAX_ORDER}")
    for k, stage in enumerate(sc.stages):
        if stage.kind not in STAGE_KINDS:
            raise ConfigError(f"stage {k + 1}: unknown kind {stage.kind!r}")
        inner = stage.kind in operators.INNER_KINDS
        if not inner and k + 1 < sc.order:
            raise ConfigError(
                f"stage {k + 1}: {stage.kind} is not relative feedback and is "
                "only admissible as the outermost stage"
            )
        if stage.kind == "linear_time_varying":
            if stage.omega is None or stage.phi is None:
                raise ConfigError(f"stage {k + 1}: time-varying stage needs omega and phi")
            if len(stage.omega) != n or len(stage.phi) != n:
                raise ConfigError(f"stage {k + 1}: omega/phi must have {n} entries")
            if any(w == 0 for w in stage.omega):
                raise ConfigError(f"stage {k + 1}: gate frequencies must be nonzero")
        if stage.kind in operators.DELAYED_KINDS and stage.delay is None:
            raise ConfigError(f"stage {k + 1}: delayed stage needs a delay spec")
        if stage.kind == "delayed_absolute_velocity":
            if stage.gains is None or len(stage.gains) != n:
                raise ConfigError(f"stage {k + 1}: needs {n} gains")
            if stage.ref is None:
                raise ConfigError(f"stage {k + 1}: needs a reference accessor")
        if stage.delay is not None:
            _parse_tagged(stage.delay, ("constant", "ramp", "poisson"), k + 1)
        if stage.ref is not None:
            _parse_tagged(stage.ref, ("constant",), k + 1)
    if sc.controller in ("conventional", "naive-serial"):
        if sc.order != 2:
            raise ConfigError(f"{sc.controller} baseline is second order only")
        if any(st.kind not in operators.INNER_KINDS for st in sc.stages):
            raise ConfigError(
                f"{sc.controller} baseline requires inner-admissible operators"
            )
    if sc.controller in ("conventional-ideal", "conventional-delayed"):
        if sc.order != 2 or sc.stages[1].kind != "delayed_absolute_velocity":
            raise ConfigError(
                f"{sc.controller} applies to order-2 scenarios with a "
                "delayed_absolute_velocity outer stage"
            )
    if sc.init_preset is not None and sc.init_preset not in INIT_PRESETS:
        raise ConfigError(f"unknown init preset {sc.init_preset!r}")
    for label, vec in (("x0", sc.x0), ("xdot0", sc.xdot0), ("d_ref", sc.d_ref),
                       ("disturbance vector", sc.disturbance_vector)):
        if vec is not None and len(vec) != n:
            raise ConfigError(f"{label} must have {n} entries")
    if sc.xi0 is not None and len(sc.xi0) != sc.order * n:
        raise ConfigError(f"xi0 must have order*N = {sc.order * n} entries")
    if sc.init_preset is None and sc.x0 is None and sc.xi0 is None:
        raise ConfigError("no initial conditions: give a preset, x0, or xi0")
    if sc.disturbance_kind not in ("none", "constant", "random"):
        raise ConfigError(f"unknown disturbance kind {sc.disturbance_kind!r}")
    if sc.disturbance_kind == "constant" and sc.disturbance_vector is None:
        raise ConfigError("constant disturbance needs a vector")
    if sc.disturbance_kind == "random" and not (sc.disturbance_sup or 0) > 0:
        raise ConfigError("random disturbance needs a positive sup bound")
    # The grid rules live in IntegratorConfig; reading nsteps applies the last.
    sim.IntegratorConfig(sc.dt, sc.t_end, sc.record_every).nsteps
    if not sc.tolerance > 0:
        raise ConfigError("tolerance must be positive")
    if not 0 < sc.tail_fraction <= 1:
        raise ConfigError("tail_fraction must be in (0, 1]")


def _parse_tagged(spec: str, allowed, stage_no):
    try:
        tag, value = spec.split(":", 1)
        value = float(value)
    except ValueError:
        raise ConfigError(f"stage {stage_no}: malformed spec {spec!r}") from None
    if tag not in allowed:
        raise ConfigError(f"stage {stage_no}: {tag!r} not one of {allowed}")
    if tag in ("ramp", "poisson") and not value > 0:
        raise ConfigError(f"stage {stage_no}: {tag} parameter must be positive")
    if tag == "constant" and len(allowed) > 1 and value < 0:
        raise ConfigError(f"stage {stage_no}: constant delay must be nonnegative")
    return tag, value


def build_graph(sc: Scenario) -> graphs.WeightedDigraph:
    if sc.graph_kind == "path":
        return graphs.path_graph(sc.graph_n)
    return graphs.graph_from_edges(sc.graph_n, sc.graph_edges)


def _build_delays_for_agents(tag, value, sc, n):
    if tag == "constant":
        return [sim.ConstantDelay(value)] * n, value
    if tag == "ramp":
        return [sim.RampDelay(value)] * n, value
    bank = sim.poisson_delay_bank(value, sc.seed, sc.t_end, n)
    return bank, max(d.tau_max for d in bank)


def _build_delays_for_edges(tag, value, sc, weights):
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(weights))]
    if tag == "constant":
        return {e: sim.ConstantDelay(value) for e in edges}, value
    if tag == "ramp":
        return {e: sim.RampDelay(value) for e in edges}, value
    delays = {
        (i, j): sim.sample_poisson_delays(value, (sc.seed, i, j), sc.t_end)
        for i, j in edges
    }
    tau_max = max((d.tau_max for d in delays.values()), default=0.0)
    return delays, tau_max


def build_operator(stage: StageSpec, graph, sc: Scenario) -> operators.ConsensusOperator:
    L = stage.scale * graphs.build_laplacian(graph)
    if stage.kind == "linear_static":
        return operators.LinearStatic(L)
    if stage.kind == "linear_time_varying":
        return operators.LinearTimeVarying(L, stage.omega, stage.phi)
    if stage.kind == "saturated":
        return operators.Saturated(L)
    tag, value = _parse_tagged(stage.delay, ("constant", "ramp", "poisson"), 0)
    if stage.kind == "delayed_relative":
        weights = stage.scale * graph.weights
        delays, tau_max = _build_delays_for_edges(tag, value, sc, weights)
        return operators.DelayedRelative(weights, delays, tau_max)
    ref_tag, ref_value = _parse_tagged(stage.ref, ("constant",), 0)
    delays, tau_max = _build_delays_for_agents(tag, value, sc, sc.graph_n)
    return operators.DelayedAbsoluteVelocity(
        stage.gains, lambda t, v=ref_value: v, delays, tau_max
    )


def _shared_operators(stages, graph, sc: Scenario) -> tuple:
    """One operator per stage, identical StageSpecs sharing one operator, so
    that its gate memo and common subexpressions serve every such stage."""
    built = {}
    for stage in stages:
        if stage not in built:
            built[stage] = build_operator(stage, graph, sc)
    return tuple(built[stage] for stage in stages)


def _initial_conditions(sc: Scenario, cascade=None):
    """Transformed-coordinate initial conditions (x_tilde, xdot, xi).

    ``xi0`` is only computed when a cascade is supplied (cascade route).
    """
    n = sc.graph_n
    rng = np.random.default_rng(np.random.SeedSequence((sc.seed, 101)))
    d_ref = np.asarray(sc.d_ref, dtype=float) if sc.d_ref is not None else np.zeros(n)

    if sc.x0 is not None:
        x0 = np.asarray(sc.x0, dtype=float) - d_ref
    elif sc.init_preset == "positional_error_v10":
        x0 = rng.uniform(-2.0, 2.0, size=n)
    else:
        x0 = rng.uniform(-1.0, 1.0, size=n)
    if sc.xdot0 is not None:
        xdot0 = np.asarray(sc.xdot0, dtype=float)
    elif sc.init_preset == "standstill_leader_v10":
        xdot0 = np.zeros(n)
        xdot0[0] = 10.0
    elif sc.init_preset == "positional_error_v10":
        xdot0 = np.full(n, 10.0)
    else:
        xdot0 = rng.uniform(-1.0, 1.0, size=n) if sc.order >= 2 else np.zeros(n)

    if cascade is None:
        return x0, xdot0, None, d_ref
    if sc.xi0 is not None:
        xi0 = np.asarray(sc.xi0, dtype=float)
    elif sc.order == 1:
        xi0 = x0
    elif sc.order == 2:
        xi0 = dynamics.matched_cascade_state(cascade, x0, xdot0)
    else:
        # No matched rule beyond order 2: seed the cascade states directly.
        xi0 = rng.uniform(-1.0, 1.0, size=sc.order * n)
    return x0, xdot0, xi0, d_ref


def _build_disturbance(sc: Scenario):
    if sc.disturbance_kind == "none":
        return None
    if sc.disturbance_kind == "constant":
        vec = np.asarray(sc.disturbance_vector, dtype=float)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((sc.seed, 202)))
        vec = rng.uniform(-sc.disturbance_sup, sc.disturbance_sup, size=sc.graph_n)
    return lambda t: vec


def _base_meta(sc: Scenario, graph, d_ref, route):
    return {
        "name": sc.name,
        "seed": sc.seed,
        "order": sc.order,
        "controller": sc.controller,
        "n_agents": sc.graph_n,
        "route": route,
        "d_ref": tuple(float(v) for v in d_ref),
        "dt": sc.dt,
        "t_end": sc.t_end,
        "record_every": sc.record_every,
        "laplacian": graphs.build_laplacian(graph),
        "divergence_time": None,
    }


def simulate_scenario(sc: Scenario) -> sim.Trajectory:
    """Run one scenario and return the trajectory with plant states attached.

    The compositional controller runs in the cascade state space; the
    baselines run on the double-integrator plant. Divergence raises
    DivergenceError whose ``trajectory`` carries the partial, fully annotated
    record (the blow-up time sits in meta["divergence_time"]).
    """
    validate_scenario(sc)
    graph = build_graph(sc)
    cfg = sim.IntegratorConfig(sc.dt, sc.t_end, sc.record_every)
    if sc.controller == "compositional":
        return _run_cascade(sc, graph, cfg)
    return _run_plant(sc, graph, cfg)


def _integrate_annotated(field, x0, cfg, tau_max, meta, plant_of):
    """Integrate, then attach ``plant_of(traj) = (plant_x, plant_xdot)`` and
    ``meta``. A divergence is re-raised with its partial trajectory annotated
    the same way and the blow-up time in meta["divergence_time"]."""

    def annotate(traj):
        traj.plant_x, traj.plant_xdot = plant_of(traj)
        traj.meta = meta
        return traj

    try:
        traj = sim.integrate(field, x0, cfg, tau_max)
    except DivergenceError as err:
        meta["divergence_time"] = err.time
        annotate(err.trajectory)
        raise
    return annotate(traj)


def _cascade_plant(traj, cascade, d_ref):
    n = cascade.n
    m = len(traj)
    plant_x = np.empty((m, n))
    plant_xdot = np.empty((m, n)) if cascade.order >= 2 else None
    for r in range(m):
        x, xdot = dynamics.reconstruct_plant(cascade, traj.states[r], traj.times[r])
        plant_x[r] = x + d_ref
        if plant_xdot is not None:
            plant_xdot[r] = xdot
    return plant_x, plant_xdot


def _run_cascade(sc, graph, cfg):
    cascade = dynamics.Cascade(_shared_operators(sc.stages, graph, sc))
    x0, xdot0, xi0, d_ref = _initial_conditions(sc, cascade)
    u_ref = _build_disturbance(sc)
    field = dynamics.cascade_rhs(cascade, u_ref)
    meta = _base_meta(sc, graph, d_ref, "cascade")
    return _integrate_annotated(
        field, xi0, cfg, cascade.tau_max, meta,
        lambda traj: _cascade_plant(traj, cascade, d_ref),
    )


def _plant_controller(sc: Scenario, graph):
    """(controller callable, tau_max or None) for the plant route."""
    n = sc.graph_n
    if sc.controller in ("conventional", "naive-serial"):
        op1, op2 = _shared_operators(sc.stages, graph, sc)
    else:
        op1 = build_operator(sc.stages[0], graph, sc)
    if sc.controller == "conventional":
        return (lambda x, v, t, hist: dynamics.conventional_controller(
            op1, op2, x, v, t)), None
    if sc.controller == "naive-serial":
        return (lambda x, v, t, hist: dynamics.naive_serial_controller(
            op1, op2, x, v, t)), None
    stage2 = sc.stages[1]
    _, v_ref = _parse_tagged(stage2.ref, ("constant",), 2)
    if sc.controller == "conventional-ideal":
        control = dynamics.gps_velocity_controller(stage2.gains, op1, v_ref)
        return (lambda x, v, t, hist: control(x, v, t)), None
    tag, value = _parse_tagged(stage2.delay, ("constant", "ramp", "poisson"), 2)
    delays, tau_max = _build_delays_for_agents(tag, value, sc, n)
    control = dynamics.gps_velocity_controller(stage2.gains, op1, v_ref, delays)

    def wrapped(x, v, t, hist):
        vel_hist = sim.SliceView(hist, n) if hist is not None else None
        return control(x, v, t, vel_hist)

    return wrapped, tau_max


def _run_plant(sc, graph, cfg):
    n = sc.graph_n
    x0, xdot0, _, d_ref = _initial_conditions(sc)
    w = _build_disturbance(sc)
    control, tau_max = _plant_controller(sc, graph)

    def field(state, t, hist):
        x, v = state[:n], state[n:]
        u = control(x, v, t, hist)
        if w is not None:
            u = u + w(t)
        return np.concatenate((v, u))

    meta = _base_meta(sc, graph, d_ref, "plant")
    return _integrate_annotated(
        field, np.concatenate((x0, xdot0)), cfg, tau_max, meta,
        lambda traj: (traj.states[:, :n] + d_ref, traj.states[:, n:].copy()),
    )


def with_controller(sc: Scenario, controller: str) -> Scenario:
    return replace(sc, controller=controller)
