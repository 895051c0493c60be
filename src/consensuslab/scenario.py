"""Declarative experiment descriptions and the dispatcher that runs them.

A Scenario is plain data (strings, numbers, tuples) so that config round
trips reproduce it exactly; operators, delay realizations, and disturbance
vectors are only instantiated at simulation time from the scenario seed.

Validation lives in two places, one per kind of rule, and checks the
scenario that will run: ``simulate_scenario`` and the CLI's ``compare`` run
it. ``validate_scenario`` checks what no object can see: controller names,
the stage count, stage kinds and spec syntax, that no stage sets a key its
kind does not read (a delayed_absolute_velocity stage keeps scale at its
default 1), initial conditions (flat vectors, order*N entries for xi0 and N
for the rest; xi0 excludes the plant keys and is read only by the
compositional controller, order 1 has no xdot0), disturbances (a vector only
under kind constant, a sup bound only under kind random), a Poisson mean of
at least dt, finite numbers and values the config echoes back. Every other rule
belongs to the object that reads the input: the graph (the agent count), the
operators (a spec's ref too), the ``sim`` delays, ``IntegratorConfig`` (the
grid), ``metrics`` (the report settings), ``Cascade`` and ``PlantLaw`` (the
stage layout, and the initial state: order 3 and up takes xi0 alone). So
validation then builds the scenario and its initial state, not its field.

Seeding scheme: initial conditions draw from SeedSequence((seed, 101)),
random disturbances from SeedSequence((seed, 202)), per-agent delay streams
from (seed, agent) and per-edge streams from (seed, i, j). Controllers in a
comparison therefore see sample-identical delay and disturbance
realizations.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dynamics, graphs, metrics, operators, sim
from .exceptions import ConfigError, ConsensusLabError, DivergenceError

CONTROLLERS = ("compositional", *dynamics.BASELINES)
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


# The optional StageSpec keys and the stage kinds that read them; any other
# kind would ignore the key.
_STAGE_KEY_READERS = {
    "omega": ("linear_time_varying",),
    "phi": ("linear_time_varying",),
    "gains": ("delayed_absolute_velocity",),
    "ref": ("delayed_absolute_velocity",),
    "delay": operators.DELAYED_KINDS,
}


def validate_scenario(sc: Scenario):
    """(L, system, initial state, d_ref) of a runnable scenario, built after
    the scenario-level rules, L the graph's one Laplacian; raises ConfigError."""
    _check_scenario(sc)
    L, system = _build(sc)
    with _config_errors():
        return (L, system, *_initial_conditions(sc, system))


def _check_scenario(sc: Scenario) -> None:
    """The scenario-level rules of ``validate_scenario``."""
    n = sc.graph_n
    # The echo would not parse back to these: it writes a bool (which numeric rules
    # take as 1 or 0) as True or False, reads every list back as a tuple (as the
    # StageSpecs that _build hashes need), and its parser splits lines and strips values.
    for prefix, obj in (("", sc), *((f"stage {k}: ", st) for k, st in enumerate(sc.stages, 1))):
        for key, value in vars(obj).items():
            if isinstance(value, bool):
                raise ConfigError(f"{prefix}{key} must not be a bool, got {value}")
            edges = value if key == "graph_edges" and isinstance(value, tuple) else ()
            if any(isinstance(v, (list, np.ndarray)) for v in (value, *edges)):
                raise ConfigError(f"{prefix}{key} must be a tuple (of tuples for edges), "
                                  f"got {value!r}")
    for text in [sc.name] + [s for st in sc.stages for s in (st.ref, st.delay) if s is not None]:
        if not isinstance(text, str) or text.strip() != text or len(text.splitlines()) > 1:
            raise ConfigError(f"a name or spec must be one unpadded line, got {text!r}")
    if sc.graph_kind not in ("path", "edges"):
        raise ConfigError(f"unknown graph kind {sc.graph_kind!r}")
    if sc.graph_kind == "edges" and sc.graph_edges is None:
        raise ConfigError("graph kind 'edges' needs an edges list")
    if sc.graph_kind == "path" and sc.graph_edges is not None:
        raise ConfigError("graph kind 'path' does not read an edges list")
    if not isinstance(sc.seed, (int, np.integer)) or sc.seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {sc.seed}")
    if sc.controller not in CONTROLLERS:
        raise ConfigError(f"unknown controller {sc.controller!r}")
    if sc.order != len(sc.stages):
        raise ConfigError(
            f"order {sc.order} does not match {len(sc.stages)} stage sections"
        )
    for k, stage in enumerate(sc.stages, start=1):
        if stage.kind not in STAGE_KINDS:
            raise ConfigError(f"stage {k}: unknown kind {stage.kind!r}")
        if stage.kind in operators.DELAYED_KINDS and stage.delay is None:
            raise ConfigError(f"stage {k}: delayed stage needs a delay spec")
        for key, readers in _STAGE_KEY_READERS.items():
            if getattr(stage, key) is not None and stage.kind not in readers:
                raise ConfigError(f"stage {k}: {stage.kind} does not read {key}")
        # scale keeps its default 1.0 where it is not read: every emitted
        # config writes it, so an unset default would change every hash.
        if stage.kind == "delayed_absolute_velocity" and stage.scale != 1.0:
            raise ConfigError(f"stage {k}: {stage.kind} does not read scale; leave it at 1")
    if sc.init_preset is not None and sc.init_preset not in INIT_PRESETS:
        raise ConfigError(f"unknown init preset {sc.init_preset!r}")
    _check_finite_numbers(sc)
    for label, vec, size in (("x0", sc.x0, n), ("xdot0", sc.xdot0, n), ("d_ref", sc.d_ref, n),
                             ("disturbance vector", sc.disturbance_vector, n),
                             ("xi0", sc.xi0, sc.order * n)):
        if vec is not None and np.shape(vec) != (size,):
            raise ConfigError(f"{label} must be a flat list of {size} numbers")
    if sc.init_preset is None and sc.x0 is None and sc.xi0 is None:
        raise ConfigError("no initial conditions: give a preset, x0, or xi0")
    if sc.xi0 is not None and sc.controller != "compositional":
        raise ConfigError(f"{sc.controller} starts from plant states and does not read xi0")
    if sc.xi0 is not None and (sc.init_preset, sc.x0, sc.xdot0) != (None,) * 3:
        raise ConfigError("a cascade given xi0 starts from xi0 alone: "
                          "init_preset, x0 and xdot0 are not read")
    if sc.order == 1 and sc.xdot0 is not None:
        raise ConfigError("order 1 has no velocity: xdot0 is not read")
    if sc.disturbance_kind not in ("none", "constant", "random"):
        raise ConfigError(f"unknown disturbance kind {sc.disturbance_kind!r}")
    if sc.disturbance_kind == "constant" and sc.disturbance_vector is None:
        raise ConfigError("constant disturbance needs a vector")
    if sc.disturbance_kind == "random" and not (sc.disturbance_sup or 0) > 0:
        raise ConfigError("random disturbance needs a positive sup bound")
    if sc.disturbance_kind != "constant" and sc.disturbance_vector is not None:
        raise ConfigError(f"disturbance kind {sc.disturbance_kind} does not read a vector")
    if sc.disturbance_kind != "random" and sc.disturbance_sup is not None:
        raise ConfigError(f"disturbance kind {sc.disturbance_kind} does not read sup")
    sim.IntegratorConfig(sc.dt, sc.t_end, sc.record_every)
    metrics._check_settings(sc.tolerance, sc.tail_fraction)


def _check_finite_numbers(sc: Scenario) -> None:
    """The config format's rule that its numbers and lists, which admit NaN
    and Infinity, are finite; the objects check the values of tagged specs."""
    stages = [(f"stage {k}: {name}", getattr(stage, name))
              for k, stage in enumerate(sc.stages, start=1)
              for name in ("scale", "omega", "phi", "gains")]
    for label, values in [("x0", sc.x0), ("xdot0", sc.xdot0), ("xi0", sc.xi0),
                          ("d_ref", sc.d_ref), ("disturbance vector", sc.disturbance_vector),
                          ("disturbance sup", sc.disturbance_sup),
                          *(("edge", entry) for entry in sc.graph_edges or ()), *stages]:
        try:
            finite = values is None or np.isfinite(np.asarray(values, dtype=float)).all()
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ConfigError(f"{label} must hold finite numbers, got {values!r}")


def _parse_tagged(spec, allowed):
    """(tag, value) of a "<tag>:<value>" spec, or None when there is none."""
    if spec is None:
        return None
    try:
        tag, value = spec.split(":", 1)
        value = float(value)
    except ValueError:
        raise ConfigError(f"malformed spec {spec!r}") from None
    if tag not in allowed:
        raise ConfigError(f"{tag!r} not one of {allowed}")
    return tag, value


@contextmanager
def _config_errors(prefix=""):
    """Re-raise what an object or spec rejects as a ConfigError whose
    message starts with ``prefix``."""
    try:
        yield
    except ConsensusLabError as err:
        raise ConfigError(f"{prefix}{err}") from err


def _build_delays(delay, sc: Scenario, edges=None):
    """The delays of a parsed delay spec: one constant or ramp delay for
    all, or Poisson streams per agent or, given ``edges``, per edge. The
    delay classes check the value's range; each carries its bound. A
    Poisson mean below dt, which would draw many arrivals per step, is
    rejected."""
    tag, value = delay
    if tag != "poisson":
        return (sim.ConstantDelay if tag == "constant" else sim.RampDelay)(value)
    if value < sc.dt:
        raise ConfigError(f"poisson mean {value!r} is below the step dt = {sc.dt!r}")
    if edges is None:
        return sim.poisson_delay_bank(value, sc.seed, sc.t_end, sc.graph_n)
    if not edges:  # No edge reads it; one stream checks the mean.
        return sim.sample_poisson_delays(value, sc.seed, sc.t_end)
    return {e: sim.sample_poisson_delays(value, (sc.seed, *e), sc.t_end) for e in edges}


def build_operator(stage: StageSpec, graph, L, sc: Scenario, delay=None,
                   ref=None) -> operators.ConsensusOperator:
    """Stage operator on ``graph``, whose Laplacian ``L`` a unit-scale stage
    holds; ``delay`` is the parsed spec (tag, value), ``ref`` a number."""
    if stage.kind == "delayed_relative":
        weights = stage.scale * graph.weights
        edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(weights))]
        return operators.DelayedRelative(weights, _build_delays(delay, sc, edges))
    if stage.kind == "delayed_absolute_velocity":
        return operators.DelayedAbsoluteVelocity(stage.gains, ref)
    L = L if stage.scale == 1.0 else stage.scale * L
    if stage.kind == "linear_static":
        return operators.LinearStatic(L)
    if stage.kind == "linear_time_varying":
        return operators.LinearTimeVarying(L, stage.omega, stage.phi)
    return operators.Saturated(L)


def _build(sc: Scenario):
    """(L, system): the graph's Laplacian, read-only, and the Cascade on
    the compositional route, else the baseline's PlantLaw.

    Identical StageSpecs share one operator, so that one gate table per
    operator and common subexpressions serve every such stage. Each delayed
    stage's delay spec is built once, whatever the controller: per edge
    inside ``build_operator`` for delayed_relative, per agent here for
    delayed_absolute_velocity, whose delays only conventional-delayed reads.
    What an object rejects is re-raised as ConfigError, prefixed "stage k:"
    when stage k raised it.
    """
    with _config_errors():
        graph = (graphs.path_graph(sc.graph_n) if sc.graph_kind == "path"
                 else graphs.graph_from_edges(sc.graph_n, sc.graph_edges))
    L = graphs.build_laplacian(graph)
    built = {}
    for k, stage in enumerate(sc.stages, start=1):
        if stage in built:
            continue
        with _config_errors(f"stage {k}: "):
            delay = _parse_tagged(stage.delay, ("constant", "ramp", "poisson"))
            ref = _parse_tagged(stage.ref, ("constant",))
            op = build_operator(stage, graph, L, sc, delay, ref and ref[1])
            absolute = stage.kind == "delayed_absolute_velocity"
            built[stage] = op, _build_delays(delay, sc) if absolute else None
    ops = tuple(built[stage][0] for stage in sc.stages)
    with _config_errors():
        if sc.controller == "compositional":
            return L, dynamics.Cascade(ops)
        delayed = sc.controller == "conventional-delayed"
        return L, dynamics.PlantLaw(sc.controller, ops,
                                    built[sc.stages[-1]][1] if delayed else None)


def _initial_conditions(sc: Scenario, system):
    """(initial state, d_ref) in transformed coordinates x_tilde = x - d_ref:
    xi0 when the scenario gives it, else ``system.initial_state`` of the
    plant initial conditions x_tilde(0) and xdot(0)."""
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

    if sc.xi0 is not None:
        return np.asarray(sc.xi0, dtype=float), d_ref
    return system.initial_state(x0, xdot0), d_ref


def _build_disturbance(sc: Scenario):
    if sc.disturbance_kind == "none":
        return None
    if sc.disturbance_kind == "constant":
        vec = np.asarray(sc.disturbance_vector, dtype=float)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((sc.seed, 202)))
        vec = rng.uniform(-sc.disturbance_sup, sc.disturbance_sup, size=sc.graph_n)
    return vec


def simulate_scenario(sc: Scenario) -> sim.Trajectory:
    """Run one scenario and return its record with the plant map and meta
    attached.

    The system that ``validate_scenario`` builds (the compositional Cascade
    or a baseline's PlantLaw) runs its own field from its initial state, and
    its ``plant`` map, which returns the offset-free positions x - d_ref,
    becomes the record's; meta keeps the formation offsets and the Laplacian.
    Divergence raises DivergenceError whose ``trajectory`` carries the
    partial record, annotated the same way (the blow-up time sits in
    meta["divergence_time"]).
    """
    L, system, state0, d_ref = validate_scenario(sc)
    field = system.rhs(_build_disturbance(sc))
    meta = {
        "order": sc.order,
        "n_agents": sc.graph_n,
        "route": system.route,
        "d_ref": tuple(float(v) for v in d_ref),
        "laplacian": L,
        "divergence_time": None,
    }
    cfg = sim.IntegratorConfig(sc.dt, sc.t_end, sc.record_every)
    try:
        traj = sim.integrate(field, state0, cfg, system.tau_max)
    except DivergenceError as err:
        meta["divergence_time"] = err.time
        err.trajectory.plant, err.trajectory.meta = system.plant, meta
        raise
    traj.plant, traj.meta = system.plant, meta
    return traj
