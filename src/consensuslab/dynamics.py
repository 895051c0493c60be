"""Cascade assembly and the plant-route baseline controllers.

A cascade of n first-order consensus operators defines the closed loop

    xi_k' = -op_k(xi_k, t) + xi_{k+1},   k < n
    xi_n' = -op_n(xi_n, t) + u_ref(t)

with xi_1 = x the plant positions and xi_{k+1} = xi_k' + op_k(xi_k, t).
The cascade form is the primary simulation route. The controller-on-plant
form runs the second-order baselines (``PlantLaw``) on the plant
s = [x; xdot]; ``compositional_controller`` writes the cascade as such a
controller, as a cross-check.

Both routes are compiled: ``cascade_rhs`` and ``plant_rhs`` make one block
product per call (naive-serial's nested op_2(op_1(x)) adds a second), then
apply the gated and saturated operators' ``finish`` map once per run of
adjacent blocks that share one operator. They call only ``finish`` and a
delayed outer stage's unchecked ``apply``, inside ``sim.integrate``, which
rejects a non-finite or blown-up state after every step. The other callers
of an operator use its checked ``evaluate``. Reconstruction takes a whole
block of recorded rows in one call and runs where a record is read, not
after integration: the scenario layer makes it the plant map of a cascade
record, which ``Trajectory.plant_blocks`` applies block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OperatorError, ShapeError
from .operators import ConsensusOperator, DelayedAbsoluteVelocity, LinearStatic
from .sim import HeldReads, SliceView

MAX_ORDER = 4


@dataclass(frozen=True)
class Cascade:
    """Ordered composition stages, innermost first."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if not 1 <= len(stages) <= MAX_ORDER:
            raise OperatorError(f"cascade order must be 1..{MAX_ORDER}")
        n = stages[0].n
        for k, op in enumerate(stages):
            if not isinstance(op, ConsensusOperator):
                raise OperatorError(f"stage {k + 1} is not a consensus operator")
            if op.n != n:
                raise ShapeError(f"stage {k + 1} has {op.n} agents, stage 1 has {n}")
            if k < len(stages) - 1 and not op.relative_feedback:
                raise OperatorError(
                    f"stage {k + 1} ({op.kind}) is not relative feedback; "
                    "delayed kinds are admissible only as the outermost stage"
                )

    @property
    def order(self) -> int:
        return len(self.stages)

    @property
    def n(self) -> int:
        return self.stages[0].n

    @property
    def tau_max(self) -> float | None:
        """Delay bound of a history-reading outer stage (only the outer
        stage may be delayed); None when no stage reads a history."""
        return getattr(self.stages[-1], "tau_max", None)


# Block products at or above this state size go through CSR when at most
# _CSR_MAX_DENSITY of A is nonzero. Measured per product with one BLAS
# thread (2-vCPU Xeon): a path-graph cascade costs dense 9 us / CSR 7 us at
# dim 200, dense 1.9 us / CSR 6.3 us at dim 20 and dense 250 us / CSR 9 us
# at dim 800; at dim 400 CSR still wins at 5% fill and loses at 20%.
_CSR_MIN_DIM = 200
_CSR_MAX_DENSITY = 0.05


def _block_operator(A):
    """A itself, or A as a CSR array when it is large and sparse."""
    if A.shape[0] >= _CSR_MIN_DIM and np.count_nonzero(A) <= _CSR_MAX_DENSITY * A.size:
        from scipy.sparse import csr_array

        return csr_array(A)
    return A


def _finish_runs(block_ops, n):
    """(finish, rows, m) for each run of m adjacent N-row blocks whose
    operator, block_ops[k] for block k, is one and the same gated or
    saturated operator. Other blocks have no ``finish``."""
    runs = []
    for k, op in enumerate(block_ops):
        if op is None or isinstance(op, LinearStatic) or not op.relative_feedback:
            continue
        if runs and block_ops[k - 1] is op:
            runs[-1][2] += 1
        else:
            runs.append([op.finish, k, 1])
    return [(finish, slice(k * n, (k + m) * n), m) for finish, k, m in runs]


def cascade_rhs(cascade: Cascade, u_ref=None):
    """Vector field ``field(xi, t, hist)`` of the stacked cascade state.

    ``u_ref`` is None or a callable t -> N-vector feeding the outer stage.
    ``hist`` is a history view of the stacked state, read only by a delayed
    outer stage. The field is compiled into one block product per call: A
    holds -L_k on the diagonal block of every inner stage and the identity
    shift xi_{k+1} of every linear-static stage. Gated and saturated stages
    then apply their odd ``finish`` map in place to their block of A xi,
    once over the joined (m, N) block of m adjacent stages that share one
    operator, and add their shift; a delayed outer stage runs its unchecked
    ``apply``. A ``DelayedAbsoluteVelocity`` outer stage with a numeric
    reference v is affine, -op(z) = -diag(gains) z + gains v: it is folded
    into A plus a constant shift and reads no history. No operator input is
    checked here: ``sim.integrate`` tests the state after every step.
    """
    stages = cascade.stages
    order = cascade.order
    n = cascade.n
    dim = order * n
    slices = [slice(k * n, (k + 1) * n) for k in range(order)]
    tail = slices[-1]

    A = np.zeros((dim, dim))
    shifted = []
    for k, op in enumerate(stages):
        sl = slices[k]
        if not op.relative_feedback:
            continue  # a delayed outer stage writes its block itself
        A[sl, sl] = -op.L
        nxt = slices[k + 1] if k + 1 < order else None
        if isinstance(op, LinearStatic):
            if nxt is not None:
                A[sl, nxt] = np.eye(n)
        elif nxt is not None:
            shifted.append((sl, nxt))
    finished = _finish_runs(stages, n)
    delayed = None if stages[-1].relative_feedback else stages[-1]
    ref_shift = None
    if isinstance(delayed, DelayedAbsoluteVelocity):
        A[tail, tail] = -np.diag(delayed.gains)
        ref_shift = delayed.gains * delayed.ref
        delayed = None
    A = _block_operator(A)

    def field(xi, t, hist):
        if len(xi) != dim:
            raise ShapeError(f"state length {len(xi)} != order*N = {dim}")
        out = A @ xi
        for finish, sl, m in finished:
            finish(out[sl] if m == 1 else out[sl].reshape(m, n), t)
        for sl, nxt in shifted:
            out[sl] += xi[nxt]
        if delayed is not None:
            view = SliceView(hist, tail.start) if hist is not None else None
            out[tail] = -delayed.apply(xi[tail], t, view)
        if ref_shift is not None:
            out[tail] += ref_shift
        if u_ref is not None:
            out[tail] += u_ref(t)
        return out

    return field


def matched_cascade_state(cascade: Cascade, x0, xdot0) -> np.ndarray:
    """Cascade initial state matching plant initial conditions (order 2 only):
    xi_1(0) = x(0), xi_2(0) = xdot(0) + op_1(x(0), 0)."""
    if cascade.order != 2:
        raise OperatorError("matched initialization is defined for order 2 only")
    x0 = np.asarray(x0, dtype=float)
    xdot0 = np.asarray(xdot0, dtype=float)
    return np.concatenate((x0, xdot0 + cascade.stages[0].evaluate(x0, 0.0)))


def reconstruct_plant(cascade: Cascade, xi, t):
    """Plant states from cascade states: x = xi_1, xdot = xi_2 - op_1(xi_1, t).

    ``xi`` is one stacked state at time t, or an (m, order*N) block of
    them with t the (m,) array of their times; x and xdot are then (m, N)
    blocks, and op_1 takes the whole block in one product with one finite
    check. For order 1 there is no velocity; returns (x, None). Derivatives
    beyond xdot are left to finite differences on the recorded grid
    (metrics).
    """
    n_agents = cascade.n
    xi = np.asarray(xi, dtype=float)
    x = xi[..., :n_agents]
    if cascade.order == 1:
        return x, None
    xdot = xi[..., n_agents:2 * n_agents] - cascade.stages[0].evaluate(x, t)
    return x, xdot


def _require_inner(op: ConsensusOperator, role: str):
    if not op.relative_feedback:
        raise OperatorError(
            f"{role} must be an inner-admissible (relative, undelayed) operator, "
            f"got {op.kind}"
        )


def compositional_controller(l1, l2):
    """u(x, xdot, t, hist=None) = -op_2(xdot + op_1(x, t), t) - d/dt op_1(x, t).

    The derivative term uses the almost-everywhere rule of the inner stage.
    ``hist`` is a history view of the composite signal xdot + op_1(x), needed
    only when the outer stage is delayed.
    """
    _require_inner(l1, "inner stage")

    def control(x, xdot, t, hist=None):
        z2 = xdot + l1.evaluate(x, t)
        return -l2.evaluate(z2, t, hist) - l1.ae_derivative(x, xdot, t)

    return control


BASELINES = ("conventional", "naive-serial", "conventional-ideal", "conventional-delayed")


@dataclass(frozen=True)
class PlantLaw:
    """A baseline controller u of the double-integrator plant x'' = u + w.

    ``stages`` are a scenario's two stage operators, innermost first:

        conventional:          u = -op_1(xdot, t) - op_2(x, t)
        naive-serial:          u = -(op_2 + op_1)(xdot, t) - op_2(op_1(x, t), t)
        conventional-ideal:    u = -gains * (xdot(t) - v) - op_1(x, t)
        conventional-delayed:  u_i = -gains_i * (xdot_i(t - tau_i(t)) - v) - [op_1(x, t)]_i

    naive-serial is the serial expansion that drops the time-variation cross
    terms of the true composition; it is correct only for static linear
    stages. The velocity-tracking laws take gains and the numeric reference
    v from their ``DelayedAbsoluteVelocity`` outer stage. The delayed form
    consumes the raw held measurement of each agent's own velocity
    (zero-order hold of the last sample), as an implementation without
    local velocity-history correction would; ``delays`` is one delay per
    agent or one shared by all, built by the scenario from the outer
    stage's delay spec, and ``tau_max`` bounds them. Construction is the
    one check of the stage layout each baseline takes.
    """

    controller: str
    stages: tuple
    delays: object = None
    tau_max: float | None = None

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        if self.controller not in BASELINES:
            raise OperatorError(f"unknown baseline {self.controller!r}")
        if len(stages) != 2:
            raise OperatorError(f"{self.controller} is second order only")
        first, second = stages
        _require_inner(first, "stage 1")
        if self.controller in ("conventional", "naive-serial"):
            _require_inner(second, "stage 2")
        elif not isinstance(second, DelayedAbsoluteVelocity):
            raise OperatorError(
                f"{self.controller} needs a delayed_absolute_velocity outer stage"
            )
        if second.n != first.n:
            raise ShapeError(f"need {first.n} agents in stage 2, got {second.n}")
        if (self.controller == "conventional-delayed") != (self.delays is not None):
            raise OperatorError("delays go with conventional-delayed, and only with it")
        if (self.delays is None) != (self.tau_max is None):
            raise OperatorError("delays and their bound tau_max go together")

    @property
    def n(self) -> int:
        return self.stages[0].n


def plant_rhs(law: PlantLaw, w=None):
    """Vector field ``field(s, t, hist)`` of the plant state s = [x; xdot].

    ``w`` is None or a callable t -> N-vector disturbance added to u.
    ``hist`` is a history view of s, read only by conventional-delayed. The
    field is compiled like ``cascade_rhs``: one block product y = P s per
    call. The first block of y is xdot, copied by an identity block; each
    further block is -L xdot or -L x, one per operator term of u. Adjacent
    terms of one gated or saturated operator then take a single ``finish``
    over their joined (m, N) block, and naive-serial's nested
    op_2(op_1(x)) makes the one further product. The terms are summed in
    place into the second block, in the order the law is written: the sum
    (-a) + (-b) rounds exactly as -a - b, so every law keeps its rounding.
    The field returns the first two blocks, [xdot; u].
    """
    n = law.n
    first, second = law.stages
    X, V = slice(0, n), slice(n, 2 * n)
    if law.controller == "conventional":
        terms = [(first, V), (second, X)]
    elif law.controller == "naive-serial":
        terms = [(second, V), (first, V), (first, X)]
    else:
        terms = [(first, X)]

    P = np.zeros(((1 + len(terms)) * n, 2 * n))
    P[X, V] = np.eye(n)
    for k, (op, cols) in enumerate(terms, start=1):
        P[k * n:(k + 1) * n, cols] = -op.L
    P = _block_operator(P)
    finished = _finish_runs([None] + [op for op, _ in terms], n)

    naive = law.controller == "naive-serial"
    # Blocks added to u = y[V], in order.
    added = [slice(2 * n, 3 * n)] if len(terms) > 1 else []
    nested = _block_operator(second.L) if naive else None
    nested_finish = None if not naive or isinstance(second, LinearStatic) else second.finish
    gains = v_ref = reads = None
    if law.controller.startswith("conventional-"):
        gains, v_ref = second.gains, second.ref
    if law.delays is not None:
        reads = HeldReads(law.delays, n + np.arange(n))
    head = slice(0, 2 * n)
    inner = slice(len(terms) * n, (len(terms) + 1) * n)  # -op_1(x) for naive-serial

    def field(s, t, hist):
        y = P @ s
        for finish, sl, m in finished:
            finish(y[sl] if m == 1 else y[sl].reshape(m, n), t)
        u = y[V]
        for sl in added:
            u += y[sl]
        if nested is not None:
            z = nested @ y[inner]
            if nested_finish is not None:
                nested_finish(z, t)
            u += z
        if gains is not None:
            if reads is None:
                vel = s[V]
            elif hist is None:
                raise OperatorError("delayed velocity tracking needs a velocity history")
            else:
                vel = reads(t, hist)
            u -= gains * (vel - v_ref)
        if w is not None:
            u += w(t)
        return y[head]

    return field
