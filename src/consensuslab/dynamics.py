"""Cascade assembly and the explicit second-order controllers.

A cascade of n first-order consensus operators defines the closed loop

    xi_k' = -op_k(xi_k, t) + xi_{k+1},   k < n
    xi_n' = -op_n(xi_n, t) + u_ref(t)

with xi_1 = x the plant positions and xi_{k+1} = xi_k' + op_k(xi_k, t).
The cascade form is the primary simulation route; the controller-on-plant
form exists for n = 2 as a cross-check and for the baseline comparisons.

The compiled cascade field and the controllers call the operators'
unchecked ``apply``; they run inside ``sim.integrate``, which rejects a
non-finite or blown-up state after every step. Plant reconstruction and
matched initialization go through the checked ``evaluate``.
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
                raise ShapeError("all cascade stages must share the agent count")
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
        """Largest delay bound among stages that read a history; None when
        no stage does."""
        taus = [op.tau_max for op in self.stages
                if getattr(op, "tau_max", None) is not None]
        return max(taus) if taus else None


# Block products at or above this state size go through CSR when at most
# _CSR_MAX_DENSITY of A is nonzero. Measured per product with one BLAS
# thread (2-vCPU Xeon): a path-graph cascade costs dense 9 us / CSR 7 us at
# dim 200, dense 1.9 us / CSR 6.3 us at dim 20 and dense 250 us / CSR 9 us
# at dim 800; at dim 400 CSR still wins at 5% fill and loses at 20%.
_CSR_MIN_DIM = 200
_CSR_MAX_DENSITY = 0.05


def _block_operator(A):
    """A itself, or A as a CSR array when it is large and sparse."""
    dim = A.shape[0]
    if dim >= _CSR_MIN_DIM and np.count_nonzero(A) <= _CSR_MAX_DENSITY * dim * dim:
        from scipy.sparse import csr_array

        return csr_array(A)
    return A


def cascade_rhs(cascade: Cascade, u_ref=None):
    """Vector field ``field(xi, t, hist)`` of the stacked cascade state.

    ``u_ref`` is None or a callable t -> N-vector feeding the outer stage.
    ``hist`` is a history view of the stacked state, read only by a delayed
    outer stage. The field is compiled into one block product per call: A
    holds -L_k on the diagonal block of every inner stage and the identity
    shift xi_{k+1} of every linear-static stage. Gated and saturated stages
    then apply their odd ``finish`` map in place to their block of A xi and
    add their shift; a delayed outer stage runs its unchecked ``apply``. A
    ``DelayedAbsoluteVelocity`` outer stage with a numeric reference v is
    affine, -op(z) = -diag(gains) z + gains v: it is folded into A plus a
    constant shift and reads no history. No operator input is checked here:
    ``sim.integrate`` tests the state after every step.
    """
    stages = cascade.stages
    order = cascade.order
    n = cascade.n
    dim = order * n
    slices = [slice(k * n, (k + 1) * n) for k in range(order)]
    tail = slices[-1]

    A = np.zeros((dim, dim))
    finished = []
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
        else:
            finished.append((op.finish, sl))
            if nxt is not None:
                shifted.append((sl, nxt))
    delayed = None if stages[-1].relative_feedback else stages[-1]
    ref_shift = None
    if isinstance(delayed, DelayedAbsoluteVelocity) and delayed.tau_max is None:
        A[tail, tail] = -np.diag(delayed.gains)
        ref_shift = delayed.gains * delayed.ref
        delayed = None
    A = _block_operator(A)

    def field(xi, t, hist):
        if len(xi) != dim:
            raise ShapeError(f"state length {len(xi)} != order*N = {dim}")
        out = A @ xi
        for finish, sl in finished:
            finish(out[sl], t)
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


def matched_cascade_state(cascade: Cascade, x0, xdot0, t0=0.0) -> np.ndarray:
    """Cascade initial state matching plant initial conditions (order 2 only):
    xi_1(0) = x(0), xi_2(0) = xdot(0) + op_1(x(0), t0)."""
    if cascade.order != 2:
        raise OperatorError("matched initialization is defined for order 2 only")
    x0 = np.asarray(x0, dtype=float)
    xdot0 = np.asarray(xdot0, dtype=float)
    return np.concatenate((x0, xdot0 + cascade.stages[0].evaluate(x0, t0)))


def reconstruct_plant(cascade: Cascade, xi, t):
    """Plant states from cascade states: x = xi_1, xdot = xi_2 - op_1(xi_1, t).

    For order 1 there is no velocity; returns (x, None). Derivatives beyond
    xdot are left to finite differences on the recorded grid (metrics).
    """
    n_agents = cascade.n
    x = np.asarray(xi[:n_agents], dtype=float)
    if cascade.order == 1:
        return x, None
    xdot = xi[n_agents:2 * n_agents] - cascade.stages[0].evaluate(x, t)
    return x, xdot


def _require_inner(op: ConsensusOperator, role: str):
    if not op.relative_feedback:
        raise OperatorError(
            f"{role} must be an inner-admissible (relative, undelayed) operator, "
            f"got {op.kind}"
        )


def compositional_controller(l1, l2, x, xdot, t, hist=None) -> np.ndarray:
    """u = -op_2(xdot + op_1(x, t), t) - d/dt op_1(x, t).

    The derivative term uses the almost-everywhere rule of the inner stage.
    ``hist`` is a history view of the composite signal xdot + op_1(x), needed
    only when the outer stage is delayed.
    """
    _require_inner(l1, "inner stage")
    z2 = xdot + l1.apply(x, t)
    return -l2.apply(z2, t, hist) - l1.ae_derivative(x, xdot, t)


def conventional_controller(lvel, lpos, x, xdot, t) -> np.ndarray:
    """u = -op_vel(xdot, t) - op_pos(x, t)."""
    _require_inner(lvel, "velocity operator")
    _require_inner(lpos, "position operator")
    return -lvel.apply(xdot, t) - lpos.apply(x, t)


def naive_serial_controller(l1, l2, x, xdot, t) -> np.ndarray:
    """u = -(op_2 + op_1)(xdot, t) - op_2(op_1(x, t), t).

    The serial expansion that simply drops the time-variation cross terms of
    the true composition; correct only for static linear stages.
    """
    _require_inner(l1, "first operator")
    _require_inner(l2, "second operator")
    vel2 = l2.apply(xdot, t)
    vel1 = vel2 if l1 is l2 else l1.apply(xdot, t)
    return -(vel2 + vel1) - l2.apply(l1.apply(x, t), t)


def gps_velocity_controller(gains, lpos, v_ref, delays=None):
    """Velocity tracking toward a broadcast reference plus relative position
    feedback: the baseline for the delayed-absolute-velocity comparisons.

        ideal:   u = -gains * (xdot(t) - v_ref) - op_pos(x, t)
        delayed: u_i = -gains_i * (xdot_i(t - tau_i(t)) - v_ref) - [op_pos(x, t)]_i

    The delayed form consumes the raw held measurement of each agent's own
    velocity error (zero-order hold of the last sample), which is what an
    implementation without local velocity-history correction would do.
    Returns a callable u(x, xdot, t, xdot_hist).
    """
    gains = np.asarray(gains, dtype=float)
    _require_inner(lpos, "position operator")

    if delays is None:
        def control(x, xdot, t, xdot_hist=None):
            return -gains * (xdot - v_ref) - lpos.apply(x, t)
        return control

    delay_list = list(delays) if not callable(delays) else [delays] * len(gains)
    lagged_velocity = HeldReads(delay_list, np.arange(len(gains)))

    def control(x, xdot, t, xdot_hist=None):
        if xdot_hist is None:
            raise OperatorError("delayed velocity tracking needs a velocity history")
        lagged = lagged_velocity(t, xdot_hist)
        return -gains * (lagged - v_ref) - lpos.apply(x, t)

    return control
