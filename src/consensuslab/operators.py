"""First-order consensus operators used as composition stages.

Five kinds are provided. The three *inner-admissible* kinds implement pure
relative feedback (invariant under uniform translation of all agents) and
expose an almost-everywhere time derivative so they can appear at any stage
of a composition. The two delayed kinds break that invariance and are only
admissible as the outermost stage.

Every kind has two entry points. ``evaluate`` is the checked public call:
it rejects NaN/Inf input with NumericError, then runs ``apply``. ``apply``
is the same map without the check, for hot paths whose caller guarantees
finite input (the compiled cascade field and the plant controllers, run
by ``sim.integrate``, which tests the state after every step). The gated
and saturated kinds compute ``apply(z, t) = finish(L z, t)``, where
``finish`` works in place on its argument: the gate product D(t) y or the
clamp to [-1, 1]. Both maps are odd, so ``finish(-L z) = -finish(L z)``
exactly and the cascade field applies them to its negated block product.

History access for the delayed kinds goes through a *history view*: an
object whose ``components(ts, idx)`` returns, for each m, component idx[m]
of the operator's state vector at the past time ts[m]. Simulation code
supplies interpolating views backed by the integrator's committed samples;
``sim.FunctionView`` adapts a plain function s -> state vector. The delayed
kinds read through a ``sim.HeldReads``, which holds arrival-based samples
between arrivals.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import (
    InsufficientHistoryError,
    NumericError,
    OperatorError,
)
from .sim import FunctionView, HeldReads

INNER_KINDS = ("linear_static", "linear_time_varying", "saturated")
DELAYED_KINDS = ("delayed_relative", "delayed_absolute_velocity")


def _check_finite(z):
    # NaN/Inf anywhere poisons the sum; one reduction keeps the hot path cheap.
    if not math.isfinite(z.sum() if isinstance(z, np.ndarray) else math.fsum(z)):
        raise NumericError("operator input contains NaN or Inf")


def _as_laplacian(L):
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise OperatorError(f"Laplacian must be square, got shape {L.shape}")
    if np.abs(L.sum(axis=1)).max() > 1e-12:
        raise OperatorError("Laplacian rows must sum to zero")
    return L


class ConsensusOperator:
    """Base class; subclasses fill in kind, dimension and evaluation."""

    kind: str = ""
    relative_feedback: bool = True

    @property
    def n(self) -> int:
        raise NotImplementedError

    def evaluate(self, z, t, hist=None) -> np.ndarray:
        """op(z, t); raises NumericError on NaN/Inf input."""
        raise NotImplementedError

    def apply(self, z, t, hist=None) -> np.ndarray:
        """op(z, t) without the input check; for callers with finite input."""
        raise NotImplementedError

    def ae_derivative(self, z, zdot, t) -> np.ndarray:
        """Almost-everywhere time derivative of t -> op(z(t), t)."""
        raise OperatorError(
            f"{self.kind} has no a.e. derivative; it is outer-stage only"
        )

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n}>"


class LinearStatic(ConsensusOperator):
    """z -> L z for a fixed graph Laplacian L."""

    kind = "linear_static"

    def __init__(self, L):
        self.L = _as_laplacian(L)

    @property
    def n(self):
        return self.L.shape[0]

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, t, hist)

    def apply(self, z, t, hist=None):
        return self.L @ z

    def ae_derivative(self, z, zdot, t):
        return self.L @ zdot


class LinearTimeVarying(ConsensusOperator):
    """z -> D(t) L z with per-agent gates D_ii(t) = max(sin(w_i t + phi_i), 0).

    Each agent's feedback switches off for half of its own sine period, so
    the instantaneous graph is usually disconnected; connectivity only holds
    integrated over a window.
    """

    kind = "linear_time_varying"

    def __init__(self, L, omega, phi):
        self.L = _as_laplacian(L)
        self.omega = np.asarray(omega, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        if self.omega.shape != (self.n,) or self.phi.shape != (self.n,):
            raise OperatorError("omega and phi must have one entry per agent")
        if np.any(self.omega == 0):
            raise OperatorError("gate frequencies must be nonzero")
        self._gate_memo = (None, None)

    @property
    def n(self):
        return self.L.shape[0]

    def gates(self, t) -> np.ndarray:
        """Gate vector D(t), read-only. The last time point is memoized: an
        RK4 step asks for each of its three time points once per stage."""
        t_memo, g = self._gate_memo
        if t != t_memo:
            g = np.maximum(np.sin(self.omega * t + self.phi), 0.0)
            g.flags.writeable = False
            self._gate_memo = (t, g)
        return g

    def gate_rates(self, t) -> np.ndarray:
        s = np.sin(self.omega * t + self.phi)
        return np.where(s > 0, self.omega * np.cos(self.omega * t + self.phi), 0.0)

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, t, hist)

    def apply(self, z, t, hist=None):
        return self.finish(self.L @ z, t)

    def finish(self, y, t):
        y *= self.gates(t)
        return y

    def ae_derivative(self, z, zdot, t):
        return self.gate_rates(t) * (self.L @ z) + self.gates(t) * (self.L @ zdot)


class Saturated(ConsensusOperator):
    """z -> sat(L z), elementwise clamp to [-1, 1].

    The saturation level is fixed at 1; scale L itself for other levels.
    At the boundary |[Lz]_i| = 1 the a.e. derivative uses indicator 0
    (a measure-zero convention).
    """

    kind = "saturated"

    def __init__(self, L):
        self.L = _as_laplacian(L)

    @property
    def n(self):
        return self.L.shape[0]

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, t, hist)

    def apply(self, z, t, hist=None):
        return self.finish(self.L @ z, t)

    def finish(self, y, t):
        # Two ufuncs with out= cost half of np.clip's Python-level dispatch.
        np.maximum(y, -1.0, out=y)
        np.minimum(y, 1.0, out=y)
        return y

    def ae_derivative(self, z, zdot, t):
        inside = np.abs(self.L @ z) < 1.0
        return (self.L @ zdot) * inside


class DelayedRelative(ConsensusOperator):
    """Relative feedback where each neighbor state is read with a delay.

    Component i is sum_j w_ij * (z_i(t) - z_j(t - tau_ij(t))). The delayed
    read makes the operator *not* translation invariant (a common ramp added
    to all agents no longer cancels), which is why this kind is restricted
    to the outermost stage of a composition.

    ``delays`` is either a single callable tau(t) shared by every edge or a
    dict {(i, j): tau_fn} with 0-indexed edges j -> i.
    """

    kind = "delayed_relative"
    relative_feedback = False

    def __init__(self, weights, delays, tau_max):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise OperatorError("weights must be a square matrix")
        if np.any(w < 0) or np.any(np.diag(w) != 0):
            raise OperatorError("weights must be nonnegative with zero diagonal")
        self.weights = w
        self.tau_max = float(tau_max)
        heads, tails = np.nonzero(w)
        self.edges = [(int(i), int(j)) for i, j in zip(heads, tails)]
        if callable(delays):
            delay_list = [delays] * len(self.edges)
        else:
            missing = [e for e in self.edges if e not in delays]
            if missing:
                raise OperatorError(f"no delay function for edges {missing}")
            delay_list = [delays[e] for e in self.edges]
        self._heads = heads.astype(np.int64)
        self._edge_weights = w[heads, tails]
        self._row_sums = w.sum(axis=1)
        self._reads = HeldReads(delay_list, tails) if self.edges else None

    @property
    def n(self):
        return self.weights.shape[0]

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, t, hist)

    def apply(self, z, t, hist=None):
        if hist is None:
            raise InsufficientHistoryError(
                "delayed_relative needs a history view covering [t - tau_max, t]"
            )
        out = self._row_sums * z
        if self._reads is not None:
            # Unbuffered, in edge order: out[i] -= w_ij * z_j(t - tau_ij(t)).
            np.subtract.at(out, self._heads, self._edge_weights * self._reads(t, hist))
        return out


class DelayedAbsoluteVelocity(ConsensusOperator):
    """Per-agent pull toward a delayed broadcast reference signal.

    Component i is d_i * (z_i(t) - ref(t - tau_i(t))). Delays model
    aperiodic measurement arrivals. Absolute feedback: not translation
    invariant, outer stage only.

    ``ref`` is either a number or a callable reference accessor (e.g. the
    leader's velocity as a function of time). A numeric reference reads the
    same value at every delayed time, so the operator is d * (z - ref): it
    ignores ``delays``, needs no history, and its ``tau_max`` is None. The
    compiled cascade field folds it into its block product. A callable
    reference is read at each agent's delayed time, held between arrivals
    by a ``sim.HeldReads``; ``delays`` (a single callable or one per agent)
    and ``tau_max`` are then required.
    """

    kind = "delayed_absolute_velocity"
    relative_feedback = False

    def __init__(self, gains, ref, delays=None, tau_max=None):
        self.gains = np.asarray(gains, dtype=float)
        if self.gains.ndim != 1 or np.any(self.gains <= 0):
            raise OperatorError("gains must be a vector of positive reals")
        if not callable(ref):
            try:
                self.ref = float(ref)
            except (TypeError, ValueError):
                raise OperatorError("ref must be a number or a callable") from None
            self.tau_max = None
            return
        if delays is None or tau_max is None:
            raise OperatorError("a callable ref needs delays and tau_max")
        self.ref = ref
        self.tau_max = float(tau_max)
        if callable(delays):
            delays = [delays] * self.n
        elif len(delays) != self.n:
            raise OperatorError("need one delay function per agent")
        self._ref_view = FunctionView(lambda s: (ref(s),))
        self._reads = HeldReads(delays, np.zeros(self.n, dtype=np.int64))

    @property
    def n(self):
        return self.gains.shape[0]

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, t, hist)

    def apply(self, z, t, hist=None):
        if self.tau_max is None:
            return self.gains * (z - self.ref)
        return self.gains * (z - self._reads(t, self._ref_view))


def check_relative_invariance(op: ConsensusOperator, samples: int, seed: int) -> float:
    """Max deviation of op under uniform translation over random draws.

    Inner kinds are shifted by a constant a * ones; delayed kinds by the
    time-varying ramp a * t applied through history (constant shifts cancel
    trivially in relative-difference terms and would hide the failure mode).
    Returns max over samples of ||op(shifted) - op(base)||_inf.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = op.n
    worst = 0.0
    for _ in range(samples):
        z = rng.uniform(-5.0, 5.0, size=n)
        t = rng.uniform(0.0, 10.0)
        a = rng.uniform(-10.0, 10.0)
        if op.kind in DELAYED_KINDS:
            base_hist = FunctionView(lambda s, z=z: z)
            ramp_hist = FunctionView(lambda s, z=z, a=a: z + a * s)
            base = op.evaluate(z, t, base_hist)
            shifted = op.evaluate(z + a * t, t, ramp_hist)
        else:
            base = op.evaluate(z, t)
            shifted = op.evaluate(z + a, t)
        worst = max(worst, float(np.abs(shifted - base).max()))
    return worst


def estimate_lipschitz(op: ConsensusOperator, samples: int, seed: int) -> float:
    """Sampled lower bound on the global Lipschitz constant in the inf norm.

    For linear kinds the exact constant is the induced row-sum norm ||L||_inf;
    this estimate approaches it from below.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rng = np.random.default_rng(seed)
    n = op.n
    best = 0.0
    for _ in range(samples):
        z1 = rng.uniform(-5.0, 5.0, size=n)
        z2 = rng.uniform(-5.0, 5.0, size=n)
        t = rng.uniform(0.0, 10.0)
        denom = float(np.abs(z1 - z2).max())
        if denom < 1e-12:
            continue
        if op.kind in DELAYED_KINDS:
            f1 = op.evaluate(z1, t, FunctionView(lambda s, z=z1: z))
            f2 = op.evaluate(z2, t, FunctionView(lambda s, z=z2: z))
        else:
            f1 = op.evaluate(z1, t)
            f2 = op.evaluate(z2, t)
        best = max(best, float(np.abs(f1 - f2).max()) / denom)
    return best
