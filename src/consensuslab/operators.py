"""First-order consensus operators used as composition stages.

Five kinds are provided. The three *inner-admissible* kinds implement pure
relative feedback (invariant under uniform translation of all agents) and
expose an almost-everywhere time derivative so they can appear at any stage
of a composition. The two delayed kinds break that invariance and are only
admissible as the outermost stage.

Each kind computes its map once, in ``evaluate``, the checked public
call: it rejects NaN/Inf input with NumericError, then maps. The block
program that both vector fields compile to (``dynamics``), run by
``sim.integrate``, which tests the state after every step, does not call
it: it takes the inner kinds' ``L`` into one block product, applies the
gated and saturated kinds' ``finish`` to it, and runs the delayed kinds'
``apply``. ``finish`` works in place on its argument, an (N,) block or m
such blocks as (m, N): the gate product D(t) y or the clamp to [-1, 1], so
those kinds evaluate to ``finish(L z, t)``. Both maps are odd, so
``finish(-L z) = -finish(L z)`` exactly and the block program applies
them to its negated block products. The delayed kinds evaluate to the
unchecked ``apply(z, delayed)`` of z and its late reads (or None), which
the block program runs inside the integrator, where a NaN in an RK stage
must end as a divergence. The inner kinds also
take a block of states: ``evaluate(z, t)`` of an (m, N) array z with an
(m,) array t of its rows' times is one product z L^T, one finite check
and, for the gated kind, row r gated by D(t[r]); ``ae_derivative`` takes
(m, N) blocks z and zdot the same way. A 0-d array t is a scalar time.

``DelayedRelative`` reads its neighbours' past states from a ``sim`` history
view, at the columns that its ``reads(offset)`` name, through a
``sim.HeldReads``, which holds arrival-based samples between arrivals and
rejects a read without a view. Its delays are ``sim`` delay objects, whose
bounds give its ``tau_max``.
``DelayedAbsoluteVelocity`` takes a numeric reference, which reads the
same at every delayed time, so it reads no history.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NumericError, OperatorError
from .graphs import WeightedDigraph
from .sim import HeldReads, delay_bound

_LOWER, _UPPER = np.array(-1.0), np.array(1.0)  # ``Saturated.finish``'s bounds

INNER_KINDS = ("linear_static", "linear_time_varying", "saturated")
DELAYED_KINDS = ("delayed_relative", "delayed_absolute_velocity")


def _check_finite(z):
    # NaN/Inf anywhere poisons the sum, one cheap reduction; a non-finite sum
    # may be an overflow of finite entries, so it is confirmed entry by entry.
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(z.sum()) and not np.isfinite(z).all():
            raise NumericError("operator input contains NaN or Inf")


def _laplacian_product(L, z):
    """L z of a state z, or L applied to every row of an (m, N) block z."""
    return z @ L.T if np.ndim(z) == 2 else L @ z


def _as_laplacian(L):
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise OperatorError(f"Laplacian must be square, got shape {L.shape}")
    if not np.isfinite(L).all():
        raise OperatorError("Laplacian entries must be finite")
    # Zero to rounding: the tolerance scales with each row's magnitude.
    row_tol = 1e-12 * np.maximum(1.0, np.abs(L).sum(axis=1))
    if not np.all(np.abs(L.sum(axis=1)) <= row_tol):
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
        """op(z, t); raises NumericError on NaN/Inf input. An inner kind
        also takes an (m, N) block z with an (m,) array t of row times."""
        raise NotImplementedError

    def ae_derivative(self, z, zdot, t) -> np.ndarray:
        """Almost-everywhere time derivative of t -> op(z(t), t)."""
        raise OperatorError(
            f"{self.kind} has no a.e. derivative; it is outer-stage only"
        )

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n}>"


class _LaplacianOperator(ConsensusOperator):
    """Base of the inner kinds: relative feedback through a Laplacian L."""

    def __init__(self, L):
        self.L = _as_laplacian(L)

    @property
    def n(self):
        return self.L.shape[0]


class LinearStatic(_LaplacianOperator):
    """z -> L z for a fixed graph Laplacian L."""

    kind = "linear_static"

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return _laplacian_product(self.L, z)

    def ae_derivative(self, z, zdot, t):
        return _laplacian_product(self.L, zdot)


class LinearTimeVarying(_LaplacianOperator):
    """z -> D(t) L z with per-agent gates D_ii(t) = max(sin(w_i t + phi_i), 0).

    Each agent's feedback switches off for half of its own sine period, so
    the instantaneous graph is usually disconnected; connectivity only holds
    integrated over a window.
    """

    kind = "linear_time_varying"

    def __init__(self, L, omega, phi):
        super().__init__(L)
        self.omega = np.asarray(omega, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        if self.omega.shape != (self.n,) or self.phi.shape != (self.n,):
            raise OperatorError("omega and phi must have one entry per agent")
        if np.any(self.omega == 0) or not np.isfinite([self.omega, self.phi]).all():
            raise OperatorError("gate frequencies must be nonzero, omega and phi finite")
        self._gate_memo = (None, None)

    def gates(self, t) -> np.ndarray:
        """Gate vector D(t), read-only, for a scalar time t (a 0-d array
        too). The last time point is memoized: an RK4 step asks for each of
        its three time points once per stage. An (m,) array of times gives
        the (m, N) block whose row r is D(t[r]) bit for bit, outside the
        memo; the compiled block program's ``prefetch`` reads its gate
        tables from this form, so D(t) is computed here alone."""
        if isinstance(t, np.ndarray):
            if t.ndim:
                return np.maximum(np.sin(self.omega * t[:, None] + self.phi), 0.0)
            t = float(t)
        t_memo, g = self._gate_memo
        if t != t_memo:
            g = np.maximum(np.sin(self.omega * t + self.phi), 0.0)
            g.flags.writeable = False
            self._gate_memo = (t, g)
        return g

    def gate_rates(self, t) -> np.ndarray:
        """D'(t) where the gates are open, 0 where closed; an (m,) array of
        times gives the (m, N) block of its rows, as ``gates`` does."""
        if isinstance(t, np.ndarray) and t.ndim:
            t = t[:, None]
        arg = self.omega * t + self.phi
        return np.where(np.sin(arg) > 0, self.omega * np.cos(arg), 0.0)

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.finish(_laplacian_product(self.L, z), t)

    def finish(self, y, t):
        y *= self.gates(t)
        return y

    def ae_derivative(self, z, zdot, t):
        return (self.gate_rates(t) * _laplacian_product(self.L, z)
                + self.gates(t) * _laplacian_product(self.L, zdot))


class Saturated(_LaplacianOperator):
    """z -> sat(L z), elementwise clamp to [-1, 1].

    The saturation level is fixed at 1; scale L itself for other levels.
    At the boundary |[Lz]_i| = 1 the a.e. derivative uses indicator 0
    (a measure-zero convention).
    """

    kind = "saturated"

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.finish(_laplacian_product(self.L, z), t)

    def finish(self, y, t):
        # Two ufuncs with out= cost half of np.clip's Python-level dispatch,
        # and 0-d bounds 0.7x the call cost of Python floats, to the same result.
        np.maximum(y, _LOWER, out=y)
        np.minimum(y, _UPPER, out=y)
        return y

    def ae_derivative(self, z, zdot, t):
        inside = np.abs(_laplacian_product(self.L, z)) < 1.0
        return _laplacian_product(self.L, zdot) * inside


class DelayedRelative(ConsensusOperator):
    """Relative feedback where each neighbor state is read with a delay.

    Component i is sum_j w_ij * (z_i(t) - z_j(t - tau_ij(t))). The delayed
    read makes the operator *not* translation invariant (a common ramp added
    to all agents no longer cancels), which is why this kind is restricted
    to the outermost stage of a composition.

    ``delays`` is one ``sim`` delay shared by every edge or a dict
    {(i, j): delay} keyed by exactly the 0-indexed edges j -> i; the largest
    of their bounds is ``tau_max``. Without edges it reads no history.
    """

    kind = "delayed_relative"
    relative_feedback = False

    def __init__(self, weights, delays):
        self.weights = w = np.asarray(weights, dtype=float)
        WeightedDigraph(w)  # The adjacency rules of a digraph's weights.
        heads, tails = np.nonzero(w)
        self.edges = [(int(i), int(j)) for i, j in zip(heads, tails)]
        if not callable(delays):
            missing = [e for e in self.edges if e not in delays]
            if missing:
                raise OperatorError(f"no delay for edges {missing}")
            extra = [e for e in delays if e not in self.edges]
            if extra:
                raise OperatorError(f"delays given for non-edges {extra}")
            delays = [delays[e] for e in self.edges]
        self.tau_max = delay_bound(delays)
        self._delays, self._tails = delays, tails
        self._heads = heads.astype(np.int64)
        self._edge_weights = w[heads, tails]
        self._row_sums = w.sum(axis=1)
        self._reads = self.reads(0)

    @property
    def n(self):
        return self.weights.shape[0]

    def reads(self, offset):
        """HeldReads of each edge's z_j at viewed column offset + j, or None."""
        return HeldReads(self._delays, offset + self._tails) if self.edges else None

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, self._reads and self._reads(t, hist))

    def apply(self, z, delayed):
        """The unchecked map of z and the delayed z_j that ``reads`` returned."""
        out = self._row_sums * z
        if delayed is not None:
            # Unbuffered, in edge order: out[i] -= w_ij * z_j(t - tau_ij(t)).
            np.subtract.at(out, self._heads, self._edge_weights * delayed)
        return out


class DelayedAbsoluteVelocity(ConsensusOperator):
    """Per-agent pull toward a delayed broadcast reference velocity.

    Component i is d_i * (z_i(t) - v(t - tau_i(t))). Absolute feedback: not
    translation invariant, outer stage only. The reference v is a number,
    so every delayed read returns v and the operator is d * (z - v): it
    needs no delays and no history, and the compiled cascade field folds it
    into its block product. The stage's delay spec acts only where an
    agent's own velocity is read late: in the conventional-delayed baseline
    (``dynamics.PlantLaw``).
    """

    kind = "delayed_absolute_velocity"
    relative_feedback = False

    def __init__(self, gains, ref):
        self.gains = np.asarray(gains, dtype=float)
        if self.gains.ndim != 1 or not np.all((self.gains > 0) & (self.gains < np.inf)):
            raise OperatorError("gains must be a vector of positive finite reals")
        try:
            # A 0-d array, which a ufunc takes at 0.7x a float's call cost.
            self.ref = np.array(float(ref))
        except (TypeError, ValueError):
            raise OperatorError("ref must be a number") from None
        if not math.isfinite(self.ref):
            raise OperatorError("ref must be finite")

    @property
    def n(self):
        return self.gains.shape[0]

    def evaluate(self, z, t, hist=None):
        _check_finite(z)
        return self.apply(z, None)

    def apply(self, z, delayed):
        """The unchecked map of z, or of its late reads ``delayed`` in its place."""
        return self.gains * ((z if delayed is None else delayed) - self.ref)
