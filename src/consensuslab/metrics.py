"""Consensus residuals, seminorms, and stability-bound verification.

Two seminorms are exposed: the mean-removed sup norm (disagreement) and the
Laplacian seminorm ||L z||_inf. Both vanish on the consensus subspace
span(1): the disagreement seminorm exactly, the Laplacian seminorm only up
to rounding (with non-integer weights the products in L (c 1) need not
cancel exactly; random 6-node digraphs give up to ~1e-14). The ISS check
verifies the exponential-form bound

    ||L z(t)|| <= M e^{-alpha (t - T0)} ||L+|| ||L z(T0)|| + (M / alpha) sup||w||

with constants fitted from the impulse response ||L e^{-L t}||; only this
exponential specialization is verified, not the general class-KL statement.

The run metrics read a record's plant states one block at a time, as
``Trajectory.plant_blocks`` derives them: formation offsets are removed per
block, so their memory beyond the record is one block of positions plus at
most one value per row (the residuals also join the velocities of the
tail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConsensusLabError
from .graphs import (
    ReachabilityReport,
    WeightedDigraph,
    delta_graph,
    laplacian_pseudoinverse,
    spanning_tree_check,
)
from .sim import Trajectory


def row_disagreement(x) -> np.ndarray:
    """Disagreement seminorm of each row of ``x`` (taken over the last axis).

    Each row is shifted by its first entry before it is centred, so a flat
    row is exactly zero before its mean is formed and yields exactly 0.0;
    centring on the float mean directly leaves a rounding residue of an ulp
    on flat rows whose mean is not exactly representable (seven copies of
    3.2, say). The shift is exact for equal entries and only reduces
    cancellation elsewhere.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] == (0,):
        raise ConsensusLabError("disagreement of a vector with no agents is undefined")
    d = x - x[..., :1]
    d -= d.mean(axis=-1, keepdims=True)
    np.abs(d, out=d)
    return d.max(axis=-1)


def disagreement_seminorm(z) -> float:
    """||(I - 11^T/N) z||_inf: largest deviation from the mean.

    Exactly 0.0 when every entry of ``z`` is equal (see ``row_disagreement``).
    """
    return float(row_disagreement(np.ravel(z)))


def row_laplacian_seminorm(L, x) -> np.ndarray:
    """Laplacian seminorm ||L z||_inf of each row z of ``x`` (taken over the
    last axis)."""
    x = np.asarray(x, dtype=float)
    return np.abs(x @ np.asarray(L, dtype=float).T).max(axis=-1)


def laplacian_seminorm(L, z) -> float:
    """||L z||_inf."""
    return float(row_laplacian_seminorm(L, z))


def _offset_blocks(traj: Trajectory, start: int = 0):
    """(first row, offset-free positions) of each block of
    ``traj.plant_blocks(start)``; no offset copy of the whole record is
    made."""
    d_ref = traj.meta.get("d_ref")
    d_ref = 0.0 if d_ref is None else np.asarray(d_ref, dtype=float)
    for first, x, _ in traj.plant_blocks(start):
        yield first, x - d_ref


def _spread(values) -> float:
    """Max over samples of the largest pairwise gap across agents."""
    return float((values.max(axis=1) - values.min(axis=1)).max())


def nth_order_residuals(traj: Trajectory, tail_fraction: float = 0.1) -> list[float]:
    """Per-derivative-order max pairwise gaps over the trajectory tail.

    Order 0 uses positions with formation offsets removed; order 1 uses the
    recorded velocities; orders >= 2 come from central finite differences of
    the recorded velocities (endpoints excluded). The list length equals the
    number of derivative orders the trajectory supports. The tail is a
    suffix of the record, and only its rows (and the few before it that the
    differences reach) are read.
    """
    if len(traj) == 0:
        raise ConsensusLabError("empty trajectory has no residuals")
    if not 0 < tail_fraction <= 1:
        raise ConsensusLabError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    times = traj.times
    t_cut = times[-1] - tail_fraction * (times[-1] - times[0])
    start = int(np.searchsorted(times, t_cut - 1e-12))

    residuals = [max(_spread(x) for _, x in _offset_blocks(traj, start))]
    order = int(traj.meta.get("order", 2))
    # Row i of the k-th difference is recorded row lo + i + k; the last one
    # taken (k = order - 2) reaches back to row start.
    lo = max(start - max(order - 2, 0), 0)
    velocities = [xdot for _, _, xdot in traj.plant_blocks(lo)]
    if velocities[0] is None:
        return residuals
    deriv = np.concatenate(velocities)
    residuals.append(_spread(deriv[start - lo:]))

    h = times[1] - times[0] if len(times) > 1 else 1.0
    for k in range(1, order - 1):
        deriv = (deriv[2:] - deriv[:-2]) / (2.0 * h)
        first = max(start - lo - k, 0)
        if first >= len(deriv):
            break
        residuals.append(_spread(deriv[first:]))
    return residuals


def peak_disagreement(traj: Trajectory) -> float:
    """Sup over the run of the disagreement seminorm of offset-free positions."""
    return max(float(row_disagreement(x).max()) for _, x in _offset_blocks(traj))


def fit_iss_constants(L, horizon: float = 20.0, num: int = 400,
                      alpha_safety: float = 0.9, m_safety: float = 1.01):
    """Fit (M, alpha) such that ||L e^{-L t}||_inf <= M e^{-alpha t}.

    The decay rate comes from a log-slope fit on the tail of the impulse
    response, shrunk by ``alpha_safety``; M then majorizes the whole curve
    with a small multiplicative margin.
    """
    # Imported here: scipy.linalg is most of the package's import time, and
    # no CLI path fits ISS constants.
    import scipy.linalg

    L = np.asarray(L, dtype=float)
    ts = np.linspace(0.0, horizon, num)
    g = np.array(
        [np.abs(L @ scipy.linalg.expm(-L * t)).sum(axis=1).max() for t in ts]
    )
    valid = g > 1e-13
    if valid.sum() < 10:
        raise ConsensusLabError("impulse response decayed too fast to fit")
    tv, gv = ts[valid], g[valid]
    lo = len(tv) // 2
    slope = np.polyfit(tv[lo:], np.log(gv[lo:]), 1)[0]
    alpha = alpha_safety * max(-slope, 1e-6)
    M = m_safety * float((g * np.exp(alpha * ts)).max())
    return M, alpha


def check_iss_bound(traj: Trajectory, L, M: float, alpha: float,
                    w_sup: float, T0: float = 0.0):
    """Verify the exponential ISS bound at every recorded sample t >= T0.

    Returns (passed, margin) where margin is the worst value of
    bound(t) - ||L z(t)||; pass allows a 1e-9 float tolerance.
    """
    if not (M > 0 and alpha > 0 and w_sup >= 0):
        raise ValueError("need M > 0, alpha > 0, w_sup >= 0")
    i0 = int(np.searchsorted(traj.times, T0 - 1e-12))
    if i0 >= len(traj):
        raise ConsensusLabError("T0 is beyond the trajectory horizon")
    e = np.concatenate([row_laplacian_seminorm(L, x) for _, x in _offset_blocks(traj, i0)])
    t0 = traj.times[i0]
    pinv_norm = np.abs(laplacian_pseudoinverse(L)).sum(axis=1).max()
    bound = (
        M * np.exp(-alpha * (traj.times[i0:] - t0)) * pinv_norm * e[0]
        + (M / alpha) * w_sup
    )
    margin = float((bound - e).min())
    return margin >= -1e-9, margin


def regime_entry_time(traj: Trajectory, L, r: float):
    """Earliest recorded t* with ||L x(t)||_inf < r for every t >= t*.

    None when the trajectory never settles inside the band through t_end.
    """
    if not 0 < r <= 1:
        raise ConsensusLabError(f"band radius must be in (0, 1], got {r}")
    last = None
    for first, x in _offset_blocks(traj):
        above = np.flatnonzero(row_laplacian_seminorm(L, x) >= r)
        if len(above):
            last = first + int(above[-1])
    if last is None:
        return float(traj.times[0])
    if last == len(traj) - 1:
        return None
    return float(traj.times[last + 1])


def integrated_connectivity(gates, L_base, window: float, t_starts,
                            dt: float = 0.01) -> list[ReachabilityReport]:
    """Spanning-tree reports for the window-integrated gated Laplacian.

    For each window start, A = integral of diag(gates(t)) L_base over
    [t0, t0 + window] (trapezoid with step dt); the delta-digraph of the
    integrated adjacency uses delta = 1e-3 * window. Intersect the roots
    across reports (``common_root_over_windows``) for the fixed-root
    condition of the time-varying stability result.
    """
    if not window > 0:
        raise ConsensusLabError("window must be positive")
    L_base = np.asarray(L_base, dtype=float)
    nseg = max(int(round(window / dt)), 1)
    taus = np.linspace(0.0, window, nseg + 1)
    weights = np.full(nseg + 1, window / nseg)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    delta = 1e-3 * window
    reports = []
    for t0 in t_starts:
        A = np.zeros_like(L_base)
        for tau, wq in zip(taus, weights):
            A += wq * (gates(t0 + tau)[:, None] * L_base)
        adj = -A
        np.fill_diagonal(adj, 0.0)
        adj[adj < 0] = 0.0
        g = delta_graph(WeightedDigraph(adj), delta)
        reports.append(spanning_tree_check(g))
    return reports


def common_root_over_windows(reports) -> int | None:
    """A node that roots every window's spanning tree, or None."""
    if not reports:
        return None
    common = set(reports[0].roots)
    for rep in reports[1:]:
        common &= set(rep.roots)
    return min(common) if common else None


@dataclass(frozen=True)
class ConsensusReport:
    """Flat summary of one run, serialized into report.txt by the CLI."""

    order_residuals: tuple
    peak_disagreement: float
    converged: bool
    tolerance: float
    tail_fraction: float
    regime_entry: float | None = None
    divergence_time: float | None = None

    def __post_init__(self):
        if self.converged and any(
            r >= self.tolerance for r in self.order_residuals
        ):
            raise ConsensusLabError("converged report with residuals over tolerance")


def build_report(traj: Trajectory, tolerance: float = 1e-6,
                 tail_fraction: float = 0.1, regime_band=None,
                 L=None) -> ConsensusReport:
    residuals = tuple(nth_order_residuals(traj, tail_fraction))
    diverged = traj.meta.get("divergence_time")
    converged = diverged is None and all(r < tolerance for r in residuals)
    regime = None
    if regime_band is not None and L is not None:
        regime = regime_entry_time(traj, L, regime_band)
    return ConsensusReport(
        order_residuals=residuals,
        peak_disagreement=peak_disagreement(traj),
        converged=converged,
        tolerance=tolerance,
        tail_fraction=tail_fraction,
        regime_entry=regime,
        divergence_time=diverged,
    )
