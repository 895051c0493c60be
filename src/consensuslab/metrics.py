"""Consensus residuals and seminorms of a recorded run.

Two seminorms are exposed: the mean-removed sup norm (disagreement) and the
Laplacian seminorm ||L z||_inf. Both vanish on the consensus subspace
span(1): the disagreement seminorm exactly, the Laplacian seminorm only up
to rounding (with non-integer weights the products in L (c 1) need not
cancel exactly; random 6-node digraphs give up to ~1e-14).

The run metrics come from one walk over a record's plant states, one block
at a time as ``Trajectory.plant_blocks`` derives them: formation offsets are
removed per block, so their memory beyond the record is one block of
positions plus at most one value per row (the residuals also join the
velocities of the tail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConsensusLabError
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


def _spread(values) -> float:
    """Max over samples of the largest pairwise gap across agents."""
    return float((values.max(axis=1) - values.min(axis=1)).max())


def _walk(traj: Trajectory, tail_fraction: float = 0.1, L=None, r=None):
    """(order residuals, peak disagreement, regime entry) as the functions
    below define them, from one walk over ``traj.plant_blocks()``: each block
    is derived once, however many metrics read it. No regime entry without L.
    """
    if len(traj) == 0:
        raise ConsensusLabError("empty trajectory has no run metrics")
    if not 0 < tail_fraction <= 1:
        raise ConsensusLabError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    if L is not None and not 0 < r <= 1:
        raise ConsensusLabError(f"band radius must be in (0, 1], got {r}")
    times = traj.times
    t_cut = times[-1] - tail_fraction * (times[-1] - times[0])
    start = int(np.searchsorted(times, t_cut - 1e-12))
    order = int(traj.meta.get("order", 2))
    # Row i of the k-th difference is recorded row lo + i + k; the last one
    # taken (k = order - 2) reaches back to row start.
    lo = max(start - max(order - 2, 0), 0)
    d_ref = traj.meta.get("d_ref")
    d_ref = 0.0 if d_ref is None else np.asarray(d_ref, dtype=float)
    peaks, gaps, velocities, last = [], [], [], None
    for first, x, xdot in traj.plant_blocks():
        x = x - d_ref
        peaks.append(float(row_disagreement(x).max()))
        if L is not None:
            above = np.flatnonzero(row_laplacian_seminorm(L, x) >= r)
            if len(above):
                last = first + int(above[-1])
        if first + len(x) > start:
            gaps.append(_spread(x[max(start - first, 0):]))
        if xdot is not None and first + len(x) > lo:
            velocities.append(xdot[max(lo - first, 0):])

    residuals = [max(gaps)]
    if velocities:
        deriv = np.concatenate(velocities)
        residuals.append(_spread(deriv[start - lo:]))
        h = times[1] - times[0] if len(times) > 1 else 1.0
        for k in range(1, order - 1):
            deriv = (deriv[2:] - deriv[:-2]) / (2.0 * h)
            first = max(start - lo - k, 0)
            if first >= len(deriv):
                break
            residuals.append(_spread(deriv[first:]))
    entry = None
    if L is not None and last != len(traj) - 1:
        entry = float(times[0 if last is None else last + 1])
    return residuals, max(peaks), entry


def nth_order_residuals(traj: Trajectory, tail_fraction: float = 0.1) -> list[float]:
    """Per-derivative-order max pairwise gaps over the trajectory tail.

    Order 0 uses positions with formation offsets removed; order 1 uses the
    recorded velocities; orders >= 2 come from central finite differences of
    the recorded velocities (endpoints excluded). The list length equals the
    number of derivative orders the trajectory supports. The tail is a
    suffix of the record.
    """
    return _walk(traj, tail_fraction)[0]


def peak_disagreement(traj: Trajectory) -> float:
    """Sup over the run of the disagreement seminorm of offset-free positions."""
    return _walk(traj)[1]


def regime_entry_time(traj: Trajectory, L, r: float):
    """Earliest recorded t* with ||L x(t)||_inf < r for every t >= t*.

    None when the trajectory never settles inside the band through t_end.
    """
    return _walk(traj, L=L, r=r)[2]


@dataclass(frozen=True)
class ConsensusReport:
    """Flat summary of one run, serialized into report.txt by the CLI."""

    order_residuals: tuple
    peak_disagreement: float
    tolerance: float
    regime_entry: float | None = None
    divergence_time: float | None = None

    @property
    def converged(self) -> bool:
        """No divergence, and every residual below the tolerance."""
        return self.divergence_time is None and all(
            r < self.tolerance for r in self.order_residuals)


def build_report(traj: Trajectory, tolerance: float = 1e-6,
                 tail_fraction: float = 0.1, regime_band=None,
                 L=None) -> ConsensusReport:
    residuals, peak, regime = _walk(
        traj, tail_fraction, None if regime_band is None else L, regime_band)
    return ConsensusReport(
        order_residuals=tuple(residuals),
        peak_disagreement=peak,
        tolerance=tolerance,
        regime_entry=regime,
        divergence_time=traj.meta.get("divergence_time"),
    )
