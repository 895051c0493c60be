"""Consensus residuals and seminorms of a recorded run.

Two seminorms are exposed: the mean-removed sup norm (disagreement) and the
Laplacian seminorm ||L z||_inf. Both vanish on the consensus subspace
span(1): the disagreement seminorm exactly, the Laplacian seminorm only up
to rounding (with non-integer weights the products in L (c 1) need not
cancel exactly; random 6-node digraphs give up to ~1e-14).

``build_report`` computes every run metric in one walk over a record's
plant states, one block at a time as ``Trajectory.plant_blocks`` derives
them, in simulation coordinates: positions without their formation
offsets, which agree once the formation is reached. Its memory beyond the
record is one block of positions plus at most one value per row (the
residuals also join the velocities of the tail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ConsensusLabError
from .sim import Trajectory


def row_disagreement(x) -> np.ndarray:
    """Disagreement seminorm ||(I - 11^T/N) z||_inf, the largest deviation
    from the mean, of each row z of ``x`` (taken over the last axis).

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


@dataclass(frozen=True)
class ConsensusReport:
    """Flat summary of one run, serialized into report.txt by the CLI."""

    order_residuals: tuple
    peak_disagreement: float
    tolerance: float
    regime_entry: float | None = None
    divergence_time: float | None = None
    final_lap_seminorm: float | None = None

    @property
    def converged(self) -> bool:
        """No divergence, and every residual below the tolerance."""
        return self.divergence_time is None and all(
            r < self.tolerance for r in self.order_residuals)


def _check_settings(tolerance, tail_fraction) -> None:
    """The report settings' one check, for ``build_report`` and scenarios."""
    if not 0 < tolerance < np.inf:
        raise ConfigError(f"tolerance must be positive and finite, got {tolerance}")
    if not 0 < tail_fraction <= 1:
        raise ConfigError(f"tail_fraction must be in (0, 1], got {tail_fraction}")


def build_report(traj: Trajectory, tolerance: float = 1e-6,
                 tail_fraction: float = 0.1, regime_band=None,
                 L=None) -> ConsensusReport:
    """The run metrics of ``traj`` from one walk over ``traj.plant_blocks()``,
    which derives each block once however many metrics read it.

    ``order_residuals`` holds, per derivative order, the max pairwise gap
    over the tail, the suffix of the record from t_end - tail_fraction *
    (t_end - t_0) on: of the positions, the recorded velocities, then
    central finite differences of the velocities (endpoints excluded), as
    many orders as the record supports. ``peak_disagreement`` is the sup of
    the disagreement seminorm over the run. Given ``L``,
    ``final_lap_seminorm`` is ||L x||_inf of the last row (else None); given
    ``regime_band`` r too, ``regime_entry`` is the earliest recorded t* with
    ||L x(t)||_inf < r for all t >= t*, None if the last row is outside.
    """
    if len(traj) == 0:
        raise ConsensusLabError("empty trajectory has no run metrics")
    _check_settings(tolerance, tail_fraction)
    if regime_band is not None and (L is None or not 0 < regime_band <= 1):
        raise ConsensusLabError(f"regime band needs L and a radius in (0, 1], got {regime_band}")
    times = traj.times
    t_cut = times[-1] - tail_fraction * (times[-1] - times[0])
    start = int(np.searchsorted(times, t_cut - 1e-12))
    order = int(traj.meta.get("order", 2))
    # Row i of the k-th difference is recorded row lo + i + k; the last one
    # taken (k = order - 2) reaches back to row start.
    lo = max(start - max(order - 2, 0), 0)
    peaks, gaps, velocities, last = [], [], [], None
    for first, x, xdot in traj.plant_blocks():
        peaks.append(float(row_disagreement(x).max()))
        if regime_band is not None:
            above = np.flatnonzero(row_laplacian_seminorm(L, x) >= regime_band)
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
    if regime_band is not None and last != len(traj) - 1:
        entry = float(times[0 if last is None else last + 1])
    return ConsensusReport(
        order_residuals=tuple(residuals),
        peak_disagreement=max(peaks),
        tolerance=tolerance,
        regime_entry=entry,
        divergence_time=traj.meta.get("divergence_time"),
        # x is the last block.
        final_lap_seminorm=None if L is None else laplacian_seminorm(L, x[-1]),
    )
