"""Gaussian kernels, rule-of-thumb bandwidth, and the L2 weight table.

The time kernel operates on kick-adjusted distances: the plain distance
|t_i - t_j| is inflated by alpha times the total intensity of the kicks at
min(t_i, t_j) <= k < max(t_i, t_j), the gaps' half-open rule
(``KickSeries.intensity_before``). Per-gap decay factors are not tabulated here;
the objective derives them from the tables' gaps (``oscillator.effective_gaps``).

Every n x n quantity is formed in row tiles of about ``TILE_ELEMENTS``
elements, so the pairwise work stays in cache and the only n x n array the
estimator keeps is the weight table ``KernelTables.W``. ``column_sum`` adds
tiles up in the order ``ndarray.sum(axis=0)`` adds the whole array's rows,
so tiled column sums are bit-identical to whole-array ones. All tables are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oscillator import EffectiveGaps
from .timeseries import KickSeries, ObservationSeries

__all__ = [
    "KernelTables",
    "bandwidth_rule_of_thumb",
    "gaussian_kernel",
    "time_kernel",
    "build_tables",
]

# Elements per row tile of an n x n quantity (256 KiB of float64).
TILE_ELEMENTS = 2**15


def row_tiles(n: int, width: int | None = None):
    """Row slices of an n x width array (default n x n), each about TILE_ELEMENTS elements."""
    rows = max(1, TILE_ELEMENTS // (n if width is None else width))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


def column_sum(tiles):
    """Column sums of the row tiles stacked in order; the tiles are modified.

    The running sum is added into each tile's first row before the tile is
    summed, so every column is added up row by row from the top exactly as
    ``sum(axis=0)`` of the stacked array adds it.
    """
    acc = None
    for tile in tiles:
        if acc is not None:
            tile[0] += acc
        acc = tile.sum(axis=0)
    return acc


def bandwidth_rule_of_thumb(values) -> float:
    """Rule-of-thumb bandwidth h = sigma / n^(1/5), population sigma."""
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise ValueError("bandwidth_rule_of_thumb: need at least 2 values")
    sigma = float(y.std())
    if sigma == 0.0:
        raise ValueError("bandwidth_rule_of_thumb: zero variance, kernel degenerates")
    return sigma / y.size ** 0.2


def gaussian_kernel(u, v, h):
    """Gaussian kernel (1 / (sqrt(2 pi) h)) exp(-(v-u)^2 / (2 h^2)).

    Broadcasts over array arguments and preserves floating dtypes. At most
    two arrays of the broadcast shape are alive at once.
    """
    if h <= 0:
        raise ValueError("gaussian_kernel: bandwidth must be positive")
    d = np.asarray(v) - np.asarray(u)
    d = -(d * d) / (2.0 * h * h)
    return np.exp(d) / (np.sqrt(2.0 * np.pi) * h)


def time_kernel(t, kicks: KickSeries, alpha: float, T_l: float) -> np.ndarray:
    """The n x n Gaussian kernel over kick-adjusted time distances, bandwidth T_l.

    ``alpha`` is the added time per unit kick intensity (``KickSeries.alpha_kick``).
    Filled one row tile at a time, so the distances never exist as a whole
    n x n array.
    """
    t = np.asarray(t, dtype=float)
    before = kicks.intensity_before(t)
    out = np.empty((t.size, t.size))
    for r in row_tiles(t.size):
        dist = np.abs(t[r, None] - t[None, :])
        if alpha:
            dist += alpha * np.abs(before[r, None] - before[None, :])
        out[r] = np.exp(-(dist * dist) / (2.0 * T_l * T_l)) / (np.sqrt(2.0 * np.pi) * T_l)
    return out


@dataclass(frozen=True)
class KernelTables:
    """Everything the objective reads that no stage moves.

    y is the data, gaps its kick-adjusted gaps (``oscillator.effective_gaps``)
    and epsilon the L1 mollification weight. h is the data bandwidth and
    rho0[i] the mean over j of K^y(y^i, y^j).
    With Kt the kick-adjusted time kernel (``time_kernel``, bandwidth T_l)
    and s_i = sum_l Kt[i, l], W[i, j] = Kt[i, j] / s_j + Kt[i, j] / s_i is
    the symmetric time weighting of the distributional component L2 and of
    its gradient. wky = sum_ij W[i, j] K^y(y^i, y^j) is the part of L2 that
    does not depend on x, summed in the tile order ``eval_L2`` uses, so that
    L2 vanishes exactly at x = y. W is the only n x n table.
    """

    y: np.ndarray
    gaps: EffectiveGaps
    h: float
    T_s: float
    T_l: float
    epsilon: float
    rho0: np.ndarray
    W: np.ndarray
    wky: float


def build_tables(
    obs: ObservationSeries, Kt: np.ndarray, gaps: EffectiveGaps, T_s: float, T_l: float, epsilon: float
) -> KernelTables:
    """Precompute the kernel tables for an observation series and its gaps.

    Its time kernel Kt (``time_kernel``, bandwidth T_l) becomes W in place: do not reuse Kt.
    """
    if T_s <= 0 or T_l <= 0:
        raise ValueError("build_tables: time scales must be positive")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("build_tables: epsilon must lie in [0, 1)")
    y, n = obs.values, obs.n
    if Kt.shape != (n, n):
        raise ValueError(f"build_tables: time kernel has shape {Kt.shape}, expected ({n}, {n})")
    if gaps.dt_relax.shape != (n,):
        raise ValueError(f"build_tables: gaps have shape {gaps.dt_relax.shape}, expected ({n},)")
    h = bandwidth_rule_of_thumb(y)

    W = Kt
    rs = n * W.mean(axis=1)
    rho0 = np.empty(n)

    def weighted_ky_tiles():
        for r in row_tiles(n):
            Wr = W[r]
            by_col = Wr / rs[None, :]
            Wr /= rs[r, None]
            Wr += by_col
            Ky = gaussian_kernel(y[r, None], y[None, :], h)
            rho0[r] = Ky.mean(axis=1)
            Ky *= Wr
            yield Ky

    wky = float(column_sum(weighted_ky_tiles()).sum())
    return KernelTables(y=y, gaps=gaps, h=h, T_s=float(T_s), T_l=float(T_l), epsilon=float(epsilon),
                        rho0=rho0, W=W, wky=wky)
