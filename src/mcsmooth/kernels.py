"""Gaussian kernels, rule-of-thumb bandwidth, and precomputed pairwise tables.

The time kernel operates on kick-adjusted distances: the plain distance
|t_i - t_j| is inflated by alpha_kick times the total intensity of kicks
strictly between the two times. Per-gap decay factors are not tabulated here;
the objective derives them from ``oscillator.effective_gaps``. All tables are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeseries import KickSeries, ObservationSeries

__all__ = ["KernelTables", "bandwidth_rule_of_thumb", "gaussian_kernel", "build_tables"]


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


@dataclass(frozen=True)
class KernelTables:
    """Precomputed pairwise kernels, reference densities, and L2 weights.

    Ky[i, j] = K^y(y^i, y^j) with bandwidth h; Kt[i, j] = K^t over the
    kick-adjusted distance with bandwidth T_l. rho0 holds the row means of Ky.
    W[i, j] = Kt[i, j] / s_j + Kt[i, j] / s_i, with s_i = sum_l Kt[i, l], is
    the symmetric time weighting of the distributional component L2 and of
    its gradient.
    """

    h: float
    T_s: float
    T_l: float
    Ky: np.ndarray
    Kt: np.ndarray
    rho0: np.ndarray
    W: np.ndarray

    @property
    def n(self) -> int:
        return self.rho0.size


def build_tables(obs: ObservationSeries, kicks: KickSeries, T_s: float, T_l: float) -> KernelTables:
    """Precompute all pairwise kernel tables for an observation series."""
    if T_s <= 0 or T_l <= 0:
        raise ValueError("build_tables: time scales must be positive")
    t, y = obs.times, obs.values
    h = bandwidth_rule_of_thumb(y)

    Ky = gaussian_kernel(y[:, None], y[None, :], h)

    dist = np.abs(t[:, None] - t[None, :])
    dist = dist + kicks.alpha_kick * kicks.pairwise_intensity(t)
    Kt = np.exp(-(dist * dist) / (2.0 * T_l * T_l)) / (np.sqrt(2.0 * np.pi) * T_l)

    rs = obs.n * Kt.mean(axis=1)
    return KernelTables(
        h=h,
        T_s=float(T_s),
        T_l=float(T_l),
        Ky=Ky,
        Kt=Kt,
        rho0=Ky.mean(axis=1),
        W=Kt / rs[None, :] + Kt / rs[:, None],
    )
