"""Gaussian kernels, rule-of-thumb bandwidth, and the kernel tables.

The time kernel operates on kick-adjusted distances: the plain distance
|t_i - t_j| is inflated by alpha times the total intensity of the kicks at
min(t_i, t_j) <= k < max(t_i, t_j), the gaps' half-open rule
(``KickSeries.intensity_before``). Per-gap decay factors are not tabulated here;
the objective derives them from the tables' gaps, one per transition k -> k + 1
(``oscillator.effective_gaps``).

No n x n array exists. Every pairwise quantity is generated in square blocks
I x J with I <= J (``square_blocks``) of about ``TILE_ELEMENTS`` elements, and
an off-diagonal block stands for both orders of its pairs, since the time
kernel is symmetric. The tables keep only O(n) data: the times, the kick
intensity before each, the kick scale alpha and ``inv_s``, the inverse row
sums of the unnormalised time kernel E_ij = exp(-d_ij^2 / (2 T_l^2)). The L2
weight W_ij = E_ij (inv_s_i + inv_s_j) is never stored: its log time weight
is added to the exponent of each value kernel (``folded``), so one exp gives
W_ij K_h(u_i, v_j) = c_h (inv_s_i + inv_s_j) exp(log E_ij - (u_i - v_j)^2 / (2 h^2)).
All tables are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import EffectiveGaps, effective_gaps
from .timeseries import KickSeries, ObservationSeries

__all__ = [
    "KernelTables",
    "bandwidth_rule_of_thumb",
    "gaussian_kernel",
    "time_products",
    "build_tables",
]

# Elements per tile or block of an n x n quantity (256 KiB of float64). Under
# glibc's default malloc, an array this large comes from fresh memory pages
# once two or more of them were freed together, which can cost more than the
# arithmetic on it; so ``time_products`` and ``build_tables`` work in place.
TILE_ELEMENTS = 2**15

# Side of a square block of about TILE_ELEMENTS elements.
BLOCK = math.isqrt(TILE_ELEMENTS)


def row_tiles(n: int, width: int | None = None):
    """Row slices of an n x width array (default n x n), each about TILE_ELEMENTS elements."""
    rows = max(1, TILE_ELEMENTS // (n if width is None else width))
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


def square_blocks(n: int):
    """Slice pairs (I, J) of the blocks on and above the diagonal of an n x n array."""
    edges = [slice(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]
    for k, I in enumerate(edges):
        for J in edges[k:]:
            yield I, J


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
    # d*d / -c rounds as -(d*d) / c does, one array pass fewer; the square takes
    # the quotient's dtype, so the division can run in place.
    c = -(2.0 * h * h)
    d = np.multiply(d, d, dtype=np.result_type(d, c))
    d /= c
    return np.exp(d) / (np.sqrt(2.0 * np.pi) * h)


def kernel_peak(h: float) -> float:
    """The Gaussian kernel's normalisation 1 / (sqrt(2 pi) h)."""
    return 1.0 / (np.sqrt(2.0 * np.pi) * h)


def log_time_weight(t, before, alpha: float, T_l: float, I: slice, J: slice) -> np.ndarray:
    """The block -d_ij^2 / (2 T_l^2), i in I and j in J, of kick-adjusted distances d.

    ``before`` is the kick intensity before each time (``KickSeries.intensity_before``)
    and ``alpha`` the added time per unit intensity (``KickSeries.alpha_kick``).
    """
    d = t[I, None] - t[None, J]
    # Squaring drops the sign bit exactly, so only the kick term needs |t_i - t_j|.
    if alpha:
        np.abs(d, out=d)
        k = before[I, None] - before[None, J]
        np.abs(k, out=k)
        k *= alpha
        d += k
    d *= d
    d /= -2.0 * T_l * T_l
    return d


def value_exponent(u, v, h: float) -> np.ndarray:
    """The block -(u_i - v_j)^2 / (2 h^2), formed in place so no second block is alive as it forms."""
    e = u[:, None] - v[None, :]
    e *= e
    e /= -2.0 * h * h
    return e


def folded(log_w: np.ndarray, u, v, h: float) -> np.ndarray:
    """exp(log_w_ij - (u_i - v_j)^2 / (2 h^2)) over a block, in one array of the block's size."""
    e = value_exponent(u, v, h)
    e += log_w
    return np.exp(e, out=e)


def weighted_column_sums(M: np.ndarray, inv_I, inv_J) -> np.ndarray:
    """sum_i (inv_I[i] + inv_J[j]) M[i, j] for each column j: the W-weighted column sums."""
    return inv_I @ M + inv_J * M.sum(axis=0)


def pair_sum(M: np.ndarray, inv_s: np.ndarray, I: slice, J: slice) -> float:
    """sum_ij (inv_s[i] + inv_s[j]) M[i, j] over a block (I, J); one off the diagonal counts both orders."""
    total = weighted_column_sums(M, inv_s[I], inv_s[J]).sum()
    return total if I == J else 2.0 * total


def time_products(t, kicks: KickSeries, alpha: float, T_l: float, V: np.ndarray) -> np.ndarray:
    """E @ V for the unnormalised kick-adjusted time kernel E (bandwidth T_l) and an n x k V.

    E_ij = exp(-d_ij^2 / (2 T_l^2)) is generated block by block, and each
    off-diagonal block serves both E_IJ @ V_J and its transpose's E_JI @ V_I.
    """
    t = np.asarray(t, dtype=float)
    before = kicks.intensity_before(t)
    out = np.zeros(V.shape)
    for I, J in square_blocks(t.size):
        E = log_time_weight(t, before, alpha, T_l, I, J)
        np.exp(E, out=E)
        out[I] += E @ V[J]
        if I != J:
            out[J] += E.T @ V[I]
    return out


@dataclass(frozen=True)
class KernelTables:
    """Everything the objective reads that no stage moves, all of it O(n).

    y is the data, gaps its kick-adjusted gaps, one per transition k -> k + 1
    (``oscillator.effective_gaps``), and epsilon the L1 mollification weight.
    T_s and T_l are the estimate's resolved time scales, held nowhere else. h
    is the data bandwidth and rho0[i] the mean over j of K^y(y^i, y^j). t are
    the times, before the kick intensity before each
    (``KickSeries.intensity_before``) and alpha the kick scale; with them
    ``blocks`` generates the log time weight of each block. inv_s[i] is
    1 / sum_l E[i, l] for the unnormalised time kernel E, so the L2 weight is
    W[i, j] = E[i, j] (inv_s[i] + inv_s[j]). wky = sum_ij W[i, j] K^y(y^i, y^j)
    is the part of L2 that does not depend on x, summed through L2's own block
    functions (``value_exponent``, ``pair_sum``), so L2 is -0.0 at x = y, as is
    its gradient, whose xx and yx terms cancel; there ``objective.eval_L2`` and
    ``objective._grad_L2`` return without walking the blocks.
    """

    y: np.ndarray
    gaps: EffectiveGaps
    h: float
    T_s: float
    T_l: float
    epsilon: float
    t: np.ndarray
    before: np.ndarray
    alpha: float
    inv_s: np.ndarray
    rho0: np.ndarray
    wky: float

    def blocks(self):
        """Each block (I, J) of ``square_blocks`` with its log time weight."""
        for I, J in square_blocks(self.t.size):
            yield I, J, log_time_weight(self.t, self.before, self.alpha, self.T_l, I, J)


def build_tables(
    obs: ObservationSeries,
    kicks: KickSeries,
    alpha: float,
    S: np.ndarray,
    T_s: float,
    T_l: float,
    epsilon: float,
) -> KernelTables:
    """Precompute the kernel tables for an observation series and its kicks.

    S holds the row sums of the series' unnormalised time kernel at kick
    scale alpha and bandwidth T_l (``time_products`` of a column of ones).
    The gaps are ``effective_gaps`` at the same kick scale.
    """
    if T_s <= 0 or T_l <= 0:
        raise ValueError("build_tables: time scales must be positive")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("build_tables: epsilon must lie in [0, 1)")
    y, n = obs.values, obs.n
    S = np.asarray(S, dtype=float)
    if S.shape != (n,):
        raise ValueError(f"build_tables: row sums have shape {S.shape}, expected ({n},)")
    h = bandwidth_rule_of_thumb(y)
    t, before, alpha, T_l = obs.times, kicks.intensity_before(obs.times), float(alpha), float(T_l)
    inv_s = 1.0 / S

    ky_sums = np.zeros(n)
    wky = 0.0
    for I, J in square_blocks(n):
        # One exponent serves both kernels: Ky = exp(e), then Kw = exp(e + log_w),
        # the bits of ``folded`` with log_w = 0 (exp(-0.0) = exp(0.0)) and with log_w.
        e = value_exponent(y[I], y[J], h)
        Ky = np.exp(e)
        ky_sums[I] += Ky.sum(axis=1)
        if I != J:
            ky_sums[J] += Ky.sum(axis=0)
        del Ky  # freed before the log weight: see ``TILE_ELEMENTS``
        e += log_time_weight(t, before, alpha, T_l, I, J)
        wky += pair_sum(np.exp(e, out=e), inv_s, I, J)
    c_h = kernel_peak(h)
    return KernelTables(y=y, gaps=effective_gaps(obs, kicks, alpha), h=h, T_s=float(T_s), T_l=T_l,
                        epsilon=float(epsilon), t=t, before=before, alpha=alpha, inv_s=inv_s,
                        rho0=ky_sums * (c_h / n), wky=c_h * wky)
