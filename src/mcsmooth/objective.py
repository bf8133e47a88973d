"""The multicomponent objective: point-wise, distributional, model, and flex terms.

Each component is a function of the moving state and of the ``KernelTables``,
which hold everything no stage moves: the data y, its gaps and epsilon.
L1 rewards point-wise kernel agreement of the surrogate x with the data y
(mollified by epsilon), L2 rewards agreement of their time-modulated kernel
densities, L3/L4 reward coherence with the oscillatory model's transition
densities, and the three parameter components reward slow parameter drift.
The total is the lambda-weighted sum, formed in ``WeightSchedule.total`` alone.
The L1 mixture, the transition and flex residuals and the Gaussian
log-density sum are each written once here; ``gradients`` reads them.

L2 is the only pairwise term. It is summed over the tables' square blocks
(``KernelTables.blocks``) with the time weight folded into each kernel's
exponent, so its memory is O(n) and no n x n array exists. At x = y, where
every estimate starts, ``eval_L2`` walks no block (see ``KernelTables``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import KernelTables, folded, gaussian_kernel, kernel_peak, weighted_column_sums
from .oscillator import (LOG_2PI, ModelNoise, ParamPriors, ParamTrajectory, TransitionQuantities,
                         transition_quantities)
from .timeseries import float_array

__all__ = [
    "EstimationState",
    "WeightSchedule",
    "Components",
    "eval_L1",
    "eval_L2",
    "eval_L3_L4",
    "eval_Lparams",
    "eval_total",
    "eval_components",
]


@dataclass(frozen=True)
class EstimationState:
    """Everything gradient ascent moves: surrogates, latents, and parameters."""

    x: np.ndarray
    z: np.ndarray
    params: ParamTrajectory
    priors: ParamPriors
    noise: ModelNoise

    def __post_init__(self):
        x = float_array(self.x)
        z = float_array(self.z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        if x.ndim != 1 or x.shape != z.shape or x.size != self.params.n:
            raise ValueError("EstimationState: x, z and parameter trajectories must share one length")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class WeightSchedule:
    """Component weights lambda_k."""

    lam1: float = 0.0
    lam2: float = 0.0
    lam3: float = 0.0
    lam4: float = 0.0
    lam_b: float = 0.0
    lam_a: float = 0.0
    lam_omega: float = 0.0

    def __post_init__(self):
        lams = (self.lam1, self.lam2, self.lam3, self.lam4, self.lam_b, self.lam_a, self.lam_omega)
        if min(lams) < 0:
            raise ValueError("WeightSchedule: weights must be nonnegative")

    @classmethod
    def from_lambdas(cls, lambdas) -> "WeightSchedule":
        l1, l2, l3, l4, lb, la, lo = (float(v) for v in lambdas)
        return cls(l1, l2, l3, l4, lb, la, lo)

    @property
    def any_param(self) -> bool:
        return bool(self.lam_b or self.lam_a or self.lam_omega)

    def total(self, c: Components) -> float:
        """The weighted sum of the components; zero-weight terms are skipped."""
        total = 0.0
        if self.lam1:
            total += self.lam1 * c.L1
        if self.lam2:
            total += self.lam2 * c.L2
        if self.lam3 or self.lam4:
            total += self.lam3 * c.L3 + self.lam4 * c.L4
        if self.any_param:
            total += self.lam_b * c.L_b + self.lam_a * c.L_a + self.lam_omega * c.L_omega
        return total


class Components(NamedTuple):
    L1: float
    L2: float
    L3: float
    L4: float
    L_b: float
    L_a: float
    L_omega: float


def l1_mixture(state: EstimationState, tables: KernelTables) -> tuple[np.ndarray, np.ndarray]:
    """The L1 kernel K_h(y, x) and the mixture (1 - epsilon) K_h + epsilon rho0 whose log L1 averages."""
    ky = gaussian_kernel(tables.y, state.x, tables.h)
    eps = tables.epsilon
    return ky, (1.0 - eps) * ky + eps * tables.rho0


def eval_L1(state: EstimationState, tables: KernelTables) -> float:
    """Mollified point-wise log-likelihood of the data under the surrogates."""
    return np.mean(np.log(l1_mixture(state, tables)[1]))


def eval_L2(state: EstimationState, tables: KernelTables) -> float:
    """Symmetrized time-weighted discrepancy between the x and y measures.

    Vanishes exactly at x = y and, in the uniform-weight limit, is the
    negative of a squared kernel mean discrepancy, hence nonpositive.
    At x = y it returns -0.0 without a block pass (see ``KernelTables``).
    """
    if np.array_equal(state.x, tables.y):
        return np.float64(-0.0)
    return _L2_blocks(state, tables)


def _L2_blocks(state: EstimationState, tables: KernelTables) -> float:
    """L2 summed over the tables' blocks.

    The x-dependent part sum W * (Kxx - 2 Kyx) is summed over the tables'
    blocks, each off-diagonal block counting both orders of its pairs; the
    rest, sum W * Ky, is the precomputed ``tables.wky``.
    """
    x, y, h, inv_s = state.x, tables.y, tables.h, tables.inv_s
    total = 0.0
    # At most three blocks are alive at once, the log weight among them: Kyx
    # is freed once subtracted, before Kxy or the next log weight forms.
    for I, J, log_w in tables.blocks():
        Kxx = folded(log_w, x[I], x[J], h)
        Kyx = folded(log_w, y[I], x[J], h)
        if I == J:
            Kyx *= 2.0
            Kxx -= Kyx
            del Kyx
            total += weighted_column_sums(Kxx, inv_s[I], inv_s[J]).sum()
        else:
            Kxx -= Kyx
            del Kyx
            Kxx -= folded(log_w, x[I], y[J], h)
            total += 2.0 * weighted_column_sums(Kxx, inv_s[I], inv_s[J]).sum()
    return -(kernel_peak(h) * total + tables.wky) / (2.0 * state.n)


def _gauss_log_sum(resid: np.ndarray, var, n: int) -> float:
    """Sum of Gaussian log-densities of the residuals at variance ``var``, 1/n normalized."""
    return np.sum(-0.5 * (LOG_2PI + np.log(var)) - resid * resid / (2.0 * var)) / n


def transition_residuals(state: EstimationState, q: TransitionQuantities):
    """The residuals x+ - mean_x and z+ - mean_z of the transitions ``q``, and their variance."""
    return state.x[1:] - q.mean_x, state.z[1:] - q.mean_z, state.noise.sigma ** 2


def eval_L3_L4(state: EstimationState, tables: KernelTables) -> tuple[float, float]:
    """Model-coherence log-likelihoods of x and z transitions, 1/n normalized."""
    if state.n < 2:
        raise ValueError("eval_L3_L4: need at least 2 samples")
    q = transition_quantities(state.x, state.z, state.params, tables.gaps, tables.T_s)
    rx, rz, var = transition_residuals(state, q)
    return _gauss_log_sum(rx, var, state.n), _gauss_log_sum(rz, var, state.n)


def long_decay(tables: KernelTables) -> np.ndarray:
    """Decay d_l = exp(-dt_relax / T_l) of the parameter trajectories across each gap."""
    return np.exp(-tables.gaps.dt_relax[1:] / tables.T_l)


def flex_residuals(alpha: np.ndarray, alpha_tilde: float, sigma_l: float, d_l: np.ndarray):
    """Residuals of a trajectory about d_l alpha + (1 - d_l) alpha_tilde, and their variances."""
    mean = d_l * alpha[:-1] + (1.0 - d_l) * alpha_tilde
    return alpha[1:] - mean, (1.0 - d_l) * sigma_l * sigma_l


def eval_Lparams(state: EstimationState, tables: KernelTables) -> tuple[float, float, float]:
    """Flex log-likelihoods for the b, a and omega trajectories."""
    if np.any(tables.gaps.dt_relax[1:] <= 0):
        raise ValueError("eval_Lparams: degenerate variance at zero gap")
    d_l = long_decay(tables)
    p, pr, n = state.params, state.priors, state.n
    return (
        _gauss_log_sum(*flex_residuals(p.b, pr.b_tilde, pr.sigma_b, d_l), n),
        _gauss_log_sum(*flex_residuals(p.a, pr.a_tilde, pr.sigma_a, d_l), n),
        _gauss_log_sum(*flex_residuals(p.omega, pr.omega_tilde, pr.sigma_omega, d_l), n),
    )


def eval_total(state: EstimationState, tables: KernelTables, schedule: WeightSchedule) -> float:
    """Weighted total objective; components with zero weight are not evaluated."""
    s = schedule
    L1 = eval_L1(state, tables) if s.lam1 else 0.0
    L2 = eval_L2(state, tables) if s.lam2 else 0.0
    L3, L4 = eval_L3_L4(state, tables) if s.lam3 or s.lam4 else (0.0, 0.0)
    L_b, L_a, L_om = eval_Lparams(state, tables) if s.any_param else (0.0, 0.0, 0.0)
    return s.total(Components(L1, L2, L3, L4, L_b, L_a, L_om))


def eval_components(
    state: EstimationState,
    tables: KernelTables,
    start: Components | None = None,
    moved=("x", "z", "params"),
) -> Components:
    """All seven components, unweighted.

    ``start`` may hold the components of an earlier state from which this
    one differs only in the blocks named in ``moved``. L1 and L2 are then
    copied from it unless x moved, and the three parameter components unless
    the params moved. L3 and L4 are always evaluated.
    """
    L3, L4 = eval_L3_L4(state, tables)
    if start is None or "params" in moved:
        L_b, L_a, L_om = eval_Lparams(state, tables)
    else:
        L_b, L_a, L_om = start.L_b, start.L_a, start.L_omega
    if start is None or "x" in moved:
        L1, L2 = eval_L1(state, tables), eval_L2(state, tables)
    else:
        L1, L2 = start.L1, start.L2
    return Components(L1, L2, L3, L4, L_b, L_a, L_om)
