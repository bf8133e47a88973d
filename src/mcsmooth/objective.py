"""The multicomponent objective: point-wise, distributional, model, and flex terms.

Each component is a function of the moving state and of the ``KernelTables``,
which hold everything no stage moves: the data y, its gaps and epsilon.
L1 rewards point-wise kernel agreement of the surrogate x with the data y
(mollified by epsilon), L2 rewards agreement of their time-modulated kernel
densities, L3/L4 reward coherence with the oscillatory model's transition
densities, and the three parameter components reward slow parameter drift.
The total is the lambda-weighted sum, formed in ``WeightSchedule.total`` alone.
The L1 mixture, the transition and flex residuals and the Gaussian
log-density sum are each written once here, and each term's gradient sits
beside its value.

L2 is the only pairwise term. It is summed over the tables' square blocks
(``KernelTables.blocks``) with the time weight folded into each kernel's
exponent, so its memory is O(n) and no n x n array exists. At x = y, where
every estimate starts, ``eval_L2`` and ``_grad_L2`` walk no block (see
``KernelTables``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .kernels import KernelTables, folded, gaussian_kernel, kernel_peak, pair_sum, weighted_column_sums
from .oscillator import (LOG_2PI, EffectiveGaps, ModelNoise, ParamPriors, ParamTrajectory,
                         TransitionQuantities, transition_quantities)
from .timeseries import _is_number, float_array

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
    "GradientBundle",
    "PolarSingularityError",
    "grad_total",
    "fd_check",
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
        if not all(_is_number(v) and 0 <= v < math.inf for v in lams):
            raise ValueError("WeightSchedule: weights must be finite and nonnegative")

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


def _grad_L1(state, tables):
    ky, mixture = l1_mixture(state, tables)
    eps, h2 = tables.epsilon, tables.h ** 2
    return (1.0 - eps) / (state.n * h2) * (tables.y - state.x) * ky / mixture


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

    The x-dependent part sum W * (Kxx - 2 Kyx) is summed block by block with
    ``pair_sum``; the rest, sum W * Ky, is the precomputed ``tables.wky``.
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
        else:
            Kxx -= Kyx
            del Kyx
            Kxx -= folded(log_w, x[I], y[J], h)
        total += pair_sum(Kxx, inv_s, I, J)
    return -(kernel_peak(h) * total + tables.wky) / (2.0 * state.n)


def _grad_L2(state, tables):
    """The x-gradient of L2; at x = y, -0.0 everywhere without a block pass (see ``KernelTables``)."""
    if np.array_equal(state.x, tables.y):
        return np.full_like(state.x, -0.0)
    return _grad_L2_blocks(state, tables)


def _grad_L2_blocks(state, tables):
    x, y, h, inv_s = state.x, tables.y, tables.h, tables.inv_s
    g = np.zeros_like(x)
    # g_k = sum_i W_ik ((x_i - x_k) Kxx_ik - (y_i - x_k) Kyx_ik). A block's
    # columns k in J take the pairs i in I, and off the diagonal its rows
    # k in I take the pairs i in J, where (x_i - x_k) Kxx is the negated term.
    # Each difference is formed where its kernel is scaled and freed at once,
    # and Kyx and Kxy are freed once summed, so at most four blocks are alive.
    for I, J, log_w in tables.blocks():
        Kxx = folded(log_w, x[I], x[J], h)
        Kxx *= x[I, None] - x[None, J]
        Kyx = folded(log_w, y[I], x[J], h)
        Kyx *= y[I, None] - x[None, J]
        np.subtract(Kxx, Kyx, out=Kyx)
        g[J] += weighted_column_sums(Kyx, inv_s[I], inv_s[J])
        del Kyx
        if I != J:
            Kxy = folded(log_w, x[I], y[J], h)
            Kxy *= x[I, None] - y[None, J]
            Kxy -= Kxx
            g[I] += weighted_column_sums(Kxy.T, inv_s[J], inv_s[I])
            del Kxy
    return -kernel_peak(h) * g / (state.n * h * h)


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
    return np.exp(-tables.gaps.dt_relax / tables.T_l)


def flex_residuals(alpha: np.ndarray, alpha_tilde: float, sigma_l: float, d_l: np.ndarray):
    """Residuals of a trajectory about d_l alpha + (1 - d_l) alpha_tilde, and their variances."""
    mean = d_l * alpha[:-1] + (1.0 - d_l) * alpha_tilde
    return alpha[1:] - mean, (1.0 - d_l) * sigma_l * sigma_l


def eval_Lparams(state: EstimationState, tables: KernelTables) -> tuple[float, float, float]:
    """Flex log-likelihoods for the b, a and omega trajectories."""
    if np.any(tables.gaps.dt_relax <= 0):
        raise ValueError("eval_Lparams: degenerate variance at zero gap")
    d_l = long_decay(tables)
    p, pr, n = state.params, state.priors, state.n
    return (
        _gauss_log_sum(*flex_residuals(p.b, pr.b_tilde, pr.sigma_b, d_l), n),
        _gauss_log_sum(*flex_residuals(p.a, pr.a_tilde, pr.sigma_a, d_l), n),
        _gauss_log_sum(*flex_residuals(p.omega, pr.omega_tilde, pr.sigma_omega, d_l), n),
    )


def _grad_Lparam(alpha, alpha_tilde, sigma_l, d_l, n):
    resid, var = flex_residuals(alpha, alpha_tilde, sigma_l, d_l)
    g = resid / var
    out = np.zeros_like(alpha)
    out[1:] -= g
    out[:-1] += d_l * g
    return out / n


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


class PolarSingularityError(RuntimeError):
    """Raised when a model gradient is requested at radius numerically zero."""


@dataclass(frozen=True)
class GradientBundle:
    d_x: np.ndarray
    d_z: np.ndarray
    d_b: np.ndarray
    d_a: np.ndarray
    d_omega: np.ndarray


def grad_total(state: EstimationState, tables: KernelTables, schedule: WeightSchedule) -> GradientBundle:
    """Gradient of the weighted total objective with respect to every block.

    Each transition density is differentiated through the propagated mean,
    and the dependence of a transition on its source state (x, z, b at the
    previous index) goes through the polar chain rule

        d/dx =  (x-b)/r d/dr - z/r^2 d/dtheta
        d/dz =   z/r    d/dr + (x-b)/r^2 d/dtheta
        d/db = -(x-b)/r d/dr + z/r^2 d/dtheta

    evaluated at the transition's source index. Every index therefore
    collects up to two contributions, one from its own transition and one
    from its successor's; whichever falls outside the valid transition range
    is dropped. Because the chain rule divides by r and r^2, the model terms'
    gradients are undefined at r = 0, and ``PolarSingularityError`` is raised
    there.
    """
    n = state.n
    d_x = np.zeros(n)
    d_z = np.zeros(n)
    d_b = np.zeros(n)
    d_a = np.zeros(n)
    d_om = np.zeros(n)

    if schedule.lam1:
        d_x += schedule.lam1 * _grad_L1(state, tables)
    if schedule.lam2:
        d_x += schedule.lam2 * _grad_L2(state, tables)

    if schedule.lam3 or schedule.lam4:
        q = transition_quantities(state.x, state.z, state.params, tables.gaps, tables.T_s)
        r = q.r
        floor = 1e-8 * float(np.mean(state.params.a))
        if np.any(r <= floor):
            raise PolarSingularityError(
                "grad_total: polar radius at or below the singularity floor; "
                "model gradients are undefined at r = 0"
            )
        rx, rz, var = transition_residuals(state, q)
        u, zp = q.offset, state.z[:-1]

        # mean_x = b+ + r+ cos(phi) and mean_z = r+ sin(phi). A row holds a component's weight,
        # residual, own block, whether its mean moves with b+, and d mean / d r+ and
        # (d mean / d phi) / r+; r+ moves with r and a+, phi with omega.
        for lam, resid, own, with_b, d_r, d_phi in (
            (schedule.lam3, rx, d_x, True, q.cos_phi, -q.sin_phi),
            (schedule.lam4, rz, d_z, False, q.sin_phi, q.cos_phi),
        ):
            if not lam:
                continue
            g = resid / var
            A = g * q.d_s * d_r
            B = g * q.r_plus * d_phi
            w = lam / n
            own[1:] += -w * g
            if with_b:
                d_b[1:] += w * g
            d_a[1:] += w * g * (1.0 - q.d_s) * d_r
            d_om[:-1] += w * tables.gaps.dt_phase * B
            dx_src = (u / r) * A - (zp / (r * r)) * B
            dz_src = (zp / r) * A + (u / (r * r)) * B
            d_x[:-1] += w * dx_src
            d_z[:-1] += w * dz_src
            d_b[:-1] += -w * dx_src

    if schedule.any_param:
        d_l = long_decay(tables)
        p, pr = state.params, state.priors
        if schedule.lam_b:
            d_b += schedule.lam_b * _grad_Lparam(p.b, pr.b_tilde, pr.sigma_b, d_l, n)
        if schedule.lam_a:
            d_a += schedule.lam_a * _grad_Lparam(p.a, pr.a_tilde, pr.sigma_a, d_l, n)
        if schedule.lam_omega:
            d_om += schedule.lam_omega * _grad_Lparam(p.omega, pr.omega_tilde, pr.sigma_omega, d_l, n)

    return GradientBundle(d_x, d_z, d_b, d_a, d_om)


def _perturbed(state, block: str, idx: int, value):
    """``state`` with one coordinate of the x, z, b, a or omega block set to ``value``."""
    owner = state if block in ("x", "z") else state.params
    arr = getattr(owner, block).copy()
    arr[idx] = value
    if owner is state:
        return replace(state, **{block: arr})
    return replace(state, params=replace(owner, **{block: arr}))


class FDCheck(NamedTuple):
    """``fd_check``'s two figures, each relative to an entry's own scale.

    ``worst`` is the largest error found. ``resolution`` is the largest
    rounding bound of a quotient: a relative error below it can read 0 in
    some entry, so it is the smallest error the check sees in every entry.
    """

    worst: float
    resolution: float


def fd_check(
    state: EstimationState, tables: KernelTables, schedule: WeightSchedule, step: float = 1e-6
) -> FDCheck:
    """Relative errors of grad_total against fourth-order central finite differences.

    Each coordinate v is perturbed by s = step * max(1, |value|), and the
    derivative is (L(v-2s) - 8 L(v-s) + 8 L(v+s) - L(v+2s)) / 12s, whose
    truncation error is O(s^4) where the two-point difference's is O(s^2).
    The objective is evaluated in extended precision. Rounding the four
    values can move the quotient by up to r = (|L(v-2s)| + 8|L(v-s)| +
    8|L(v+s)| + |L(v+2s)|) eps / 12s, with eps that precision's epsilon, so an
    entry's error is the part of |analytic - numeric| beyond r, relative to
    its scale max(|analytic|, |numeric|): an entry under the differences'
    resolution reads 0, and one above it is judged on its own scale. An
    entry whose analytic value or quotient is not finite has an infinite
    error. ``worst`` is the largest error, and ``resolution`` the largest
    r relative to its entry's scale, over the entries of nonzero scale.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("fd_check: step must be finite and positive")
    g = grad_total(state, tables, schedule)
    analytic = {"x": g.d_x, "z": g.d_z, "b": g.d_b, "a": g.d_a, "omega": g.d_omega}

    # Extended precision keeps the central differences from being swamped by
    # cancellation in float64: the objective is O(1) while single-coordinate
    # perturbations move it by O(step).
    def ld(a):
        return np.asarray(a, dtype=np.longdouble)

    p = state.params
    wstate = replace(state, x=ld(state.x), z=ld(state.z),
                     params=replace(p, b=ld(p.b), a=ld(p.a), omega=ld(p.omega)))
    gaps = tables.gaps
    wtables = replace(tables, y=ld(tables.y), rho0=ld(tables.rho0), t=ld(tables.t),
                      before=ld(tables.before), inv_s=ld(tables.inv_s),
                      gaps=EffectiveGaps(ld(gaps.dt_phase), ld(gaps.dt_relax)))
    values = {
        "x": wstate.x,
        "z": wstate.z,
        "b": wstate.params.b,
        "a": wstate.params.a,
        "omega": wstate.params.omega,
    }
    eps = np.finfo(np.longdouble).eps
    worst = resolution = 0.0
    for block, vals in values.items():
        for i in range(state.n):
            v = vals[i]
            h = np.longdouble(step) * max(1.0, abs(float(v)))
            f = [eval_total(_perturbed(wstate, block, i, v + k * h), wtables, schedule) for k in (-2, -1, 1, 2)]
            numeric = float((8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * h))
            rounding = float((abs(f[0]) + 8.0 * abs(f[1]) + 8.0 * abs(f[2]) + abs(f[3])) * eps / (12.0 * h))
            a = float(analytic[block][i])
            scale = max(abs(a), abs(numeric))
            if scale > 0.0:  # a NaN scale fails the comparison too
                resolution = max(resolution, rounding / scale)
            excess = abs(a - numeric) - rounding
            if not excess <= 0.0:  # a NaN excess fails the comparison too
                worst = max(worst, excess / scale if math.isfinite(excess) else math.inf)
    return FDCheck(worst, resolution)
