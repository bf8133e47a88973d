"""Analytic gradients of every objective component, plus a finite-difference check.

The derivatives are hand-coded: each transition density is differentiated
through the propagated mean, and the dependence of a transition on its source
state (x, z, b at the previous index) goes through the polar chain rule

    d/dx =  (x-b)/r d/dr - z/r^2 d/dtheta
    d/dz =   z/r    d/dr + (x-b)/r^2 d/dtheta
    d/db = -(x-b)/r d/dr + z/r^2 d/dtheta

evaluated at the transition's source index. Every index therefore collects up
to two contributions, one from its own transition and one from its
successor's; whichever falls outside the valid transition range is dropped.
Because the chain rule divides by r and r^2, gradients of the model terms are
undefined at r = 0 and a hard error is raised there.

The L2 gradient is summed over the tables' square blocks, except at x = y,
where stage 2 takes its first gradient (see ``KernelTables``).

``fd_check`` compares the whole bundle against central finite differences of
the evaluated objective and is the safeguard the test suite runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import KernelTables, folded, kernel_peak, weighted_column_sums
from .objective import (EstimationState, WeightSchedule, eval_total, flex_residuals, l1_mixture,
                        long_decay, transition_residuals)
from .oscillator import EffectiveGaps, transition_quantities

__all__ = ["GradientBundle", "PolarSingularityError", "grad_total", "fd_check"]


class PolarSingularityError(RuntimeError):
    """Raised when a model gradient is requested at radius numerically zero."""


@dataclass(frozen=True)
class GradientBundle:
    d_x: np.ndarray
    d_z: np.ndarray
    d_b: np.ndarray
    d_a: np.ndarray
    d_omega: np.ndarray

    def blocks(self) -> tuple[np.ndarray, ...]:
        return self.d_x, self.d_z, self.d_b, self.d_a, self.d_omega


def _grad_L1(state, tables):
    ky, mixture = l1_mixture(state, tables)
    eps, h2 = tables.epsilon, tables.h ** 2
    return (1.0 - eps) / (state.n * h2) * (tables.y - state.x) * ky / mixture


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


def _grad_Lparam(alpha, alpha_tilde, sigma_l, d_l, n):
    resid, var = flex_residuals(alpha, alpha_tilde, sigma_l, d_l)
    g = resid / var
    out = np.zeros_like(alpha)
    out[1:] -= g
    out[:-1] += d_l * g
    return out / n


def grad_total(state: EstimationState, tables: KernelTables, schedule: WeightSchedule) -> GradientBundle:
    """Gradient of the weighted total objective with respect to every block."""
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
        dtp = tables.gaps.dt_phase[1:]

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
            d_om[:-1] += w * dtp * B
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


def fd_check(
    state: EstimationState, tables: KernelTables, schedule: WeightSchedule, step: float = 1e-6
) -> float:
    """Max relative error of grad_total against fourth-order central finite differences.

    Each coordinate v is perturbed by s = step * max(1, |value|), and the
    derivative is (L(v-2s) - 8 L(v-s) + 8 L(v+s) - L(v+2s)) / 12s, whose
    truncation error is O(s^4) where the two-point difference's is O(s^2).
    The objective is evaluated in extended precision. Rounding the four
    values can move the quotient by up to r = (|L(v-2s)| + 8|L(v-s)| +
    8|L(v+s)| + |L(v+2s)|) eps / 12s, with eps that precision's epsilon, so an
    entry's error is the part of |analytic - numeric| beyond r, relative to
    max(|analytic|, |numeric|): an entry under the differences' resolution
    reads 0, and one above it is judged on its own scale.
    """
    if step <= 0:
        raise ValueError("fd_check: step must be positive")
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
    worst = 0.0
    for block, vals in values.items():
        for i in range(state.n):
            v = vals[i]
            h = np.longdouble(step) * max(1.0, abs(float(v)))
            f = [eval_total(_perturbed(wstate, block, i, v + k * h), wtables, schedule) for k in (-2, -1, 1, 2)]
            numeric = float((8.0 * (f[2] - f[1]) - (f[3] - f[0])) / (12.0 * h))
            rounding = float((abs(f[0]) + 8.0 * abs(f[1]) + 8.0 * abs(f[2]) + abs(f[3])) * eps / (12.0 * h))
            a = float(analytic[block][i])
            excess = abs(a - numeric) - rounding
            if excess > 0.0:
                worst = max(worst, excess / max(abs(a), abs(numeric)))
    return worst
