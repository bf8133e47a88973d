"""Canonical oscillatory model: polar coordinates and transition densities.

The model propagates an amplitude/phase pair between observation times. The
amplitude relaxes toward a local target a with time scale T_s while the phase
advances linearly at the local frequency. Transitions are Gaussian about the
propagated means; model parameters themselves follow Gaussian transitions
relaxing toward priors on the long time scale T_l.

Kicks enter only through the relaxation gaps (``dt_relax``): the raw gap
(``dt_phase``) always multiplies the frequency so the oscillation phase stays
coherent across interventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .timeseries import KickSeries, ObservationSeries, float_array

__all__ = [
    "ParamTrajectory",
    "ParamPriors",
    "ModelNoise",
    "PolarState",
    "EffectiveGaps",
    "to_polar",
    "propagate_mean",
    "transition_logpdfs",
    "param_transition_logpdf",
    "effective_gaps",
]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ParamTrajectory:
    """Per-index local mean b, amplitude a, and frequency omega."""

    b: np.ndarray
    a: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        b = float_array(self.b)
        a = float_array(self.a)
        omega = float_array(self.omega)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "omega", omega)
        if not (b.shape == a.shape == omega.shape) or b.ndim != 1:
            raise ValueError("ParamTrajectory: b, a, omega must be equal-length 1-d arrays")
        if np.any(a < 0):
            raise ValueError("ParamTrajectory: amplitudes must be nonnegative")
        if np.any(omega <= 0):
            raise ValueError("ParamTrajectory: frequencies must be positive")

    @property
    def n(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class ParamPriors:
    """Relaxation targets and transition uncertainties for b, a, omega."""

    b_tilde: float
    a_tilde: float
    omega_tilde: float
    sigma_b: float
    sigma_a: float
    sigma_omega: float

    def __post_init__(self):
        if min(self.sigma_b, self.sigma_a, self.sigma_omega) <= 0:
            raise ValueError("ParamPriors: all sigmas must be positive")
        if self.a_tilde < 0:
            raise ValueError("ParamPriors: a_tilde must be nonnegative")


@dataclass(frozen=True)
class ModelNoise:
    """Transition standard deviation for x and z. sigma0 defaults to 0.1 sigma."""

    sigma: float
    sigma0: float | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("ModelNoise: sigma must be positive")
        if self.sigma0 is None:
            object.__setattr__(self, "sigma0", 0.1 * self.sigma)


class PolarState(NamedTuple):
    r: float | np.ndarray
    theta: float | np.ndarray


class EffectiveGaps(NamedTuple):
    """Raw phase gaps and kick-inflated relaxation gaps, leading entry zero."""

    dt_phase: np.ndarray
    dt_relax: np.ndarray


def to_polar(x, z, b) -> PolarState:
    """Polar coordinates of (x, z) about the local mean b; theta = 0 at r = 0."""
    u = np.asarray(x) - np.asarray(b)
    z = np.asarray(z)
    r = np.hypot(u, z)
    theta = np.where(r > 0, np.arctan2(z, u), 0.0)
    if r.ndim == 0:
        return PolarState(float(r), float(theta))
    return PolarState(r, theta)


def propagate_mean(prev: PolarState, a_next, omega_prev, dt_phase, dt_relax, T_s: float) -> PolarState:
    """Propagate (r, theta) across a gap.

    The amplitude relaxes toward a_next with weight exp(-dt_relax / T_s);
    the phase advances by omega_prev * dt_phase (raw gap, kicks excluded).
    """
    d_s = np.exp(-np.asarray(dt_relax) / T_s)
    r_plus = (1.0 - d_s) * a_next + d_s * prev.r
    theta_plus = prev.theta + np.asarray(omega_prev) * np.asarray(dt_phase)
    return PolarState(r_plus, theta_plus)


def _gauss_logpdf(x, mean, var):
    d = np.asarray(x) - mean
    return -0.5 * (LOG_2PI + np.log(var)) - (d * d) / (2.0 * var)


def transition_logpdfs(
    x_j,
    z_j,
    prev: PolarState,
    b_j,
    a_j,
    omega_prev,
    dt_phase,
    dt_relax,
    sigma: float,
    T_s: float,
):
    """Log transition densities of (x_j, z_j) given the previous polar state.

    x_j is Normal about b_j + r_plus cos(theta_plus) and z_j about
    r_plus sin(theta_plus), both with variance sigma^2.
    """
    if sigma <= 0:
        raise ValueError("transition_logpdfs: sigma must be positive")
    plus = propagate_mean(prev, a_j, omega_prev, dt_phase, dt_relax, T_s)
    mean_x = np.asarray(b_j, dtype=float) + plus.r * np.cos(plus.theta)
    mean_z = plus.r * np.sin(plus.theta)
    var = sigma * sigma
    return _gauss_logpdf(x_j, mean_x, var), _gauss_logpdf(z_j, mean_z, var)


def param_transition_logpdf(alpha_j, alpha_prev, alpha_tilde, sigma_l, dt_relax, T_l: float):
    """Log density of a parameter transition relaxing toward its prior.

    Normal with mean d_l alpha_prev + (1 - d_l) alpha_tilde and variance
    (1 - d_l) sigma_l^2 where d_l = exp(-dt_relax / T_l). A zero gap makes
    the variance degenerate and is rejected.
    """
    if sigma_l <= 0:
        raise ValueError("param_transition_logpdf: sigma_l must be positive")
    dt_relax = np.asarray(dt_relax, dtype=float)
    if np.any(dt_relax <= 0):
        raise ValueError("param_transition_logpdf: degenerate variance at zero gap")
    d_l = np.exp(-dt_relax / T_l)
    mean = d_l * np.asarray(alpha_prev, dtype=float) + (1.0 - d_l) * alpha_tilde
    var = (1.0 - d_l) * sigma_l * sigma_l
    return _gauss_logpdf(alpha_j, mean, var)


def effective_gaps(obs: ObservationSeries, kicks: KickSeries) -> EffectiveGaps:
    """Raw and kick-inflated gaps for every observation index.

    dt_phase is always the raw gap; dt_relax adds alpha_kick times the
    intensity of kicks inside the gap [t^{j-1}, t^j).
    """
    raw = obs.gaps()
    relax = raw + kicks.alpha_kick * kicks.gap_intensity(obs.times)
    return EffectiveGaps(raw, relax)


class TransitionQuantities(NamedTuple):
    """Vectorized per-transition quantities shared by objective and gradients.

    All arrays have length n - 1; entry k describes the transition from index
    k into index k + 1.
    """

    r_prev: np.ndarray
    theta_prev: np.ndarray
    d_s: np.ndarray
    r_plus: np.ndarray
    phi: np.ndarray
    mean_x: np.ndarray
    mean_z: np.ndarray


def transition_quantities(
    x: np.ndarray,
    z: np.ndarray,
    params: ParamTrajectory,
    gaps: EffectiveGaps,
    T_s: float,
) -> TransitionQuantities:
    prev = to_polar(x[:-1], z[:-1], params.b[:-1])
    d_s = np.exp(-gaps.dt_relax[1:] / T_s)
    r_plus = (1.0 - d_s) * params.a[1:] + d_s * prev.r
    phi = prev.theta + params.omega[:-1] * gaps.dt_phase[1:]
    mean_x = params.b[1:] + r_plus * np.cos(phi)
    mean_z = r_plus * np.sin(phi)
    return TransitionQuantities(prev.r, prev.theta, d_s, r_plus, phi, mean_x, mean_z)
