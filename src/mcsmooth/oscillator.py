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
    "EffectiveGaps",
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
    """Transition standard deviation for x and z."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("ModelNoise: sigma must be positive")


class EffectiveGaps(NamedTuple):
    """Raw phase gaps and kick-inflated relaxation gaps, one per transition k -> k + 1."""

    dt_phase: np.ndarray
    dt_relax: np.ndarray


def relaxation_gap(dt, kicks: KickSeries, lo, hi, alpha: float):
    """The gap dt = hi - lo of [lo, hi), elementwise, plus ``alpha`` (``KickSeries.alpha_kick``)
    per unit intensity of the kicks at lo <= k < hi."""
    return dt + alpha * (kicks.intensity_before(hi) - kicks.intensity_before(lo))


def effective_gaps(obs: ObservationSeries, kicks: KickSeries, alpha: float) -> EffectiveGaps:
    """Raw and kick-inflated gaps of the n - 1 transitions, [t^k, t^{k+1}) for entry k.

    dt_phase is always the raw gap; dt_relax is its ``relaxation_gap``.
    """
    t = obs.times
    dt = np.diff(t)
    return EffectiveGaps(dt, relaxation_gap(dt, kicks, t[:-1], t[1:], alpha))


class TransitionQuantities(NamedTuple):
    """Per-transition quantities shared by the objective, its gradient and reconstruction.

    Entry k describes the transition from the k-th source state across its
    gap; for consecutive observations, from index k into index k + 1.
    ``offset`` is the source's x - b, ``r`` its polar radius and phi the
    propagated phase, read through its cosine and sine.
    """

    offset: np.ndarray
    r: np.ndarray
    d_s: np.ndarray
    r_plus: np.ndarray
    cos_phi: np.ndarray
    sin_phi: np.ndarray
    mean_x: np.ndarray
    mean_z: np.ndarray


def propagate(x, z, b, b_next, a_next, omega, dt_phase, dt_relax, T_s: float) -> TransitionQuantities:
    """Propagate source states (x, z) about their local means b across gaps.

    The source has polar coordinates (r, theta) about b, with theta = 0 at
    r = 0. The amplitude relaxes toward the target a_next with weight
    d_s = exp(-dt_relax / T_s); the phase advances by omega * dt_phase (raw
    gap, kicks excluded) to phi = theta + omega * dt_phase. The propagated
    mean is (b_next + r_plus cos phi, r_plus sin phi). All arguments are
    equal-length arrays.
    """
    offset = x - b
    r = np.hypot(offset, z)
    phi = np.where(r > 0, np.arctan2(z, offset), 0.0) + omega * dt_phase
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    del phi  # freed before d_s and r_plus form, which bounds a reconstruction tile's peak
    d_s = np.exp(-dt_relax / T_s)
    r_plus = (1.0 - d_s) * a_next + d_s * r
    return TransitionQuantities(offset, r, d_s, r_plus, cos_phi, sin_phi,
                                b_next + r_plus * cos_phi, r_plus * sin_phi)


def transition_quantities(
    x: np.ndarray,
    z: np.ndarray,
    params: ParamTrajectory,
    gaps: EffectiveGaps,
    T_s: float,
) -> TransitionQuantities:
    """The n - 1 transitions between consecutive observation indices."""
    b, a, omega = params.b, params.a, params.omega
    return propagate(x[:-1], z[:-1], b[:-1], b[1:], a[1:], omega[:-1], gaps.dt_phase, gaps.dt_relax, T_s)
