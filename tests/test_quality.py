"""Quality gates on the ICU week: initial period and gap reconstruction.

The truth is the paper's ICU patient on a constant 80 mg/min tube feed (and,
for the switch cases, 80 then 20 mg/min from t = 7000), simulated for one
week after a 2000-min transient. The reconstruction on the 1-min grid is
scored by its RMSE against the truth and compared with linear interpolation
through the same samples.
"""

import numpy as np
import pytest

from mcsmooth import (
    KickSeries,
    MeasurementSpec,
    NutritionSchedule,
    ObservationSeries,
    default_initial_state,
    estimate,
    icu_fit_params,
    initialize,
    reconstruct_trajectory,
    simulate,
    subsample,
)

TRUE_PERIOD_MIN = 139.8  # mean upward-crossing spacing of the constant-feed week
H1_TIMES = tuple(2000.0 + 120.0 * k for k in range(84))


def icu_week(schedule):
    r = simulate(icu_fit_params(), schedule, default_initial_state(),
                 t_end=12080.0, dt=0.1, discard=2000.0)
    return ObservationSeries(r.times, r.glucose)


@pytest.fixture(scope="module")
def constant_feed():
    return icu_week(NutritionSchedule.constant(80.0, 12081.0))


@pytest.fixture(scope="module")
def feed_switch():
    return icu_week(NutritionSchedule(((0.0, 7000.0, 80.0), (7000.0, 12081.0, 20.0))))


def h2(dense, seed):
    return subsample(dense, MeasurementSpec("h2", rng_seed=seed))


def rmse_pair(dense, obs, kicks=None):
    """RMSE of the reconstruction and of linear interpolation on the 1-min grid."""
    grid = np.arange(obs.times[0], obs.times[-1] + 0.5, 1.0)
    values, _ = reconstruct_trajectory(estimate(obs, kicks), grid)
    truth = np.interp(grid, dense.times, dense.values)
    linear = np.interp(grid, obs.times, obs.values)
    return (float(np.sqrt(np.mean((values - truth) ** 2))),
            float(np.sqrt(np.mean((linear - truth) ** 2))))


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_h2_reconstruction_beats_linear_interpolation(constant_feed, seed):
    recon, linear = rmse_pair(constant_feed, h2(constant_feed, seed))
    assert recon < linear


@pytest.mark.parametrize(
    "spec",
    [MeasurementSpec("h2", rng_seed=s) for s in (11, 12, 13)] + [MeasurementSpec("h3", period=5.0)],
    ids=["h2-11", "h2-12", "h2-13", "h3"],
)
def test_initial_period_within_5_percent(constant_feed, spec):
    state, _, _ = initialize(subsample(constant_feed, spec))
    period = 2 * np.pi / state.priors.omega_tilde
    assert abs(period / TRUE_PERIOD_MIN - 1.0) <= 0.05


@pytest.mark.parametrize("kicked", [False, True])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_feed_switch_beats_linear_interpolation(feed_switch, seed, kicked):
    kicks = KickSeries([7000.0], [1.0]) if kicked else None
    recon, linear = rmse_pair(feed_switch, h2(feed_switch, seed), kicks)
    assert recon < linear


def test_h1_reconstruction_error_below_the_sign_change_estimator(constant_feed):
    # Samples every 120 min cannot tell the 140-min period from its aliases
    # (105 and 64.6 min), so h1 is gated on its error only: the sign-change
    # initialisation this periodogram replaced gave 28.72 mg/dl.
    obs = subsample(constant_feed, MeasurementSpec("h1", explicit_times=H1_TIMES))
    recon, _ = rmse_pair(constant_feed, obs)
    assert recon < 28.72
