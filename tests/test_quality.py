"""Quality gates on the ICU week: initial period and gap reconstruction.

The truth is the paper's ICU patient on a constant 80 mg/min tube feed (and,
for the switch cases, 80 then 20 mg/min from t = 7000), simulated for one
week after a 2000-min transient. The reconstruction on the 1-min grid is
scored by its RMSE against the truth and compared with linear interpolation
through the same samples. The noisy and outlier cases observe the same h2
samples with added noise (``noisy_h2``) and are still scored against the
clean truth.
"""

from dataclasses import replace

import numpy as np
import pytest

from mcsmooth import (
    KickSeries,
    MeasurementSpec,
    ModelNoise,
    NutritionSchedule,
    WeightSchedule,
    estimate,
    eval_total,
    initialize,
    reconstruct_trajectory,
    run_stage,
    subsample,
)
from mcsmooth.optimizer import STAGE1A_LAMBDAS, STAGE1B_LAMBDAS, STAGE2_LAMBDAS
from conftest import H1_TIMES, NOISY_SEEDS, icu_week, solve_stage2

TRUE_PERIOD_MIN = 139.8  # mean upward-crossing spacing of the constant-feed week


@pytest.fixture(scope="module")
def feed_switch():
    return icu_week(NutritionSchedule(((0.0, 7000.0, 80.0), (7000.0, 12081.0, 20.0))))


def h2(dense, seed):
    return subsample(dense, MeasurementSpec("h2", rng_seed=seed))


def rmse(dense, grid, values):
    return float(np.sqrt(np.mean((values - np.interp(grid, dense.times, dense.values)) ** 2)))


def rmse_pair(dense, obs, kicks=None):
    """RMSE of the reconstruction and of linear interpolation on the 1-min grid."""
    grid = np.arange(obs.times[0], obs.times[-1] + 0.5, 1.0)
    values, _ = reconstruct_trajectory(estimate(obs, kicks), grid)
    return rmse(dense, grid, values), rmse(dense, grid, np.interp(grid, obs.times, obs.values))


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
    state, _ = initialize(subsample(constant_feed, spec))
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


@pytest.fixture(scope="module")
def noisy_scores(constant_feed, noisy_h2):
    """``rmse_pair`` of the noisy and of the outlier record, by h2 seed."""
    return {s: (rmse_pair(constant_feed, noisy), rmse_pair(constant_feed, outliers))
            for s, (noisy, outliers, _) in noisy_h2.items()}


@pytest.mark.parametrize("seed", NOISY_SEEDS)
def test_noisy_h2_reconstruction_beats_linear_interpolation(noisy_scores, seed):
    recon, linear = noisy_scores[seed][0]
    assert recon < linear


def test_noisy_h2_mean_reconstruction_error(noisy_scores):
    # 7.4243 mg/dl with the default stopping rule. Stage 2 solved from the same
    # start (``solve_stage2``) gives 8.541: better on seeds 11 and 18 (7.97
    # against 8.12, and 8.03 against 8.36), worse on the other six. Those two
    # end unconverged at r -> 0, so their figures depend on how the solver
    # treats the polar singularity.
    assert np.mean([noisy[0] for noisy, _ in noisy_scores.values()]) <= 7.43


@pytest.mark.parametrize("seed", NOISY_SEEDS)
def test_outlier_h2_reconstruction_beats_linear_interpolation(noisy_scores, seed):
    recon, linear = noisy_scores[seed][1]
    assert recon < linear


def stage2_start(obs):
    """The state, tables and schedule with which ``estimate`` enters stage 2."""
    state, tables = initialize(obs)
    a_bar = state.noise.sigma
    state = replace(state, noise=ModelNoise(2.0 * a_bar))
    for lambdas in (STAGE1A_LAMBDAS, STAGE1B_LAMBDAS):
        state, _ = run_stage(state, tables, WeightSchedule(*lambdas), {"z"}, 200)
    return replace(state, noise=ModelNoise(a_bar)), tables, WeightSchedule(*STAGE2_LAMBDAS)


@pytest.mark.parametrize("seed, solved_rmse", [(11, 3.958), (12, 3.525), (13, 3.053)])
def test_solved_stage2_is_stationary_and_reproduces_its_rmse(constant_feed, seed, solved_rmse):
    # The reference for changes to the solver: stage 2 solved from estimate's own
    # start reaches a stationary point, the clean optimum of mean RMSE 3.480 over
    # seeds 11-18.
    obs = h2(constant_feed, seed)
    result = estimate(obs)
    start, tables, schedule = stage2_start(obs)
    assert eval_total(start, tables, schedule) == result.traces[-1].objective[0]
    solved = solve_stage2(start, tables, schedule)
    assert solved.grad_inf <= 1e-6
    assert solved.L >= result.traces[-1].objective[0] and solved.r_min > 0
    grid = np.arange(obs.times[0], obs.times[-1] + 0.5, 1.0)
    values, _ = reconstruct_trajectory(replace(result, state=solved.state), grid)
    assert abs(rmse(constant_feed, grid, values) - solved_rmse) <= 1e-3
