import math
import sys
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import lombscargle

from mcsmooth import (
    FrequencyEstimationError,
    HyperConfig,
    KernelTables,
    KickSeries,
    MeasurementSpec,
    ObservationSeries,
    WeightSchedule,
    build_tables,
    density_estimate,
    effective_gaps,
    estimate,
    eval_components,
    eval_L1,
    eval_L2,
    eval_total,
    gaussian_kernel,
    initialize,
    reconstruct_trajectory,
    resolve_time_scales,
    run_stage,
    subsample,
    time_products,
)
from mcsmooth.kernels import TILE_ELEMENTS, log_time_weight
from mcsmooth.objective import _grad_L2
from mcsmooth.optimizer import (
    PERIOD_BAND,
    TOLERANCE,
    _periodogram,
    _windowed_max,
    read_states_csv,
    write_densities_csv,
    write_reconstruction_csv,
    write_states_csv,
    write_trace_csv,
)
from mcsmooth.timeseries import read_columns
from conftest import (
    H1_TIMES,
    NOISY_SEEDS,
    TRUE_A,
    TRUE_B,
    TRUE_OMEGA,
    make_cycle_series,
    periodogram_allocating,
    read_objective_trace,
    reconstruct_loop,
    reconstruct_whole_grid,
    relative_error,
    tables_for,
    time_kernel,
    to_polar,
    windowed_max_all_pairs,
)


class TestInitialize:
    def test_states_start_at_data(self, cycle_series):
        state, tables = initialize(cycle_series)
        assert np.array_equal(state.x, cycle_series.values)
        assert np.all(state.z == 0.0)

    def test_scalar_initializations(self, cycle_series):
        y = cycle_series.values
        state, tables = initialize(cycle_series)
        assert state.priors.b_tilde == pytest.approx(y.mean())
        assert state.priors.sigma_b == pytest.approx(y.std())
        assert state.priors.sigma_a == state.priors.sigma_b
        assert state.priors.sigma_omega == state.priors.omega_tilde
        assert state.noise.sigma == pytest.approx(state.params.a.mean())

    def test_time_scales_from_frequency(self, cycle_series):
        state, tables = initialize(cycle_series)
        period = 2 * np.pi / state.priors.omega_tilde
        assert tables.T_s == pytest.approx(period, rel=1e-12)
        assert tables.T_l == pytest.approx(4 * period, rel=1e-12)

    @pytest.mark.parametrize("config", [HyperConfig(), HyperConfig(T_s=100.0),
                                        HyperConfig(T_l=900.0), HyperConfig(omega_tilde=0.05, T_s=50.0)])
    def test_returns_the_state_and_tables_of_the_resolved_time_scales(self, cycle_series, config):
        out = initialize(cycle_series, config=config)
        assert len(out) == 2
        state, tables = out
        assert (tables.T_s, tables.T_l) == resolve_time_scales(cycle_series, config)[1:]

    def test_frequency_recovery_on_clean_sine(self):
        P = 200.0
        t = (P / 20.0) * np.arange(200)  # 10 periods at P/20
        obs = ObservationSeries(t, np.sin(2 * np.pi * t / P))
        state, tables = initialize(obs)
        assert abs(state.priors.omega_tilde - 2 * np.pi / P) / (2 * np.pi / P) < 0.05

    def test_constant_data_cannot_estimate_frequency(self):
        t = 5.0 * np.arange(50)
        obs = ObservationSeries(t, np.full(50, 100.0))
        with pytest.raises(FrequencyEstimationError, match="constant to round-off"):
            initialize(obs)

    def test_roundoff_noise_is_signless(self):
        rng = np.random.default_rng(0)
        t = 5.0 * np.arange(50)
        obs = ObservationSeries(t, 100.0 + 1e-12 * rng.normal(size=50))
        with pytest.raises(FrequencyEstimationError):
            initialize(obs)

    @pytest.mark.parametrize("config", [HyperConfig(T_l=10.0), HyperConfig(T_s=1000.0),
                                        HyperConfig(omega_tilde=1e-6, T_l=100.0),
                                        HyperConfig(T_s=100.0, T_l=10.0)])
    def test_rejects_a_resolved_t_l_below_t_s(self, cycle_series, config):
        # Resolved here: T_s 140 min and T_l 560 min, or 2 pi / 1e-6 for T_s.
        with pytest.raises(ValueError, match="resolve_time_scales: T_l must be at least T_s"):
            initialize(cycle_series, config=config)

    def test_pinned_t_l_below_t_s_is_rejected_before_the_periodogram(self, cycle_series, monkeypatch):
        def no_periodogram(*args):
            raise AssertionError("periodogram run for a pinned pair")

        monkeypatch.setattr("mcsmooth.optimizer._periodogram", no_periodogram)
        with pytest.raises(ValueError, match="got T_s = 100 and T_l = 10 min"):
            resolve_time_scales(cycle_series, HyperConfig(T_s=100.0, T_l=10.0))

    def test_omega_override_skips_the_frequency_estimate(self):
        t = 5.0 * np.arange(50)
        rng = np.random.default_rng(1)
        obs = ObservationSeries(t, 100.0 + rng.normal(0, 1e-9, 50))
        state, tables = initialize(obs, config=HyperConfig(omega_tilde=0.05))
        assert np.all(state.params.omega == 0.05)
        assert tables.T_s == pytest.approx(2 * np.pi / 0.05)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 150),
           max_gap=st.floats(2.0, 90.0), amplitude=st.floats(0.0, 40.0))
    def test_deterministic_and_period_in_the_band(self, seed, n, max_gap, amplitude):
        obs = irregular_series(seed, n, max_gap, amplitude)
        (s1, w1), (s2, w2) = initialize(obs), initialize(obs)
        assert (w1.T_s, w1.T_l) == (w2.T_s, w2.T_l)
        assert s1.priors == s2.priors and s1.noise == s2.noise
        for u, v in ((s1.x, s2.x), (s1.z, s2.z), (s1.params.b, s2.params.b),
                     (s1.params.a, s2.params.a), (s1.params.omega, s2.params.omega),
                     (w1.inv_s, w2.inv_s), (w1.rho0, w2.rho0)):
            assert u.tobytes() == v.tobytes()
        assert w1.wky == w2.wky
        assert PERIOD_BAND[0] <= 2 * np.pi / s1.priors.omega_tilde <= PERIOD_BAND[1]
        assert np.all(s1.params.omega == s1.priors.omega_tilde)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 300), n_kicks=st.integers(0, 3))
    def test_tables_are_build_tables_of_a_fresh_time_kernel(self, seed, n, n_kicks):
        # The tables take the row sums of the kernel the regressions read, at the gaps' kick scale.
        obs = irregular_series(seed, n, 60.0, 20.0)
        rng = np.random.default_rng(seed)
        kt = np.unique(rng.uniform(obs.times[0], obs.times[-1], n_kicks))
        kicks = KickSeries(kt, rng.uniform(0.5, 3.0, kt.size))
        state, tables = initialize(obs, kicks)
        cfg = HyperConfig()
        assert (tables.T_s, tables.T_l) == resolve_time_scales(obs, cfg)[1:]
        alpha = kicks.alpha_kick(tables.T_s)
        gaps = effective_gaps(obs, kicks, alpha)
        S = time_products(obs.times, kicks, alpha, tables.T_l, np.column_stack((np.ones(n), obs.values)))[:, 0]
        want = build_tables(obs, kicks, alpha, S, tables.T_s, tables.T_l, cfg.epsilon)
        for field in ("t", "before", "inv_s", "rho0"):
            assert getattr(tables, field).tobytes() == getattr(want, field).tobytes()
        assert (tables.wky, tables.alpha) == (want.wky, alpha)
        # The regressions agree with the whole-array kernel.
        Kt = time_kernel(obs.times, kicks, alpha, tables.T_l)
        assert relative_error(tables.inv_s, 1.0 / (np.sqrt(2.0 * np.pi) * tables.T_l * Kt.sum(axis=1))) <= 1e-12
        b = Kt @ obs.values / Kt.sum(axis=1)
        assert relative_error(state.params.b, b) <= 1e-12
        # The tables own the data, its gaps at the kernel's kick scale, and epsilon.
        assert tables.y is obs.values
        assert tables.epsilon == cfg.epsilon
        for got, expected in zip(tables.gaps, gaps):
            assert got.tobytes() == expected.tobytes()

    def test_requires_four_observations(self):
        obs = ObservationSeries([0.0, 5.0, 10.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 4"):
            initialize(obs)

    def test_basic_state_switch(self, cycle_series):
        osc, _ = initialize(cycle_series)
        flat, _ = initialize(cycle_series, config=HyperConfig(a_tilde_zero=True))
        assert osc.priors.a_tilde > 0
        assert flat.priors.a_tilde == 0.0

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_peak_memory_below_two_and_a_half_pair_arrays(self, with_kicks):
        n = 600
        obs = make_cycle_series(n=n)
        kicks = None
        if with_kicks:
            kicks = KickSeries(obs.times[[50, 200, 201, 420]] + [0.0, 1.0, 0.0, 2.5],
                               [1.0, 2.0, 0.5, 3.0])
        initialize(make_cycle_series(n=40))  # a first call does the one-time imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            initialize(obs, kicks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_peak_memory_is_linear_in_n(self, with_kicks):
        # initialize, one L2 value and one L2 gradient hold no n x n array.
        def peak(n):
            obs = make_cycle_series(n=n)
            kicks = None
            if with_kicks:
                kicks = KickSeries(obs.times[[50, 200, 201, 420]] + [0.0, 1.0, 0.0, 2.5],
                                   [1.0, 2.0, 0.5, 3.0])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                state, tables = initialize(obs, kicks)
                eval_L2(state, tables)
                _grad_L2(state, tables)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        initialize(make_cycle_series(n=40))  # a first call does the one-time imports
        small, large = peak(1000), peak(2000)
        assert large <= 2.5 * small
        assert large < 0.1 * 2000 * 2000 * 8


def irregular_series(seed, n, max_gap, amplitude):
    """A sine of random period in the band plus noise, at random gaps of 1 to ``max_gap`` min."""
    rng = np.random.default_rng(seed)
    t = 1000.0 + np.cumsum(rng.uniform(1.0, max_gap, n))
    period = rng.uniform(*PERIOD_BAND)
    y = 100.0 + amplitude * np.sin(2 * np.pi * t / period) + rng.normal(0.0, 5.0, n)
    return ObservationSeries(t, y)


def ulps_from(x: float, k: int) -> float:
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


# n up to 400 spans up to 5 row tiles; a gap of 1e-3 min at 1e12 is about 8 ulps.
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), offset=st.sampled_from([0.0, -3e5, 1e12]),
       scale=st.sampled_from([1e-3, 1.0, 60.0]), regular=st.booleans(),
       kind=st.sampled_from(["span", "below", "gap", "inf"]), ulps=st.integers(-3, 3))
@example(seed=0, n=1, offset=0.0, scale=1.0, regular=True, kind="span", ulps=0)
@example(seed=1, n=2, offset=1e12, scale=1e-3, regular=True, kind="span", ulps=0)
@example(seed=2, n=2, offset=0.0, scale=60.0, regular=False, kind="below", ulps=0)
@example(seed=3, n=400, offset=0.0, scale=5.0, regular=True, kind="gap", ulps=1)
def test_windowed_max_matches_the_all_pairs_comparison(seed, n, offset, scale, regular, kind, ulps):
    rng = np.random.default_rng(seed)
    gaps = np.full(n - 1, scale) if regular else scale * rng.uniform(0.5, 1.5, n - 1)
    times = np.unique(offset + np.concatenate(([0.0], np.cumsum(gaps))))
    values = rng.normal(0.0, 10.0, times.size)
    diffs = np.abs(times[:, None] - times[None, :])
    if kind == "span":  # at least the span for ulps >= 0, just below it otherwise
        window = ulps_from(float(diffs[0, -1]), ulps)
    elif kind == "below":  # a positive window under every gap, so each row sees itself alone
        window = float(rng.uniform(0.0, 1.0)) * (float(np.diff(times).min()) if times.size > 1 else 1.0)
    elif kind == "gap":  # within a few ulps of the distance between two samples
        i, j = rng.choice(times.size, 2, replace=False) if times.size > 1 else (0, 0)
        window = ulps_from(float(diffs[i, j]), ulps)
    else:
        window = math.inf
    assume(window > 0)
    assert np.array_equal(_windowed_max(times, values, window), windowed_max_all_pairs(times, values, window))


class TestPeriodogramInPlace:
    """The periodogram's two tile arrays give the powers of its allocating form, bit for bit."""

    @staticmethod
    def powers(obs):
        t, r = obs.times, obs.values - obs.values.mean()
        return _periodogram(t, r), periodogram_allocating(t, r)

    def test_h1_schedule_of_the_icu_week(self, constant_feed):
        # Three alias peaks tie to about 7e-13 here; other roundings could change the pick.
        obs = subsample(constant_feed, MeasurementSpec("h1", explicit_times=H1_TIMES))
        (grid, power), (want_grid, want_power) = self.powers(obs)
        assert grid.tobytes() == want_grid.tobytes()
        assert power.tobytes() == want_power.tobytes()

    def test_h3_week_over_many_tiles(self, constant_feed):
        obs = subsample(constant_feed, MeasurementSpec("h3"))
        (grid, power), (_, want_power) = self.powers(obs)
        assert grid.size > 3 * (TILE_ELEMENTS // obs.n)
        assert power.tobytes() == want_power.tobytes()

    def test_holds_two_tile_arrays(self, constant_feed):
        obs = subsample(constant_feed, MeasurementSpec("h3"))
        t, r = obs.times, obs.values - obs.values.mean()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _periodogram(t, r)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * TILE_ELEMENTS * 8


class TestPeriodogram:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 700),
           max_gap=st.floats(2.0, 120.0), amplitude=st.floats(0.0, 40.0))
    @example(seed=0, n=4, max_gap=2.0, amplitude=10.0)  # one chunk
    @example(seed=1, n=700, max_gap=120.0, amplitude=10.0)  # many chunks, the last partial
    def test_matches_scipy_lombscargle(self, seed, n, max_gap, amplitude):
        obs = irregular_series(seed, n, max_gap, amplitude)
        t, r = obs.times, obs.values - obs.values.mean()
        grid, power = _periodogram(t, r)
        oracle = lombscargle(t, r, grid)
        assert np.argmax(power) == np.argmax(oracle)
        assert np.max(np.abs(power / power.max() - oracle / oracle.max())) <= 1e-10

    def test_grid_spans_the_band_in_fifths_of_the_resolution(self):
        t = np.cumsum(np.full(700, 120.0))
        grid, power = _periodogram(t, np.sin(0.05 * t))
        span = t[-1] - t[0]
        assert grid.size > TILE_ELEMENTS // t.size  # more than one chunk
        assert 2 * np.pi / grid[0] == pytest.approx(PERIOD_BAND[1], rel=1e-12)
        assert 2 * np.pi / grid[-1] > PERIOD_BAND[0]
        assert np.allclose(np.diff(grid), 2 * np.pi / (5 * span), rtol=1e-9)
        assert np.all(np.isfinite(power))

    def test_collinear_columns_fall_back_to_the_one_column_fit(self):
        # every 120 min: at periods of 80 and 240 min the sine column is zero
        # or a multiple of the cosine column on the samples
        t = 2000.0 + 120.0 * np.arange(84)
        r = np.random.default_rng(3).normal(size=84)
        with np.errstate(all="raise"):
            grid, power = _periodogram(t, r)
        for period in (80.0, 240.0):
            k = np.argmin(np.abs(2 * np.pi / grid - period))
            c, s = np.cos(grid[k] * t), np.sin(grid[k] * t)
            v = c if abs(c[0]) > abs(s[0]) else s
            assert power[k] == pytest.approx((v @ r) ** 2 / (v @ v), rel=1e-9)


class TestRunStage:
    def test_mask_is_airtight(self, cycle_series, quick_config):
        state, tables = initialize(cycle_series, config=quick_config)
        sched = WeightSchedule(lam3=1.0)
        out, trace = run_stage(state, tables, sched, {"z"}, 10)
        assert out.x is state.x
        assert out.params is state.params
        assert not np.array_equal(out.z, state.z)

    def test_vanishing_step_leaves_state_unchanged(self, cycle_series):
        from dataclasses import replace

        from mcsmooth import grad_total

        state, tables = initialize(cycle_series)
        state = replace(state, x=state.x + 3.0)  # move off the L1/L2 peak
        sched = WeightSchedule(lam1=1e-300, lam2=1e-300)  # every step vanishes next to x
        g = grad_total(state, tables, sched)
        assert np.any(g.d_x != 0.0)
        out, trace = run_stage(state, tables, sched, {"x"}, 1)
        assert np.array_equal(out.x, state.x)
        assert trace.objective[0] == trace.objective[-1]

    def test_objective_increases_in_stage_one(self, cycle_series, quick_config):
        state, tables = initialize(cycle_series, config=quick_config)
        from mcsmooth import ModelNoise
        from dataclasses import replace

        a_bar = float(state.params.a.mean())
        state = replace(state, noise=ModelNoise(2 * a_bar))
        sched = WeightSchedule(lam3=1.0)
        out, trace = run_stage(state, tables, sched, {"z"}, 30)
        assert trace.objective[-1] > trace.objective[0]
        assert np.all(np.diff(trace.objective) >= 0)

    def test_trace_rows_come_from_the_accepted_trials(self, cycle_series, quick_config):
        state, tables = initialize(cycle_series, config=quick_config)
        sched = WeightSchedule(lam1=1.0, lam2=1.0, lam3=1.0)
        out, trace = run_stage(state, tables, sched, {"z"}, 10)
        assert trace.iterations > 0
        # x never moves under mask {"z"}: L1 and L2 are the start state's
        L1 = eval_L1(state, tables)
        L2 = eval_L2(state, tables)
        assert all(c.L1 == L1 and c.L2 == L2 for c in trace.components)
        assert trace.components[-1] == eval_components(out, tables)
        for L, c in zip(trace.objective, trace.components):
            assert L == c.L1 + c.L2 + c.L3
        assert trace.objective[-1] == eval_total(out, tables, sched)

    def test_a_is_clipped_at_its_floor(self, cycle_series):
        from mcsmooth import ParamTrajectory, grad_total
        from mcsmooth.objective import long_decay

        # The last gap spans 20 T_l, so a's flex term pulls a[-1] to about a_tilde = 0.
        t = cycle_series.times.copy()
        t[-1] = t[-2] + 20 * 560.0
        obs = ObservationSeries(t, cycle_series.values)
        state, tables = initialize(obs, config=HyperConfig(T_s=140.0, T_l=560.0))
        d = long_decay(tables)
        a = np.empty(state.n)
        a[0] = 30.0
        for j in range(state.n - 2):  # the other residuals are exactly zero
            a[j + 1] = d[j] * a[j]
        a[-1] = 30.0
        sigma_a = math.sqrt(0.75 / ((1.0 - d[-1]) * state.n))  # the unit step overshoots 0 by a third
        state = replace(state, params=ParamTrajectory(state.params.b, a, state.params.omega),
                        priors=replace(state.priors, a_tilde=0.0, sigma_a=sigma_a))
        sched = WeightSchedule(lam_a=1.0)
        assert a[-1] + grad_total(state, tables, sched).d_a[-1] < 0.0
        out, trace = run_stage(state, tables, sched, {"params"}, 1)
        assert trace.iterations == 1
        assert out.params.a[-1] == 1e-6 * float(np.mean(a))
        assert np.all(out.params.a[:-1] > out.params.a[-1])

    def test_unknown_mask_rejected(self, cycle_series, quick_config):
        state, tables = initialize(cycle_series, config=quick_config)
        with pytest.raises(ValueError, match="unknown blocks"):
            run_stage(state, tables, WeightSchedule(lam3=1.0), {"q"}, 1)

    def test_stalls_when_no_step_improves(self, cycle_series):
        state, tables = initialize(cycle_series)
        state = replace(state, x=state.x + 3.0)  # nonzero gradient, huge steps only
        # 20 backtracks shrink the first step by 2^-20 at most: still about 2.5e20 mg/dl
        sched = WeightSchedule(lam1=1e30)
        out, trace = run_stage(state, tables, sched, {"x"}, 10)
        # A stall ends the stage and passes on the last accepted state, here the start.
        assert trace.stop_reason == "stall"
        assert len(trace.objective) == 1
        for got, want in ((out.x, state.x), (out.z, state.z), (out.params.b, state.params.b),
                          (out.params.a, state.params.a), (out.params.omega, state.params.omega)):
            assert got.tobytes() == want.tobytes()


class TestHyperConfig:
    def test_rejects_bad_time_scales(self, cycle_series):
        # resolve_time_scales owns the order of the scales, pinned or resolved.
        with pytest.raises(ValueError, match="T_l must be at least T_s"):
            resolve_time_scales(cycle_series, HyperConfig(T_s=100.0, T_l=50.0))
        with pytest.raises(ValueError, match="T_s"):
            HyperConfig(T_s=-1.0)
        with pytest.raises(ValueError, match="T_l must be positive"):
            HyperConfig(T_l=-5.0)
        with pytest.raises(ValueError, match="omega_tilde must be positive"):
            HyperConfig(omega_tilde=0.0)
        for name in ("T_s", "T_l", "omega_tilde"):
            with pytest.raises(ValueError, match=f"HyperConfig: {name} must be positive and finite"):
                HyperConfig(**{name: math.inf})

    def test_a_real_beyond_the_float_range_is_rejected_but_a_big_cap_is_not(self):
        # JSON reads an integer of any size; a real must fit a float, an iteration cap need not.
        with pytest.raises(ValueError, match="HyperConfig: T_s must be positive and finite"):
            HyperConfig(T_s=10**400)
        assert HyperConfig(dashed_gap_threshold=int(sys.float_info.max)).dashed_gap_threshold == sys.float_info.max
        assert HyperConfig(max_iter_stage2=10**400).max_iter_stage2 == 10**400

    def test_rejects_bad_caps_and_eta(self):
        with pytest.raises(ValueError, match="caps"):
            HyperConfig(max_iter_stage2=0)

    def test_accepts_numpy_numbers_and_stores_weights_as_float_tuples(self):
        cfg = HyperConfig(max_iter_stage2=np.int64(5), epsilon=np.float64(0.2), weights_stage2=[1] * 7)
        assert cfg.weights_stage2 == (1.0,) * 7
        assert all(type(v) is float for v in cfg.weights_stage2)

    def test_rejects_epsilon_out_of_range(self):
        with pytest.raises(ValueError, match="HyperConfig: epsilon"):
            HyperConfig(epsilon=1.0)
        with pytest.raises(ValueError, match="HyperConfig: epsilon"):
            HyperConfig(epsilon=-0.1)

    def test_dashed_threshold_rejects_nan_and_keeps_infinities(self):
        with pytest.raises(ValueError, match="HyperConfig: dashed_gap_threshold must be a number"):
            HyperConfig(dashed_gap_threshold=math.nan)
        for threshold in (math.inf, -math.inf):
            assert HyperConfig(dashed_gap_threshold=threshold).dashed_gap_threshold == threshold

    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0,) * 8, (-1.0,) + (1.0,) * 6,
                                         (float("nan"),) + (1.0,) * 6, (float("inf"),) * 7])
    def test_rejects_bad_stage_weights(self, weights):
        with pytest.raises(ValueError, match="HyperConfig: weights_stage2 must hold 7"):
            HyperConfig(weights_stage2=weights)


class TestEstimate:
    def test_deterministic(self, quick_config):
        obs = make_cycle_series(n=80)
        r1 = estimate(obs, config=quick_config)
        r2 = estimate(obs, config=quick_config)
        assert np.array_equal(r1.state.x, r2.state.x)
        assert np.array_equal(r1.state.z, r2.state.z)
        assert np.array_equal(r1.state.params.omega, r2.state.params.omega)
        assert r1.traces[-1].objective == r2.traces[-1].objective

    def test_config_is_the_config_as_given(self, quick_config):
        obs = make_cycle_series(n=40)
        res = estimate(obs, config=quick_config)
        assert res.config is quick_config
        assert (res.tables.T_s, res.tables.T_l) == resolve_time_scales(obs, quick_config)[1:]

    def test_monotone_traces(self, quick_config):
        obs = make_cycle_series(n=80)
        res = estimate(obs, config=quick_config)
        assert [t.name for t in res.traces] == ["stage1a", "stage1b", "stage2"]
        for trace in res.traces:
            assert np.all(np.diff(trace.objective) >= 0)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_result_components_are_the_last_trace_row(self, quick_config, with_kicks):
        obs = make_cycle_series(n=80)
        kicks = None
        if with_kicks:
            kicks = KickSeries([obs.times[20] + 2.0, obs.times[50] + 2.0], [1.0, 3.0])
        res = estimate(obs, kicks, config=quick_config)
        final = eval_components(res.state, res.tables)
        assert res.components == res.traces[-1].components[-1] == final

    def test_stage_noise_protocol(self, quick_config):
        obs = make_cycle_series(n=80)
        res = estimate(obs, config=quick_config)
        # stage 2 resets sigma to the initialization amplitude mean
        state0, _ = initialize(obs, config=quick_config)
        assert res.state.noise.sigma == pytest.approx(state0.params.a.mean())

    def test_stationary_point_of_pure_L1(self):
        obs = make_cycle_series(n=60)
        one_hot = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        cfg = HyperConfig(epsilon=0.0, weights_stage2=one_hot,
                          max_iter_stage1a=5, max_iter_stage1b=5, max_iter_stage2=20)
        res = estimate(obs, config=cfg)
        assert np.array_equal(res.state.x, obs.values)

    def test_recovers_truth_parameters(self, quick_config):
        obs = make_cycle_series()
        res = estimate(obs, config=quick_config)
        p = res.state.params
        assert abs(p.b.mean() - TRUE_B) / TRUE_B < 0.05
        assert abs(p.a.mean() - TRUE_A) / TRUE_A < 0.20
        assert abs(p.omega.mean() - TRUE_OMEGA) / TRUE_OMEGA < 0.10

    def test_non_oscillatory_basic_state(self):
        obs = make_cycle_series(n=80)
        cfg = HyperConfig(a_tilde_zero=True, max_iter_stage1a=20,
                          max_iter_stage1b=20, max_iter_stage2=60)
        res = estimate(obs, config=cfg)
        assert res.state.priors.a_tilde == 0.0
        # amplitude floor keeps the trajectory valid even as it decays
        assert np.all(res.state.params.a > 0)
        for trace in res.traces:
            assert np.all(np.diff(trace.objective) >= 0)

    def test_kicks_flow_through(self, quick_config):
        obs = make_cycle_series(n=80)
        kicks = KickSeries([obs.times[20] + 2.0, obs.times[50] + 2.0], [1.0, 3.0])
        res = estimate(obs, kicks, config=quick_config)
        assert res.kicks is kicks
        # alpha_kick resolved from the estimated short time scale
        alpha = kicks.alpha_kick(res.tables.T_s)
        assert alpha == pytest.approx(res.tables.T_s / 2.0)
        assert res.tables.alpha == alpha
        inflated = res.tables.gaps.dt_relax - res.tables.gaps.dt_phase
        assert inflated[20] == pytest.approx(alpha * 1.0)  # transitions 20 -> 21 and 50 -> 51
        assert inflated[50] == pytest.approx(alpha * 3.0)
        assert np.count_nonzero(inflated) == 2
        for trace in res.traces:
            assert np.all(np.diff(trace.objective) >= 0)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_l2_walks_the_blocks_only_off_the_data(self, quick_config, monkeypatch, with_kicks):
        # Every estimate starts at x = y, and stages 1a and 1b keep it there.
        # There L2 and its gradient return without a block pass: each stage's
        # start row and stage 2's first gradient.
        obs = make_cycle_series(n=80)
        kicks = KickSeries([obs.times[20] + 2.0], [1.5]) if with_kicks else None
        passes, at_data, off_data = [], [], []
        real_blocks = KernelTables.blocks

        def counted_blocks(self):
            passes.append(self)
            return real_blocks(self)

        def spy(f):
            def counted(state, tables):
                (at_data if np.array_equal(state.x, tables.y) else off_data).append(f)
                return f(state, tables)
            return counted

        monkeypatch.setattr(KernelTables, "blocks", counted_blocks)
        monkeypatch.setattr("mcsmooth.objective.eval_L2", spy(eval_L2))
        monkeypatch.setattr("mcsmooth.objective._grad_L2", spy(_grad_L2))
        estimate(obs, kicks, config=quick_config)
        assert at_data == [eval_L2, eval_L2, eval_L2, _grad_L2]
        assert len(passes) == len(off_data) > 0


def estimate_bytes(res):
    """The bytes of an estimate's state, gaps and trace rows."""
    s = res.state
    arrays = [s.x, s.z, s.params.b, s.params.a, s.params.omega, res.tables.gaps.dt_relax]
    for trace in res.traces:
        arrays += [np.array(trace.objective), np.array(trace.components)]
    return [a.tobytes() for a in arrays]


KICK_PROPERTY_CONFIG = HyperConfig(max_iter_stage1a=5, max_iter_stage1b=5, max_iter_stage2=10)


class TestStopReasons:
    """Each stage of an estimate on the ICU week says why it stopped, and its trace agrees."""

    @staticmethod
    def assert_agrees_with_its_trace(trace, cap):
        # A gain below the bound ends the stage, so only the last one may fall below it.
        L = trace.objective
        below = [abs(L[k + 1] - L[k]) < TOLERANCE * (1.0 + abs(L[k + 1])) for k in range(len(L) - 1)]
        assert not any(below[:-1])
        assert below[-1] == (trace.stop_reason == "tolerance")
        assert len(L) == cap + 1 if trace.stop_reason == "cap" else len(L) <= cap + 1

    @pytest.mark.parametrize("seed", NOISY_SEEDS)
    def test_h2_seeds(self, constant_feed, seed):
        cfg = HyperConfig()
        res = estimate(subsample(constant_feed, MeasurementSpec("h2", rng_seed=seed)), config=cfg)
        stage1a = "cap" if seed in (13, 15) else "tolerance"
        assert [t.stop_reason for t in res.traces] == [stage1a, "tolerance", "tolerance"]
        for trace, cap in zip(res.traces, (cfg.max_iter_stage1a, cfg.max_iter_stage1b, cfg.max_iter_stage2)):
            self.assert_agrees_with_its_trace(trace, cap)

    def test_h3_at_reduced_caps(self, constant_feed):
        caps = (20, 20, 40)
        cfg = HyperConfig(max_iter_stage1a=caps[0], max_iter_stage1b=caps[1], max_iter_stage2=caps[2])
        res = estimate(subsample(constant_feed, MeasurementSpec("h3", period=5.0)), config=cfg)
        assert [(t.stop_reason, t.iterations) for t in res.traces] == [
            ("tolerance", 12), ("cap", 20), ("tolerance", 1)]
        for trace, cap in zip(res.traces, caps):
            self.assert_agrees_with_its_trace(trace, cap)


class TestKickProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(8, 40),
           kicks=st.dictionaries(st.floats(0.0, 1.0), st.floats(0.1, 5.0), max_size=3))
    def test_estimate_is_deterministic(self, seed, n, kicks):
        obs = irregular_series(seed, n, 60.0, 20.0)
        t0, t1 = obs.span
        # kick times as fractions of the span; two that round together merge
        placed = dict(sorted((t0 + u * (t1 - t0), c) for u, c in kicks.items()))
        series = KickSeries(list(placed), list(placed.values()))
        r1 = estimate(obs, series, KICK_PROPERTY_CONFIG)
        r2 = estimate(obs, series, KICK_PROPERTY_CONFIG)
        assert estimate_bytes(r1) == estimate_bytes(r2)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(8, 40), data=st.data())
    def test_kick_at_a_sample_time_acts_as_one_just_after_it(self, seed, n, data):
        # Every coupling counts a kick in [lo, hi): one at t_i and one anywhere in
        # (t_i, t_{i+1}) separate the same pairs of samples.
        obs = irregular_series(seed, n, 60.0, 20.0)
        t = obs.times
        at = sorted(data.draw(st.sets(st.integers(0, n - 2), min_size=1, max_size=3)))
        inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        moved = [t[i] + data.draw(inside) * (t[i + 1] - t[i]) for i in at]
        assume(all(t[i] < m < t[i + 1] for i, m in zip(at, moved)))
        intensities = data.draw(st.lists(st.floats(0.1, 5.0), min_size=len(at), max_size=len(at)))
        on, off = KickSeries(t[at], intensities), KickSeries(moved, intensities)
        alpha = on.alpha_kick(100.0)
        every = slice(None)
        for of in (lambda k: effective_gaps(obs, k, alpha).dt_relax,
                   lambda k: log_time_weight(t, k.intensity_before(t), alpha, 400.0, every, every)):
            assert of(on).tobytes() == of(off).tobytes()
        assert estimate_bytes(estimate(obs, on, KICK_PROPERTY_CONFIG)) == \
            estimate_bytes(estimate(obs, off, KICK_PROPERTY_CONFIG))


def with_kicks(res, kicks):
    """An estimate's result with other kicks, and the tables' kick scale to match."""
    return replace(res, kicks=kicks, tables=replace(res.tables, alpha=kicks.alpha_kick(res.tables.T_s)))


class TestReconstruct:
    def result(self, threshold=1e9):
        obs = make_cycle_series(n=60)
        cfg = HyperConfig(max_iter_stage1a=10, max_iter_stage1b=10, max_iter_stage2=20,
                          dashed_gap_threshold=threshold)
        return estimate(obs, config=cfg)

    def test_observation_times_exact(self):
        res = self.result()
        values, dashed = reconstruct_trajectory(res, res.obs.times)
        assert np.array_equal(values, res.state.x)
        assert not dashed.any()

    def test_long_gaps_flagged(self):
        res = self.result(threshold=1.0)  # every 5-min gap is "long"
        grid = res.obs.times[0] + np.array([2.5, 5.0, 7.5])
        values, dashed = reconstruct_trajectory(res, grid)
        assert dashed.tolist() == [True, False, True]

    def test_matches_closed_form_inside_gap(self):
        res = self.result()
        st = res.state
        j = 10
        t0 = res.obs.times[j]
        tau = 2.0
        pol = to_polar(st.x[j], st.z[j], st.params.b[j])
        ds = math.exp(-tau / res.tables.T_s)
        r_t = (1 - ds) * st.params.a[j + 1] + ds * pol.r
        want = st.params.b[j + 1] + r_t * math.cos(pol.theta + st.params.omega[j] * tau)
        got, _ = reconstruct_trajectory(res, [t0 + tau])
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_kick_scale_worked_out_once_per_estimate(self, monkeypatch):
        # reconstruct_trajectory reads the kick scale from the tables.
        real = KickSeries.alpha_kick
        calls = []

        def counted(self, T_s):
            calls.append(T_s)
            return real(self, T_s)

        monkeypatch.setattr(KickSeries, "alpha_kick", counted)
        obs = make_cycle_series(n=60)
        kicks = KickSeries([obs.times[20] + 2.0], [1.5])
        cfg = HyperConfig(max_iter_stage1a=2, max_iter_stage1b=2, max_iter_stage2=2)
        res = estimate(obs, kicks, config=cfg)
        reconstruct_trajectory(res, np.arange(obs.times[0], obs.times[-1], 1.0))
        assert calls == [res.tables.T_s]

    def test_grid_outside_span_rejected(self):
        res = self.result()
        t0 = res.obs.times[0]
        for grid in ([res.obs.times[-1] + 1.0], [math.nan], [t0, math.nan]):
            with pytest.raises(ValueError, match="outside the observation span"):
                reconstruct_trajectory(res, grid)

    def test_kick_relaxes_the_following_gap_only(self):
        # The gap convention of effective_gaps: a kick at t_j inflates dt_relax
        # inside (t_j, t_{j+1}), and leaves the gap ending at t_j alone.
        res = self.result()
        state, t, T_s = res.state, res.obs.times, res.tables.T_s
        j, tau = 10, 2.0
        kicked = with_kicks(res, KickSeries([t[j]], [2.0]))
        before = [t[j - 1] + tau]
        assert reconstruct_trajectory(kicked, before)[0] == reconstruct_trajectory(res, before)[0]
        pol = to_polar(state.x[j], state.z[j], state.params.b[j])
        ds = math.exp(-(tau + T_s) / T_s)  # one typical kick adds one T_s
        r_t = (1 - ds) * state.params.a[j + 1] + ds * pol.r
        want = state.params.b[j + 1] + r_t * math.cos(pol.theta + state.params.omega[j] * tau)
        got, _ = reconstruct_trajectory(kicked, [t[j] + tau])
        assert got[0] == pytest.approx(want, rel=1e-12)
        assert got[0] != reconstruct_trajectory(res, [t[j] + tau])[0][0]


@cache
def irregular_result():
    """An estimate over irregular 3-9 min gaps; gaps longer than the median are
    dashed, and the median gap itself is not."""
    rng = np.random.default_rng(8)
    t = np.cumsum(rng.uniform(3.0, 9.0, 50))
    y = TRUE_B + TRUE_A * np.cos(TRUE_OMEGA * t) + rng.normal(0.0, 3.0, t.size)
    cfg = HyperConfig(max_iter_stage1a=10, max_iter_stage1b=10, max_iter_stage2=20,
                      dashed_gap_threshold=float(np.median(np.diff(t))))
    return estimate(ObservationSeries(t, y), config=cfg)


@st.composite
def grids_and_kicks(draw):
    """A grid inside the span, with observation times among its points, and kicks
    that may sit exactly at observation times."""
    t = irregular_result().obs.times.tolist()
    anywhere = st.floats(t[0], t[-1], allow_nan=False)
    at_obs = st.sampled_from(t)
    grid = draw(st.lists(st.one_of(anywhere, at_obs), max_size=60))
    kick_times = sorted(draw(st.sets(st.one_of(anywhere, at_obs), max_size=6)))
    intensities = draw(st.lists(st.floats(0.1, 5.0), min_size=len(kick_times),
                                max_size=len(kick_times)))
    return np.array(grid), kick_times, intensities


@settings(max_examples=60, deadline=None)
@given(grids_and_kicks())
def test_reconstruction_matches_the_loop_oracle(case):
    grid, kick_times, intensities = case
    res = irregular_result()
    if kick_times:
        res = with_kicks(res, KickSeries(kick_times, intensities))
    values, dashed = reconstruct_trajectory(res, grid)
    want, want_dashed = reconstruct_loop(res, grid)
    np.testing.assert_allclose(values, want, rtol=1e-15, atol=0)
    assert np.array_equal(dashed, want_dashed)
    at_obs = np.isin(grid, res.obs.times)
    assert np.array_equal(values[at_obs], want[at_obs])


class TestReconstructInTiles:
    @staticmethod
    def grid(res, points):
        """``points`` evenly spaced times over the span, then every observation time."""
        t = res.obs.times
        return np.concatenate((np.linspace(t[0], t[-1], points), t))

    @pytest.mark.parametrize("kicked", [False, True])
    def test_has_the_bits_of_the_whole_grid_form(self, kicked):
        res = irregular_result()
        if kicked:
            t = res.obs.times
            res = with_kicks(res, KickSeries([t[3], 0.5 * (t[20] + t[21]), t[40]], [1.5, 0.5, 1.0]))
        grid = self.grid(res, 3 * 1638 + 100)  # four tiles, the last partial
        values, dashed = reconstruct_trajectory(res, grid)
        want, want_dashed = reconstruct_whole_grid(res, grid)
        assert values.tobytes() == want.tobytes()
        assert dashed.tobytes() == want_dashed.tobytes()
        assert dashed.any() and not dashed.all()

    def test_no_temporary_spans_the_grid(self):
        res = irregular_result()
        grid = self.grid(res, 20000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reconstruct_trajectory(res, grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the values and flags themselves, then the temporaries of one tile
        assert peak < grid.size * 9 + 1.5 * TILE_ELEMENTS * 8


class TestDensityEstimate:
    def test_single_datum_peak(self):
        obs = make_cycle_series(n=30)
        tables = tables_for(obs, KickSeries.empty(), 0.0, 140.0, 560.0)
        rho = density_estimate([100.0], [50.0], tables.h, tables.T_l, at_time=50.0, grid=[100.0])
        assert rho[0] == pytest.approx(1.0 / (np.sqrt(2 * np.pi) * tables.h), rel=1e-12)

    def test_normalization_by_quadrature(self):
        obs = make_cycle_series(n=30)
        tables = tables_for(obs, KickSeries.empty(), 0.0, 140.0, 560.0)
        grid = np.linspace(obs.values.min() - 6 * tables.h, obs.values.max() + 6 * tables.h, 2001)
        rho = density_estimate(obs.values, obs.times, tables.h, tables.T_l, at_time=70.0, grid=grid)
        integral = float(np.sum(0.5 * (rho[1:] + rho[:-1]) * np.diff(grid)))
        assert integral == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("T_l", [0.0, -560.0])
    def test_nonpositive_time_bandwidth_rejected(self, T_l):
        with pytest.raises(ValueError, match="T_l must be positive"):
            density_estimate([100.0], [50.0], 1.0, T_l, at_time=50.0, grid=[100.0])

    @pytest.mark.parametrize("at_time", [math.nan, math.inf, -math.inf])
    def test_nonfinite_time_rejected(self, at_time):
        with pytest.raises(ValueError, match="density_estimate: at_time must be finite"):
            density_estimate([100.0], [50.0], 1.0, 560.0, at_time=at_time, grid=[100.0])

    def test_identical_inputs_identical_densities(self):
        obs = make_cycle_series(n=30)
        tables = tables_for(obs, KickSeries.empty(), 0.0, 140.0, 560.0)
        grid = np.linspace(80, 200, 101)
        rx = density_estimate(obs.values, obs.times, tables.h, tables.T_l, 70.0, grid)
        ry = density_estimate(obs.values.copy(), obs.times, tables.h, tables.T_l, 70.0, grid)
        assert np.array_equal(rx, ry)

    @staticmethod
    def one_matrix_oracle(values, times, h, T_l, at_time, grid):
        # The whole grid x n kernel matrix at once, with the same time weights.
        d = at_time - times
        wt = np.exp(-(d * d) / (2.0 * T_l ** 2))
        s = wt.sum()
        wt = np.full(times.size, 1.0 / times.size) if s == 0.0 else wt / s
        return gaussian_kernel(values[None, :], grid[:, None], h) @ wt

    @staticmethod
    def random_case(n, zero_weight_sum):
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.uniform(1.0, 9.0, n))
        values = rng.normal(150.0, 20.0, n)
        # Far outside the record, every time weight underflows and the weights fall back to 1/n.
        at_time = times[-1] + 1e6 if zero_weight_sum else times[n // 2]
        return values, times, 3.0, 400.0, at_time, np.linspace(80.0, 220.0, 201)

    @pytest.mark.parametrize("zero_weight_sum", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 50, 163])
    def test_one_tile_gives_the_bits_of_the_one_matrix_product(self, n, zero_weight_sum):
        case = self.random_case(n, zero_weight_sum)
        assert np.array_equal(density_estimate(*case), self.one_matrix_oracle(*case))

    @pytest.mark.parametrize("zero_weight_sum", [False, True])
    @pytest.mark.parametrize("n", [164, 500, 2017, 3000, 10081])
    def test_several_tiles_match_the_one_matrix_product(self, n, zero_weight_sum):
        case = self.random_case(n, zero_weight_sum)
        assert relative_error(density_estimate(*case), self.one_matrix_oracle(*case)) <= 1e-12

    def test_peak_memory_at_a_week_every_minute(self):
        # The one-matrix product holds two 201 x 10081 arrays, about 32 MB.
        case = self.random_case(10081, False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            density_estimate(*case)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCsvFormats:
    def test_states_roundtrip(self, tmp_path, quick_config):
        res = estimate(make_cycle_series(n=40), config=quick_config)
        p = tmp_path / "states.csv"
        write_states_csv(res, p)
        back = read_states_csv(p)
        assert np.array_equal(back["t"], res.obs.times)
        assert np.array_equal(back["x"], res.state.x)
        assert np.array_equal(back["omega"], res.state.params.omega)

    @pytest.mark.parametrize("column", range(6))
    def test_states_non_finite_entry_rejected(self, tmp_path, column):
        rows = [[10.0 * k, 1.0, 2.0, 3.0, 4.0, 5.0] for k in range(3)]
        rows[1][column] = float("nan")
        p = tmp_path / "states.csv"
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8")
        with pytest.raises(ValueError, match="read_states: non-finite entry"):
            read_states_csv(p)

    def test_reconstruction_roundtrip(self, tmp_path, quick_config):
        res = estimate(make_cycle_series(n=40), config=quick_config)
        grid = np.arange(res.obs.times[0], res.obs.times[-1], 2.5)
        values, dashed = reconstruct_trajectory(res, grid)
        p = tmp_path / "recon.csv"
        write_reconstruction_csv(grid, values, dashed, p)
        back_t, back_values, back_dashed = read_columns(p, 3, "reconstruction")
        assert np.array_equal(back_t, grid)
        assert np.array_equal(back_values, values)
        assert np.array_equal(back_dashed, dashed)

    def test_densities_roundtrip(self, tmp_path, quick_config):
        res = estimate(make_cycle_series(n=40), config=quick_config)
        grid = np.linspace(100, 180, 11)
        rx = density_estimate(res.state.x, res.obs.times, res.tables.h, res.tables.T_l, 100.0, grid)
        ry = density_estimate(res.obs.values, res.obs.times, res.tables.h, res.tables.T_l, 100.0, grid)
        p = tmp_path / "dens.csv"
        write_densities_csv(grid, rx, ry, p)
        _, back_x, back_y = read_columns(p, 3, "densities")
        assert np.array_equal(back_x, rx)
        assert np.array_equal(back_y, ry)

    def test_writers_format_each_value_with_repr(self, tmp_path, quick_config):
        res = estimate(make_cycle_series(n=40), config=quick_config)
        grid = np.arange(int(res.obs.times[0]), int(res.obs.times[-1]))  # integer times
        values, dashed = reconstruct_trajectory(res, grid)
        values[:4] = [-0.0, 1e-300, 5e-324, 1.0 / 3.0]

        def lines(*cols):
            return "".join(",".join(row) + "\n" for row in zip(*cols))

        def reprs(a):
            return [repr(float(v)) for v in a]

        p = tmp_path / "recon.csv"
        write_reconstruction_csv(grid, values, dashed, p)
        assert p.read_text() == lines(reprs(grid), reprs(values), [str(int(d)) for d in dashed])
        s, q = res.state, res.state.params
        write_states_csv(res, p)
        assert p.read_text() == lines(*map(reprs, (res.obs.times, s.x, s.z, q.b, q.a, q.omega)))
        write_densities_csv(grid[:5], values[:5], values[5:10], p)
        assert p.read_text() == lines(reprs(grid[:5]), reprs(values[:5]), reprs(values[5:10]))

    def test_trace_roundtrip(self, tmp_path, quick_config):
        res = estimate(make_cycle_series(n=40), config=quick_config)
        p = tmp_path / "trace.csv"
        write_trace_csv(res.traces, p)
        back = read_objective_trace(p)
        total_rows = sum(len(t.objective) for t in res.traces)
        assert back["values"].shape == (total_rows, 8)
        assert set(back["stage"]) == {"stage1a", "stage1b", "stage2"}
        for trace in res.traces:
            rows = np.count_nonzero(back["stage"] == trace.name)
            assert trace.iterations == len(trace.objective) - 1 == rows - 1


def test_initialize_rejects_a_zero_mean_amplitude():
    # Samples 1000 min apart under T_l = 1 min: every off-diagonal time weight underflows
    # to 0, so the local mean b is y itself and no sample sits off it.
    obs = ObservationSeries(1000.0 * np.arange(6), [100.0, 130.0, 90.0, 120.0, 95.0, 125.0])
    with pytest.raises(ValueError, match="initialize: zero mean amplitude; data carry no oscillation"):
        initialize(obs, config=HyperConfig(T_s=1.0, T_l=1.0, omega_tilde=0.05))
