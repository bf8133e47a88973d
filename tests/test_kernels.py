import numpy as np
import pytest

from mcsmooth import (
    KickSeries,
    ObservationSeries,
    bandwidth_rule_of_thumb,
    build_tables,
    effective_gaps,
    gaussian_kernel,
    time_kernel,
)
from conftest import tables_for

SQRT_2PI = np.sqrt(2.0 * np.pi)


class TestBandwidth:
    def test_unit_sigma_n32(self):
        y = np.tile([1.0, -1.0], 16)  # population sigma exactly 1, n = 32
        assert bandwidth_rule_of_thumb(y) == pytest.approx(0.5, abs=1e-15)

    def test_two_points(self):
        assert bandwidth_rule_of_thumb([0.0, 2.0]) == pytest.approx(2.0 ** -0.2, rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            bandwidth_rule_of_thumb([3.0, 3.0, 3.0])


class TestGaussianKernel:
    def test_peak(self):
        assert gaussian_kernel(0.0, 0.0, 1.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)

    def test_symmetric(self):
        assert gaussian_kernel(1.3, -0.4, 2.0) == gaussian_kernel(-0.4, 1.3, 2.0)

    def test_three_sigma(self):
        assert gaussian_kernel(0.0, 3.0, 1.0) == pytest.approx(np.exp(-4.5) / SQRT_2PI, rel=1e-14)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            gaussian_kernel(0.0, 1.0, 0.0)


def decays(obs, kicks, alpha, T_s, T_l):
    """Per-gap decays exp(-dt_relax/T_s) and exp(-dt_relax/T_l), as the objective forms them."""
    dt_relax = effective_gaps(obs, kicks, alpha).dt_relax
    return np.exp(-dt_relax / T_s), np.exp(-dt_relax / T_l)


def series(seed=0, n=12):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(5, 60, n))
    return ObservationSeries(t - t[0], rng.normal(120, 15, n))


class TestBuildTables:
    def test_no_kicks_matches_plain_distances(self):
        obs = series()
        t = obs.times
        plain = gaussian_kernel(t[:, None], t[None, :], 400.0)
        assert np.array_equal(time_kernel(t, KickSeries.empty(), 0.0, 400.0), plain)

    def test_row_mean_consistency(self):
        obs = series(3)
        tab = tables_for(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        y = obs.values
        Ky = gaussian_kernel(y[:, None], y[None, :], tab.h)
        Kt = time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0)
        assert np.allclose(Ky.sum(axis=1) / obs.n, tab.rho0, rtol=0, atol=1e-15)
        s = Kt.sum(axis=1)
        assert np.allclose(tab.W, Kt / s[None, :] + Kt / s[:, None], rtol=1e-14, atol=0)

    def test_tables_symmetric_positive(self):
        obs = series(5)
        tab = tables_for(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        y = obs.values
        Ky = gaussian_kernel(y[:, None], y[None, :], tab.h)
        Kt = time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0)
        for m in (Ky, Kt, tab.W):
            assert np.array_equal(m, m.T)
            assert np.all(m > 0)
        assert np.all(tab.rho0 > 0)

    def test_decay_factor_at_one_timescale(self):
        obs = ObservationSeries([0.0, 100.0], [0.0, 1.0])
        ds, dl = decays(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        assert ds[1] == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert ds[0] == 1.0 and dl[0] == 1.0

    def test_ds_below_dl_when_scales_ordered(self):
        obs = series(7)
        ds, dl = decays(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        assert np.all(ds[1:] <= dl[1:])
        assert np.all((ds[1:] > 0) & (ds[1:] < 1))

    def test_kick_of_typical_intensity_scales_ds_by_inv_e(self):
        obs = ObservationSeries([0.0, 50.0, 150.0], [10.0, 20.0, 15.0])
        T_s = 100.0
        kicks = KickSeries([75.0], [2.0])
        ds0, _ = decays(obs, KickSeries.empty(), 0.0, T_s, 400.0)
        ds1, _ = decays(obs, kicks, kicks.alpha_kick(T_s), T_s, 400.0)
        assert ds1[2] == pytest.approx(ds0[2] * np.exp(-1.0), rel=1e-12)
        assert ds1[1] == ds0[1]

    def test_kicks_never_increase_time_couplings(self):
        obs = series(11)
        rng = np.random.default_rng(1)
        kt = np.sort(rng.uniform(obs.times[0] + 1, obs.times[-1] - 1, 4))
        kicks = KickSeries(kt, rng.uniform(0.1, 3.0, 4))
        Kt0 = time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0)
        Kt1 = time_kernel(obs.times, kicks, 30.0, 400.0)
        assert np.all(Kt1 <= Kt0)
        ds0, dl0 = decays(obs, KickSeries.empty(), 0.0, 100.0, 400.0)
        ds1, dl1 = decays(obs, kicks, 30.0, 100.0, 400.0)
        assert np.all(ds1 <= ds0) and np.all(dl1 <= dl0)

    def test_removing_kicks_restores_plain_tables(self):
        obs = series(13)
        kicks = KickSeries([obs.times[3] + 0.5], [1.0])
        with_k = time_kernel(obs.times, kicks, 25.0, 400.0)
        without = time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0)
        W_without = tables_for(obs, KickSeries.empty(), 0.0, 100.0, 400.0).W
        assert not np.array_equal(with_k, without)
        ds_without, _ = decays(obs, KickSeries.empty(), 0.0, 100.0, 400.0)
        assert not np.array_equal(decays(obs, kicks, 25.0, 100.0, 400.0)[0], ds_without)
        assert np.array_equal(time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0), without)
        assert np.array_equal(tables_for(obs, KickSeries.empty(), 0.0, 100.0, 400.0).W, W_without)
        assert np.array_equal(decays(obs, KickSeries.empty(), 0.0, 100.0, 400.0)[0], ds_without)

    def test_time_kernel_becomes_W_in_place(self):
        obs = series(19)
        Kt = time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0)
        gaps = effective_gaps(obs, KickSeries.empty(), 0.0)
        assert build_tables(obs, Kt, gaps, 100.0, 400.0, 0.1).W is Kt

    @pytest.mark.parametrize("shape", [(12, 13), (13, 12), (12,)])
    def test_time_kernel_of_another_shape_rejected(self, shape):
        obs = series(19)
        gaps = effective_gaps(obs, KickSeries.empty(), 0.0)
        with pytest.raises(ValueError, match="build_tables: time kernel has shape"):
            build_tables(obs, np.ones(shape), gaps, 100.0, 400.0, 0.1)

    @pytest.mark.parametrize("n", [11, 13])
    def test_gaps_of_another_length_rejected(self, n):
        obs = series(19)
        gaps = effective_gaps(series(19, n=n), KickSeries.empty(), 0.0)
        with pytest.raises(ValueError, match=rf"gaps have shape \({n},\), expected \(12,\)"):
            build_tables(obs, np.ones((12, 12)), gaps, 100.0, 400.0, 0.1)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0, float("nan")])
    def test_epsilon_out_of_range_rejected(self, epsilon):
        obs = series(19)
        gaps = effective_gaps(obs, KickSeries.empty(), 0.0)
        with pytest.raises(ValueError, match=r"build_tables: epsilon must lie in \[0, 1\)"):
            build_tables(obs, np.ones((12, 12)), gaps, 100.0, 400.0, epsilon)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_row_tiles_match_the_whole_array_expressions(self, with_kicks):
        # n = 300 spans three row tiles
        obs = series(17, n=300)
        t, y = obs.times, obs.values
        kicks, alpha = KickSeries.empty(), 0.0
        if with_kicks:
            kicks, alpha = KickSeries([t[40], t[41] + 3.0, t[200] + 0.5], [1.0, 2.5, 0.7]), 40.0
        tab = tables_for(obs, kicks, alpha, 100.0, 400.0)
        # the summed intensity of the kicks below each time, counted by comparison
        cum = np.concatenate(([0.0], np.cumsum(kicks.intensities)))
        before = cum[(kicks.times[None, :] < t[:, None]).sum(axis=1)]
        dist = np.abs(t[:, None] - t[None, :]) + alpha * np.abs(before[:, None] - before[None, :])
        Kt = np.exp(-(dist * dist) / (2.0 * 400.0 * 400.0)) / (SQRT_2PI * 400.0)
        assert np.array_equal(time_kernel(t, kicks, alpha, 400.0), Kt)
        rs = obs.n * Kt.mean(axis=1)
        assert np.array_equal(tab.W, Kt / rs[None, :] + Kt / rs[:, None])
        Ky = gaussian_kernel(y[:, None], y[None, :], tab.h)
        assert np.array_equal(tab.rho0, Ky.mean(axis=1))
        assert tab.wky == (tab.W * Ky).sum(axis=0).sum()
