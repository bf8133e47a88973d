import numpy as np
import pytest

from mcsmooth import (
    KickSeries,
    ObservationSeries,
    bandwidth_rule_of_thumb,
    build_tables,
    effective_gaps,
    gaussian_kernel,
    time_products,
)
from mcsmooth.kernels import BLOCK, log_time_weight, square_blocks
from conftest import (
    dense_weights,
    kernel_expression,
    relative_error,
    tables_for,
    tables_two_exp_walk,
    time_kernel,
)

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

    @pytest.mark.parametrize("h", [1e-3, 0.7, 4.2, np.float64(13.0), 1e4])
    def test_bits_of_the_negated_square_form(self, h):
        rng = np.random.default_rng(7)
        u = rng.normal(120.0, 20.0, 40)
        v = np.concatenate((u[:10], rng.normal(120.0, 20.0, 30)))  # d = 0 at ten pairs
        for got, want in [(gaussian_kernel(u, v, h), kernel_expression(u, v, h)),
                          (gaussian_kernel(u[:, None], v[None, :], h), kernel_expression(u[:, None], v[None, :], h)),
                          (gaussian_kernel(1.5, 1.5, h), kernel_expression(1.5, 1.5, h)),
                          (gaussian_kernel(u.astype(np.float32), 0.0, h), kernel_expression(u.astype(np.float32), 0.0, h)),
                          (gaussian_kernel(np.arange(5), 2, h), kernel_expression(np.arange(5), 2, h))]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def decays(obs, kicks, alpha, T_s, T_l):
    """Per-gap decays exp(-dt_relax/T_s) and exp(-dt_relax/T_l), as the objective forms them."""
    dt_relax = effective_gaps(obs, kicks, alpha).dt_relax
    return np.exp(-dt_relax / T_s), np.exp(-dt_relax / T_l)


def series(seed=0, n=12):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(5, 60, n))
    return ObservationSeries(t - t[0], rng.normal(120, 15, n))


ALL = slice(None)


def log_weights(obs, kicks, alpha, T_l):
    """The package's log time weight of every pair, as one block."""
    t = obs.times
    return log_time_weight(t, kicks.intensity_before(t), alpha, T_l, ALL, ALL)


class TestBuildTables:
    def test_no_kicks_matches_plain_distances(self):
        obs = series()
        d = obs.times[:, None] - obs.times[None, :]
        plain = -(d * d) / (2.0 * 400.0 * 400.0)
        assert np.array_equal(log_weights(obs, KickSeries.empty(), 0.0, 400.0), plain)

    def test_row_mean_consistency(self):
        obs = series(3)
        tab = tables_for(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        y = obs.values
        Ky = gaussian_kernel(y[:, None], y[None, :], tab.h)
        Kt = time_kernel(obs.times, KickSeries.empty(), 0.0, 400.0)
        assert np.allclose(Ky.sum(axis=1) / obs.n, tab.rho0, rtol=0, atol=1e-15)
        s = Kt.sum(axis=1) * (np.sqrt(2.0 * np.pi) * 400.0)
        assert np.allclose(tab.inv_s, 1.0 / s, rtol=1e-14, atol=0)

    def test_tables_symmetric_positive(self):
        obs = series(5)
        tab = tables_for(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        y = obs.values
        Ky = gaussian_kernel(y[:, None], y[None, :], tab.h)
        for m in (Ky, np.exp(log_weights(obs, KickSeries.empty(), 0.0, 400.0)), dense_weights(tab)):
            assert np.array_equal(m, m.T)
            assert np.all(m > 0)
        assert np.all(tab.rho0 > 0) and np.all(tab.inv_s > 0)

    def test_decay_factor_at_one_timescale(self):
        obs = ObservationSeries([0.0, 100.0], [0.0, 1.0])
        ds, dl = decays(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        assert ds[0] == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert ds.shape == dl.shape == (1,)  # one decay per transition, none before the first sample

    def test_ds_below_dl_when_scales_ordered(self):
        obs = series(7)
        ds, dl = decays(obs, KickSeries.empty(), 0.0, T_s=100.0, T_l=400.0)
        assert np.all(ds <= dl)
        assert np.all((ds > 0) & (ds < 1))

    def test_kick_of_typical_intensity_scales_ds_by_inv_e(self):
        obs = ObservationSeries([0.0, 50.0, 150.0], [10.0, 20.0, 15.0])
        T_s = 100.0
        kicks = KickSeries([75.0], [2.0])
        ds0, _ = decays(obs, KickSeries.empty(), 0.0, T_s, 400.0)
        ds1, _ = decays(obs, kicks, kicks.alpha_kick(T_s), T_s, 400.0)
        assert ds1[1] == pytest.approx(ds0[1] * np.exp(-1.0), rel=1e-12)
        assert ds1[0] == ds0[0]

    def test_kicks_never_increase_time_couplings(self):
        obs = series(11)
        rng = np.random.default_rng(1)
        kt = np.sort(rng.uniform(obs.times[0] + 1, obs.times[-1] - 1, 4))
        kicks = KickSeries(kt, rng.uniform(0.1, 3.0, 4))
        assert np.all(log_weights(obs, kicks, 30.0, 400.0) <= log_weights(obs, KickSeries.empty(), 0.0, 400.0))
        ds0, dl0 = decays(obs, KickSeries.empty(), 0.0, 100.0, 400.0)
        ds1, dl1 = decays(obs, kicks, 30.0, 100.0, 400.0)
        assert np.all(ds1 <= ds0) and np.all(dl1 <= dl0)

    def test_removing_kicks_restores_plain_tables(self):
        obs = series(13)
        kicks = KickSeries([obs.times[3] + 0.5], [1.0])

        def table_bytes(tab):
            return [tab.inv_s.tobytes(), tab.rho0.tobytes(), tab.before.tobytes(), tab.wky, tab.alpha]

        with_k = log_weights(obs, kicks, 25.0, 400.0)
        without = log_weights(obs, KickSeries.empty(), 0.0, 400.0)
        plain = table_bytes(tables_for(obs, KickSeries.empty(), 0.0, 100.0, 400.0))
        assert not np.array_equal(with_k, without)
        assert table_bytes(tables_for(obs, kicks, 25.0, 100.0, 400.0)) != plain
        ds_without, _ = decays(obs, KickSeries.empty(), 0.0, 100.0, 400.0)
        assert not np.array_equal(decays(obs, kicks, 25.0, 100.0, 400.0)[0], ds_without)
        assert np.array_equal(log_weights(obs, KickSeries.empty(), 0.0, 400.0), without)
        assert table_bytes(tables_for(obs, KickSeries.empty(), 0.0, 100.0, 400.0)) == plain
        assert np.array_equal(decays(obs, KickSeries.empty(), 0.0, 100.0, 400.0)[0], ds_without)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_tables_hold_no_pair_array(self, with_kicks):
        obs = series(19, n=2 * BLOCK + 5)
        kicks = KickSeries([obs.times[40] + 0.5], [1.0]) if with_kicks else KickSeries.empty()
        tab = tables_for(obs, kicks, 30.0 * with_kicks, 100.0, 400.0)
        arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 5
        assert all(a.shape == (obs.n,) for a in arrays)
        assert all(a.shape == (obs.n - 1,) for a in tab.gaps)  # one per transition

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_gaps_are_the_effective_gaps_at_the_kick_scale(self, with_kicks):
        obs = series(19)
        kicks = KickSeries([obs.times[3] + 0.5, obs.times[7]], [1.0, 2.5]) if with_kicks else KickSeries.empty()
        alpha = 30.0 * with_kicks
        gaps = tables_for(obs, kicks, alpha, 100.0, 400.0).gaps
        for got, want in zip(gaps, effective_gaps(obs, kicks, alpha)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(11,), (13,), (12, 1), (12, 12)])
    def test_row_sums_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="build_tables: row sums have shape"):
            build_tables(series(19), KickSeries.empty(), 0.0, np.ones(shape), 100.0, 400.0, 0.1)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.0, float("nan")])
    def test_epsilon_out_of_range_rejected(self, epsilon):
        with pytest.raises(ValueError, match=r"build_tables: epsilon must lie in \[0, 1\)"):
            build_tables(series(19), KickSeries.empty(), 0.0, np.ones(12), 100.0, 400.0, epsilon)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_blocks_match_the_whole_array_expressions(self, with_kicks):
        # n = 2 * BLOCK + 7 spans three block rows, the last one partial
        obs = series(17, n=2 * BLOCK + 7)
        t, y = obs.times, obs.values
        kicks, alpha = KickSeries.empty(), 0.0
        if with_kicks:
            kicks, alpha = KickSeries([t[40], t[41] + 3.0, t[200] + 0.5], [1.0, 2.5, 0.7]), 40.0
        tab = tables_for(obs, kicks, alpha, 100.0, 400.0)
        # the summed intensity of the kicks below each time, counted by comparison
        cum = np.concatenate(([0.0], np.cumsum(kicks.intensities)))
        before = cum[(kicks.times[None, :] < t[:, None]).sum(axis=1)]
        dist = np.abs(t[:, None] - t[None, :]) + alpha * np.abs(before[:, None] - before[None, :])
        log_w = -(dist * dist) / (2.0 * 400.0 * 400.0)
        assembled = np.full((obs.n, obs.n), np.nan)
        for I, J, block in tab.blocks():
            assembled[I, J] = block
            assembled[J, I] = block.T
        assert np.array_equal(assembled, log_w)
        E = np.exp(log_w)
        V = np.column_stack((np.ones(obs.n), y))
        assert relative_error(time_products(t, kicks, alpha, 400.0, V), E @ V) <= 1e-12
        assert relative_error(tab.inv_s, 1.0 / E.sum(axis=1)) <= 1e-12
        Ky = gaussian_kernel(y[:, None], y[None, :], tab.h)
        assert relative_error(tab.rho0, Ky.mean(axis=1)) <= 1e-12
        assert relative_error(tab.wky, (dense_weights(tab) * Ky).sum()) <= 1e-12

    @pytest.mark.parametrize("with_kicks", [False, True])
    @pytest.mark.parametrize("n", [2, BLOCK, BLOCK + 1, 2 * BLOCK])  # 1, 1, 3 and 3 blocks
    def test_walk_gives_the_bits_of_one_exponent_per_kernel(self, n, with_kicks):
        obs = series(23, n=n)
        kicks, alpha = KickSeries.empty(), 0.0
        if with_kicks:
            kicks, alpha = KickSeries([obs.times[0] + 0.5, obs.times[-1] - 0.5], [1.0, 2.5]), 40.0
        tab = tables_for(obs, kicks, alpha, 100.0, 400.0)
        rho0, wky = tables_two_exp_walk(tab)
        assert tab.rho0.tobytes() == rho0.tobytes()
        assert np.float64(tab.wky).tobytes() == np.float64(wky).tobytes()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
    def test_square_blocks_cover_each_unordered_pair_once(self, n):
        count = np.zeros((n, n), dtype=int)
        for I, J in square_blocks(n):
            assert I.start <= J.start
            count[I, J] += 1
            if I != J:
                count[J, I] += 1
        assert np.all(count == 1)


@pytest.mark.parametrize("values", [[], [120.0]])
def test_bandwidth_needs_two_values(values):
    with pytest.raises(ValueError, match="bandwidth_rule_of_thumb: need at least 2 values"):
        bandwidth_rule_of_thumb(values)


@pytest.mark.parametrize("T_s, T_l", [(0.0, 400.0), (-100.0, 400.0), (100.0, 0.0)])
def test_build_tables_rejects_a_nonpositive_scale(T_s, T_l):
    obs = series(19)
    with pytest.raises(ValueError, match="build_tables: time scales must be positive"):
        build_tables(obs, KickSeries.empty(), 0.0, np.ones(obs.n), T_s, T_l, 0.1)
