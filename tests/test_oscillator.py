from dataclasses import replace

import numpy as np
import pytest

from mcsmooth import (
    EffectiveGaps,
    EstimationState,
    KickSeries,
    ModelNoise,
    ObservationSeries,
    ParamPriors,
    ParamTrajectory,
    effective_gaps,
    eval_L3_L4,
    eval_Lparams,
)
from mcsmooth.oscillator import propagate, transition_quantities
from conftest import (
    PolarState,
    make_random_fixture,
    param_transition_logpdf,
    propagate_mean,
    tables_for,
    to_polar,
    transition_logpdfs,
)


def ref_normal_logpdf(x, mean, var):
    """Reference Gaussian log-density, written directly from the formula."""
    return -0.5 * np.log(2.0 * np.pi * var) - (x - mean) ** 2 / (2.0 * var)


def propagated(prev, a_next, omega_prev, dt_phase, dt_relax, T_s, b=0.0):
    """The package's propagation of source states at polar ``prev`` about ``b``,
    and the oracle's propagation of the same source states."""
    x = b + prev.r * np.cos(prev.theta)
    z = prev.r * np.sin(prev.theta)
    args = np.broadcast_arrays(x, z, b, b, a_next, omega_prev, dt_phase, dt_relax)
    q = propagate(*(np.atleast_1d(v).astype(float) for v in args), T_s)
    want = propagate_mean(to_polar(x, z, b), a_next, omega_prev, dt_phase, dt_relax, T_s)
    np.testing.assert_allclose(q.r_plus, want.r, rtol=1e-15, atol=0)
    np.testing.assert_allclose(q.cos_phi, np.cos(want.theta), rtol=1e-15, atol=0)
    np.testing.assert_allclose(q.sin_phi, np.sin(want.theta), rtol=1e-15, atol=0)
    return q


def two_index_state(dt, x=(0.0, 0.0), z=(0.0, 0.0), b=(120.0, 120.0), a=(3.0, 3.0),
                    omega=(0.05, 0.05), sigma=1.0, priors=None, T_s=100.0, T_l=400.0):
    """A two-observation state with one transition of length dt, no kicks."""
    obs = ObservationSeries([0.0, dt], [1.0, 2.0])
    tables = tables_for(obs, KickSeries.empty(), 0.0, T_s, T_l)
    priors = priors if priors is not None else ParamPriors(120.0, 3.0, 0.05, 1.0, 1.0, 1.0)
    state = EstimationState(x, z, ParamTrajectory(b, a, omega), priors, ModelNoise(sigma))
    return state, obs, tables


def source_polar(x, z, b, a_next=7.0, omega=0.1, dt_phase=0.0, dt_relax=0.0):
    """``propagate`` of one source (x, z) about b, by default across a zero gap with b_next = b."""
    args = np.broadcast_arrays(x, z, b, b, a_next, omega, dt_phase, dt_relax)
    return propagate(*(np.atleast_1d(v).astype(float) for v in args), 100.0)


class TestSourcePolar:
    def test_positive_x_axis(self):
        q = source_polar(5.0, 0.0, 4.0)
        assert q.offset[0] == 1.0 and q.r[0] == 1.0
        assert q.cos_phi[0] == 1.0 and q.sin_phi[0] == 0.0

    def test_positive_z_axis(self):
        q = source_polar(4.0, 1.0, 4.0)
        assert q.r[0] == 1.0 and q.sin_phi[0] == 1.0
        assert q.cos_phi[0] == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("x, z, b", [(4.0, 0.0, 4.0), (4.0, -0.0, 4.0),
                                         (-0.0, 0.0, 0.0), (-0.0, -0.0, 0.0)])
    def test_origin_convention(self, x, z, b):
        # At r = 0 the source has theta = 0, whatever the signs of its zeros
        # (arctan2(0, -0) is pi), so the mean points along phi = omega dt_phase.
        q = source_polar(x, z, b, a_next=3.0, omega=0.05, dt_phase=20.0, dt_relax=30.0)
        assert q.r[0] == 0.0
        plus = propagate_mean(PolarState(0.0, 0.0), 3.0, 0.05, 20.0, 30.0, 100.0)
        assert q.mean_x[0] == b + plus.r * np.cos(plus.theta)
        assert q.mean_z[0] == plus.r * np.sin(plus.theta)
        assert q.cos_phi[0] == np.cos(0.05 * 20.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        b = rng.normal(0, 10, 200)
        x, z = b + rng.normal(0, 5, 200), rng.normal(0, 5, 200)
        q = source_polar(x, z, b)
        assert np.all(q.r > 0)
        np.testing.assert_array_equal(q.offset, x - b)
        assert np.all(np.abs(q.mean_x - x) <= 1e-12 * np.maximum(1, np.abs(x)))
        assert np.all(np.abs(q.mean_z - z) <= 1e-12 * np.maximum(1, np.abs(z)))


class TestPropagateMean:
    def test_zero_gap_keeps_radius(self):
        q = propagated(PolarState(3.0, 0.5), a_next=7.0, omega_prev=0.1,
                       dt_phase=0.0, dt_relax=0.0, T_s=100.0)
        assert q.r_plus[0] == q.r[0]
        assert q.r_plus[0] == pytest.approx(3.0, rel=1e-15)

    def test_long_gap_relaxes_to_target(self):
        q = propagated(PolarState(3.0, 0.5), 7.0, 0.1, 0.0, 1e9, 100.0)
        assert q.r_plus[0] == pytest.approx(7.0, rel=1e-12)

    def test_half_period_phase(self):
        P = 120.0
        q = propagated(PolarState(1.0, 0.25), 1.0, 2 * np.pi / P, P / 2, P / 2, 100.0)
        assert q.cos_phi[0] == pytest.approx(np.cos(0.25 + np.pi), rel=1e-14)
        assert q.sin_phi[0] == pytest.approx(np.sin(0.25 + np.pi), rel=1e-14)

    def test_radius_is_convex_combination(self):
        rng = np.random.default_rng(5)
        r0, a = rng.uniform(0, 10, (2, 200))
        q = propagated(PolarState(r0, 0.0), a, 0.05, 5.0, rng.uniform(0, 500, 200), 100.0, b=3.0)
        lo, hi = np.minimum(q.r, a), np.maximum(q.r, a)
        assert np.all((lo - 1e-12 <= q.r_plus) & (q.r_plus <= hi + 1e-12))


class TestTransitionLogpdfs:
    def peak_state(self, sigma, T_s, offset_x=0.0):
        """Two indices, the second at the oracle's propagated mean (x shifted by offset_x)."""
        x0, z0 = 120.0 + 2.0 * np.cos(0.3), 2.0 * np.sin(0.3)
        prev = to_polar(x0, z0, 120.0)
        plus = propagate_mean(prev, 3.0, 0.05, 10.0, 10.0, T_s)
        mean_x, mean_z = 120.0 + plus.r * np.cos(plus.theta), plus.r * np.sin(plus.theta)
        state, obs, tables = two_index_state(
            10.0, x=(x0, mean_x + offset_x), z=(z0, mean_z), sigma=sigma, T_s=T_s)
        oracle = transition_logpdfs(mean_x + offset_x, mean_z, prev, 120.0, 3.0, 0.05,
                                    10.0, 10.0, sigma, T_s)
        return eval_L3_L4(state, tables), oracle

    def test_peak_value_at_mean(self):
        sigma = 4.0
        (L3, L4), (lx, lz) = self.peak_state(sigma, 100.0)
        peak = -0.5 * np.log(2 * np.pi * sigma**2)
        for got in (2 * L3, 2 * L4, lx, lz):
            assert got == pytest.approx(peak, rel=1e-14)

    def test_one_sigma_point(self):
        sigma = 4.0
        (L3, _), (lx, _) = self.peak_state(sigma, 100.0, offset_x=sigma)
        want = -0.5 * np.log(2 * np.pi * sigma**2) - 0.5
        assert 2 * L3 == pytest.approx(want, rel=1e-13)
        assert lx == pytest.approx(want, rel=1e-13)

    def test_matches_reference_gaussian(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            prev = PolarState(rng.uniform(0.1, 8), rng.uniform(-np.pi, np.pi))
            b, a = rng.normal(100, 10), rng.uniform(0.5, 9)
            om, dtp, dtr = rng.uniform(0.01, 0.2), rng.uniform(1, 80), rng.uniform(1, 120)
            sigma, T_s = rng.uniform(0.5, 6), rng.uniform(50, 200)
            x_j, z_j = rng.normal(100, 12), rng.normal(0, 6)
            plus = propagate_mean(prev, a, om, dtp, dtr, T_s)
            want_x = ref_normal_logpdf(x_j, b + plus.r * np.cos(plus.theta), sigma**2)
            want_z = ref_normal_logpdf(z_j, plus.r * np.sin(plus.theta), sigma**2)
            lx, lz = transition_logpdfs(x_j, z_j, prev, b, a, om, dtp, dtr, sigma, T_s)
            assert lx == pytest.approx(want_x, abs=1e-12)
            assert lz == pytest.approx(want_z, abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        for sigma in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma"):
                ModelNoise(sigma)
            with pytest.raises(ValueError, match="sigma"):
                ParamPriors(0.0, 1.0, 0.05, sigma, 1.0, 1.0)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_package_matches_oracle(self, with_kicks):
        for seed in range(4):
            state, obs, tables = make_random_fixture(seed, with_kicks=with_kicks)
            p, T_s, gaps = state.params, tables.T_s, tables.gaps
            prev = to_polar(state.x[:-1], state.z[:-1], p.b[:-1])
            plus = propagate_mean(prev, p.a[1:], p.omega[:-1], gaps.dt_phase, gaps.dt_relax, T_s)
            q = transition_quantities(state.x, state.z, p, gaps, T_s)
            np.testing.assert_array_equal(q.offset, state.x[:-1] - p.b[:-1])
            np.testing.assert_array_equal(q.r, prev.r)
            np.testing.assert_allclose(q.r_plus, plus.r, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(q.cos_phi, np.cos(plus.theta))
            np.testing.assert_array_equal(q.sin_phi, np.sin(plus.theta))
            np.testing.assert_allclose(q.mean_x, p.b[1:] + plus.r * np.cos(plus.theta),
                                       rtol=1e-15, atol=0)
            lx, lz = transition_logpdfs(state.x[1:], state.z[1:], prev, p.b[1:], p.a[1:],
                                        p.omega[:-1], gaps.dt_phase, gaps.dt_relax,
                                        state.noise.sigma, T_s)
            L3, L4 = eval_L3_L4(state, tables)
            assert L3 == pytest.approx(lx.sum() / state.n, rel=1e-13)
            assert L4 == pytest.approx(lz.sum() / state.n, rel=1e-13)


class TestParamTransition:
    def test_fully_relaxed_peak(self):
        sigma_l = 2.5
        priors = ParamPriors(7.0, 3.0, 0.05, sigma_l, 1.0, 1.0)
        state, _, tables = two_index_state(1e9, b=(3.0, 7.0), priors=priors)
        L_b = eval_Lparams(state, tables)[0]
        peak = -0.5 * np.log(2 * np.pi * sigma_l**2)
        assert 2 * L_b == pytest.approx(peak, rel=1e-12)
        assert param_transition_logpdf(7.0, 3.0, 7.0, sigma_l, 1e9, 400.0) == pytest.approx(
            peak, rel=1e-12)

    def test_peak_at_any_gap(self):
        sigma_l, T_l, dt = 2.5, 400.0, 35.0
        d_l = np.exp(-dt / T_l)
        mean = d_l * 3.0 + (1 - d_l) * 7.0
        priors = ParamPriors(7.0, 3.0, 0.05, sigma_l, 1.0, 1.0)
        state, _, tables = two_index_state(dt, b=(3.0, mean), priors=priors, T_l=T_l)
        want = -0.5 * np.log(2 * np.pi * (1 - d_l) * sigma_l**2)
        assert 2 * eval_Lparams(state, tables)[0] == pytest.approx(want, rel=1e-13)
        got = param_transition_logpdf(mean, 3.0, 7.0, sigma_l, dt, T_l)
        assert got == pytest.approx(want, rel=1e-13)

    def test_matches_reference_gaussian(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            prev, tilde = rng.normal(0, 5, 2)
            sigma_l, dt, T_l = rng.uniform(0.5, 6), rng.uniform(0.5, 600), rng.uniform(100, 700)
            alpha = rng.normal(0, 5)
            d_l = np.exp(-dt / T_l)
            want = ref_normal_logpdf(alpha, d_l * prev + (1 - d_l) * tilde, (1 - d_l) * sigma_l**2)
            got = param_transition_logpdf(alpha, prev, tilde, sigma_l, dt, T_l)
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_gap_degenerate_variance(self):
        state, _, tables = two_index_state(10.0)
        tables = replace(tables, gaps=EffectiveGaps(np.zeros(1), np.zeros(1)))
        with pytest.raises(ValueError, match="degenerate"):
            eval_Lparams(state, tables)

    @pytest.mark.parametrize("with_kicks", [False, True])
    def test_package_matches_oracle(self, with_kicks):
        for seed in range(4):
            state, _, tables = make_random_fixture(seed, with_kicks=with_kicks)
            p, pr, dt = state.params, state.priors, tables.gaps.dt_relax
            want = [
                param_transition_logpdf(alpha[1:], alpha[:-1], tilde, sigma_l, dt, tables.T_l).sum()
                / state.n
                for alpha, tilde, sigma_l in (
                    (p.b, pr.b_tilde, pr.sigma_b),
                    (p.a, pr.a_tilde, pr.sigma_a),
                    (p.omega, pr.omega_tilde, pr.sigma_omega),
                )
            ]
            got = eval_Lparams(state, tables)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-13)


class TestEffectiveGaps:
    def obs(self):
        return ObservationSeries([0.0, 60.0, 150.0], [1.0, 2.0, 3.0])

    def test_no_kicks_equal(self):
        gaps = effective_gaps(self.obs(), KickSeries.empty(), 0.0)
        assert np.array_equal(gaps.dt_phase, gaps.dt_relax)
        assert gaps.dt_phase.tolist() == [60.0, 90.0]

    def test_typical_kick_adds_one_timescale(self):
        T_s = 100.0
        kicks = KickSeries([30.0], [2.0])
        gaps = effective_gaps(self.obs(), kicks, kicks.alpha_kick(T_s))
        assert gaps.dt_relax[0] == pytest.approx(60.0 + T_s, rel=1e-14)
        assert gaps.dt_relax[1] == 90.0

    def test_kick_at_measurement_time_in_following_gap(self):
        kicks = KickSeries([60.0], [2.0])
        gaps = effective_gaps(self.obs(), kicks, kicks.alpha_kick(100.0))
        assert gaps.dt_relax[0] == 60.0
        assert gaps.dt_relax[1] == pytest.approx(90.0 + 100.0, rel=1e-14)

    def test_phase_gaps_never_inflated(self):
        rng = np.random.default_rng(23)
        obs = self.obs()
        kicks = KickSeries(np.sort(rng.uniform(1, 149, 5)), rng.uniform(0, 4, 5))
        gaps = effective_gaps(obs, kicks, 60.0)
        assert np.array_equal(gaps.dt_phase, np.diff(obs.times))
        assert np.all(gaps.dt_relax >= gaps.dt_phase)


@pytest.mark.parametrize("b, a, omega, message", [
    ([1.0, 2.0], [3.0], [0.05, 0.05], "b, a, omega must be equal-length 1-d arrays"),
    ([[1.0, 2.0]], [[3.0, 3.0]], [[0.05, 0.05]], "b, a, omega must be equal-length 1-d arrays"),
    ([1.0, 2.0], [3.0, -1e-300], [0.05, 0.05], "amplitudes must be nonnegative"),
    ([1.0, 2.0], [3.0, 3.0], [0.05, 0.0], "frequencies must be positive"),
    ([1.0, 2.0], [3.0, 3.0], [-0.05, 0.05], "frequencies must be positive"),
])
def test_a_bad_param_trajectory_is_rejected(b, a, omega, message):
    with pytest.raises(ValueError, match=f"ParamTrajectory: {message}"):
        ParamTrajectory(b, a, omega)


def test_a_negative_a_tilde_is_rejected():
    with pytest.raises(ValueError, match="ParamPriors: a_tilde must be nonnegative"):
        ParamPriors(120.0, -1.0, 0.05, 3.0, 3.0, 0.01)
