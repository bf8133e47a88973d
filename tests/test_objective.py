import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsmooth import (
    EstimationState,
    KickSeries,
    ModelNoise,
    ObservationSeries,
    ParamPriors,
    ParamTrajectory,
    WeightSchedule,
    eval_L1,
    eval_L2,
    eval_L3_L4,
    eval_Lparams,
    eval_components,
    eval_total,
    gaussian_kernel,
)
from mcsmooth.kernels import BLOCK
from mcsmooth.objective import _grad_L2, _grad_L2_blocks, _L2_blocks
from conftest import (
    FIXTURE_ALPHA,
    ONE_HOT,
    dense_weights,
    in_longdouble,
    l2_blocks_allocating,
    l2_oracle,
    make_random_fixture,
    make_random_series,
    relative_error,
    same_bits,
    tables_for,
    time_kernel,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


# --- reference implementations (independent of the package's vectorized path)

def ref_normal_logpdf(x, mean, var):
    return -0.5 * np.log(2.0 * np.pi * var) - (x - mean) ** 2 / (2.0 * var)


def ref_kernel(u, v, h):
    return np.exp(-((v - u) ** 2) / (2 * h * h)) / (SQRT_2PI * h)


def ref_L1(x, y, h, eps):
    n = len(y)
    total = 0.0
    for j in range(n):
        rho0 = sum(ref_kernel(y[j], y[i], h) for i in range(n)) / n
        total += np.log((1 - eps) * ref_kernel(y[j], x[j], h) + eps * rho0)
    return total / n


def ref_L2(x, y, t, h, Kt):
    n = len(y)
    total = 0.0
    for i in range(n):
        for j in range(n):
            w = Kt[i, j] / Kt[j].sum() + Kt[i, j] / Kt[i].sum()
            bracket = (
                ref_kernel(x[i], x[j], h)
                - 2 * ref_kernel(y[i], x[j], h)
                + ref_kernel(y[i], y[j], h)
            )
            total += w * bracket
    return -total / (2 * n)


def ref_model_loglik(state, gaps, T_s):
    """Sequential (non-vectorized) evaluation of the transition likelihoods."""
    x, z = state.x, state.z
    b, a, om = state.params.b, state.params.a, state.params.omega
    var = state.noise.sigma ** 2
    n = len(x)
    L3 = L4 = 0.0
    for j in range(1, n):
        r = np.hypot(x[j - 1] - b[j - 1], z[j - 1])
        th = np.arctan2(z[j - 1], x[j - 1] - b[j - 1])
        ds = np.exp(-gaps.dt_relax[j - 1] / T_s)
        rp = (1 - ds) * a[j] + ds * r
        ph = th + om[j - 1] * gaps.dt_phase[j - 1]
        L3 += ref_normal_logpdf(x[j], b[j] + rp * np.cos(ph), var)
        L4 += ref_normal_logpdf(z[j], rp * np.sin(ph), var)
    return L3 / n, L4 / n


def ref_param_loglik(alpha, tilde, sigma_l, gaps, T_l):
    n = len(alpha)
    total = 0.0
    for j in range(1, n):
        d_l = np.exp(-gaps.dt_relax[j - 1] / T_l)
        total += ref_normal_logpdf(alpha[j], d_l * alpha[j - 1] + (1 - d_l) * tilde,
                                   (1 - d_l) * sigma_l ** 2)
    return total / n


# --- fixtures

def fixture_time_kernel(seed, n, T_l):
    """The kick-adjusted time kernel behind the tables of ``make_random_fixture(seed, n)``."""
    _, obs, kicks = make_random_series(seed, n)
    return time_kernel(obs.times, kicks, FIXTURE_ALPHA, T_l)


def peak_state(obs, tables, sigma=5.0):
    """A state whose every (x, z) sits exactly at its propagated mean."""
    n = obs.n
    b = np.full(n, 120.0)
    a = np.full(n, 10.0)
    om = np.full(n, 0.05)
    x = np.empty(n)
    z = np.empty(n)
    x[0], z[0] = 126.0, 3.0
    for j in range(1, n):
        r = np.hypot(x[j - 1] - b[j - 1], z[j - 1])
        th = np.arctan2(z[j - 1], x[j - 1] - b[j - 1])
        ds = np.exp(-tables.gaps.dt_relax[j - 1] / tables.T_s)
        rp = (1 - ds) * a[j] + ds * r
        ph = th + om[j - 1] * tables.gaps.dt_phase[j - 1]
        x[j] = b[j] + rp * np.cos(ph)
        z[j] = rp * np.sin(ph)
    return EstimationState(
        x=x, z=z,
        params=ParamTrajectory(b, a, om),
        priors=ParamPriors(120.0, 10.0, 0.05, 3.0, 3.0, 0.01),
        noise=ModelNoise(sigma),
    )


class TestL1:
    def test_at_data_without_mollification(self):
        state, obs, tables = make_random_fixture(0)
        at_data = EstimationState(obs.values.copy(), state.z, state.params, state.priors, state.noise)
        want = np.log(1.0 / (SQRT_2PI * tables.h))
        assert eval_L1(at_data, replace(tables, epsilon=0.0)) == pytest.approx(want, rel=1e-14)

    def test_full_mollification_ignores_x(self):
        state, obs, tables = make_random_fixture(1)
        v1 = eval_L1(state, replace(tables, epsilon=1.0))
        other = EstimationState(state.x + 17.0, state.z, state.params, state.priors, state.noise)
        v2 = eval_L1(other, replace(tables, epsilon=1.0))
        assert v1 == v2
        assert v1 == pytest.approx(np.mean(np.log(tables.rho0)), rel=1e-14)

    def test_matches_reference_small_instance(self):
        obs = ObservationSeries([0.0, 60.0], [0.0, 2.0])
        tables = tables_for(obs, KickSeries.empty(), 0.0, 100.0, 400.0)
        state = EstimationState(
            np.array([0.0, 1.0]), np.zeros(2),
            ParamTrajectory([1.0, 1.0], [1.0, 1.0], [0.05, 0.05]),
            ParamPriors(1.0, 1.0, 0.05, 1.0, 1.0, 0.01), ModelNoise(1.0))
        want = ref_L1([0.0, 1.0], [0.0, 2.0], tables.h, 0.1)
        assert eval_L1(state, tables) == pytest.approx(want, abs=1e-12)

    def test_peak_dominance_per_term(self):
        state, obs, tables = make_random_fixture(2)
        at_data = EstimationState(obs.values.copy(), state.z, state.params, state.priors, state.noise)
        tables = replace(tables, epsilon=0.0)
        assert eval_L1(at_data, tables) >= eval_L1(state, tables)


class TestL2:
    def test_zero_at_data_with_and_without_kicks(self):
        # Both eval_L2, which returns at x = y without a block pass, and the
        # block pass itself.
        for seed in range(6):
            state, obs, tables = make_random_fixture(seed)
            at_data = EstimationState(obs.values.copy(), state.z, state.params,
                                      state.priors, state.noise)
            assert abs(eval_L2(at_data, tables)) <= 1e-14
            assert abs(_L2_blocks(at_data, tables)) <= 1e-14

    @pytest.mark.parametrize("with_kicks", [False, True])
    @pytest.mark.parametrize("n", [2, BLOCK, BLOCK + 1, 2 * BLOCK + 7])  # 1, 1, 3 and 6 blocks
    def test_block_pass_has_the_bits_of_the_allocating_form(self, n, with_kicks):
        state, _, tables = make_random_fixture(n, n=n, with_kicks=with_kicks)
        got = _L2_blocks(state, tables)
        assert type(got) is np.float64
        assert got.tobytes() == l2_blocks_allocating(state, tables).tobytes()

    def test_block_pass_in_longdouble_has_the_bits_of_the_allocating_form(self):
        state, _, tables = make_random_fixture(3, n=BLOCK + 1)
        state, tables = in_longdouble(state, tables)
        got = _L2_blocks(state, tables)
        assert got.dtype == np.longdouble
        assert same_bits(got, l2_blocks_allocating(state, tables))

    def test_block_pass_holds_at_most_three_blocks(self):
        # Without kicks, as on the dense benchmark record. The half block over
        # three is the buffer numpy takes while it broadcasts a difference.
        state, _, tables = make_random_fixture(0, n=3 * BLOCK, with_kicks=False)
        tables = replace(tables, alpha=0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _L2_blocks(state, tables)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * BLOCK * BLOCK * 8

    def test_nonpositive_in_uniform_weight_limit(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            state, obs, _ = make_random_fixture(seed, with_kicks=False)
            tables = tables_for(obs, KickSeries.empty(), 0.0, T_s=140.0, T_l=1e9)
            perturbed = EstimationState(obs.values + rng.normal(0, 10, obs.n), state.z,
                                        state.params, state.priors, state.noise)
            assert eval_L2(perturbed, tables) <= 1e-12

    def test_matches_naive_double_loop(self):
        state, obs, tables = make_random_fixture(4, n=3)
        Kt = fixture_time_kernel(4, 3, tables.T_l)
        want = ref_L2(state.x, obs.values, obs.times, tables.h, Kt)
        assert eval_L2(state, tables) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_blocked_form_matches_the_expression_oracle(self, seed):
        state, obs, tables = make_random_fixture(seed, n=40)
        assert relative_error(eval_L2(state, tables), l2_oracle(state.x, obs.values, tables)) <= 1e-12

    def test_holds_at_most_three_pair_arrays(self):
        n = 400
        state, obs, tables = make_random_fixture(0, n=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eval_L2(state, tables)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 3 * BLOCK + 1), with_kicks=st.booleans())
    def test_blocks_match_the_expression_oracle(self, seed, n, with_kicks):
        state, obs, tables = make_random_fixture(seed, n=n, with_kicks=with_kicks)
        assert relative_error(eval_L2(state, tables), l2_oracle(state.x, obs.values, tables)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 3 * BLOCK + 1), with_kicks=st.booleans())
    def test_exactly_zero_at_data(self, seed, n, with_kicks):
        state, obs, tables = make_random_fixture(seed, n=n, with_kicks=with_kicks)
        at_data = replace(state, x=obs.values.copy())
        assert _L2_blocks(at_data, tables) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 3 * BLOCK + 1), with_kicks=st.booleans())
    def test_shortcut_at_data_is_the_block_pass_bit_for_bit(self, seed, n, with_kicks):
        # The sign too: trace.csv prints the stage-1 L2 as -0.0.
        state, obs, tables = make_random_fixture(seed, n=n, with_kicks=with_kicks)
        at_data = replace(state, x=obs.values.copy())
        value = eval_L2(at_data, tables)
        assert type(value) is np.float64
        assert value.tobytes() == _L2_blocks(at_data, tables).tobytes() == np.float64(-0.0).tobytes()
        grad = _grad_L2(at_data, tables)
        assert grad.dtype == np.float64
        assert grad.tobytes() == _grad_L2_blocks(at_data, tables).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_within_1e_15_of_the_whole_array_sum(self, seed):
        state, obs, tables = make_random_fixture(seed, n=40)
        x, y, h = state.x, obs.values, tables.h
        bracket = (gaussian_kernel(x[:, None], x[None, :], h)
                   - 2.0 * gaussian_kernel(y[:, None], x[None, :], h)
                   + gaussian_kernel(y[:, None], y[None, :], h))
        whole = -(dense_weights(tables) * bracket).sum() / (2.0 * x.size)
        assert abs(eval_L2(state, tables) - whole) <= 1e-15

    def test_peak_memory_below_one_pair_array(self):
        n = 2000
        state, obs, tables = make_random_fixture(0, n=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eval_L2(state, tables)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_symmetrized_form_equals_row_normalized_form(self):
        # the symmetrized double sum is an algebraic rewrite of the
        # row-normalized one; check they coincide numerically
        for seed in range(4):
            state, obs, tables = make_random_fixture(seed, n=8)
            x, y, h = state.x, obs.values, tables.h
            Kt = fixture_time_kernel(seed, 8, tables.T_l)
            n = obs.n
            total = 0.0
            for i in range(n):
                for j in range(n):
                    bracket = (
                        (ref_kernel(x[i], x[j], h) - ref_kernel(y[i], x[j], h))
                        - (ref_kernel(x[i], y[j], h) - ref_kernel(y[i], y[j], h))
                    )
                    total += bracket * Kt[i, j] / Kt[i].sum()
            want = -total / n
            assert eval_L2(state, tables) == pytest.approx(want, abs=1e-12)


class TestL3L4:
    def test_all_peaks_value(self):
        _, obs, tables = make_random_fixture(5, with_kicks=False)
        sigma = 5.0
        state = peak_state(obs, tables, sigma)
        want = (obs.n - 1) / obs.n * (-0.5 * np.log(2 * np.pi * sigma**2))
        L3, L4 = eval_L3_L4(state, tables)
        assert L3 == pytest.approx(want, rel=1e-12)
        assert L4 == pytest.approx(want, rel=1e-12)

    def test_perturbing_last_x_lowers_L3_only(self):
        _, obs, tables = make_random_fixture(5, with_kicks=False)
        state = peak_state(obs, tables)
        L3, L4 = eval_L3_L4(state, tables)
        x2 = state.x.copy()
        x2[-1] += 2.5
        moved = EstimationState(x2, state.z, state.params, state.priors, state.noise)
        L3b, L4b = eval_L3_L4(moved, tables)
        assert L3b < L3
        assert L4b == L4

    def test_matches_sequential_reference(self):
        for seed in range(4):
            state, obs, tables = make_random_fixture(seed)
            want = ref_model_loglik(state, tables.gaps, tables.T_s)
            got = eval_L3_L4(state, tables)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)


class TestLparams:
    def relaxed_fixture(self, offset=0.0):
        t = np.array([0.0, 1e7, 2e7, 3e7])  # huge gaps: fully relaxed transitions
        obs = ObservationSeries(t, [1.0, 2.0, 3.0, 4.0])
        tables = tables_for(obs, KickSeries.empty(), 0.0, 140.0, 560.0)
        pr = ParamPriors(5.0, 4.0, 0.04, 1.5, 2.5, 0.01)
        params = ParamTrajectory(
            np.full(4, 5.0 + offset * 1.5),
            np.full(4, 4.0 + offset * 2.5),
            np.full(4, 0.04 + offset * 0.01),
        )
        state = EstimationState(np.zeros(4), np.zeros(4), params, pr, ModelNoise(1.0))
        return state, tables

    def test_relaxed_peaks(self):
        state, tables = self.relaxed_fixture()
        Lb, La, Lo = eval_Lparams(state, tables)
        for got, sig in zip((Lb, La, Lo), (1.5, 2.5, 0.01)):
            assert got == pytest.approx(0.75 * -0.5 * np.log(2 * np.pi * sig**2), rel=1e-9)

    def test_one_sigma_offset(self):
        state, tables = self.relaxed_fixture(offset=1.0)
        Lb, La, Lo = eval_Lparams(state, tables)
        for got, sig in zip((Lb, La, Lo), (1.5, 2.5, 0.01)):
            peak = -0.5 * np.log(2 * np.pi * sig**2)
            assert got == pytest.approx(0.75 * (peak - 0.5), rel=1e-9)

    def test_matches_sequential_reference(self):
        for seed in range(4):
            state, obs, tables = make_random_fixture(seed)
            pr = state.priors
            gaps, T_l = tables.gaps, tables.T_l
            want = (
                ref_param_loglik(state.params.b, pr.b_tilde, pr.sigma_b, gaps, T_l),
                ref_param_loglik(state.params.a, pr.a_tilde, pr.sigma_a, gaps, T_l),
                ref_param_loglik(state.params.omega, pr.omega_tilde, pr.sigma_omega, gaps, T_l),
            )
            got = eval_Lparams(state, tables)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-12)


class TestTotal:
    def test_all_zero_weights(self):
        state, obs, tables = make_random_fixture(6)
        assert eval_total(state, tables, WeightSchedule()) == 0.0

    def test_one_hot_matches_components(self):
        state, obs, tables = make_random_fixture(7)
        comps = eval_components(state, tables)
        for i in range(7):
            lam = [0.0] * 7
            lam[i] = 1.0
            sched = WeightSchedule(*lam)
            assert eval_total(state, tables, sched) == pytest.approx(comps[i], abs=1e-14)

    def test_random_weights_match_manual_sum(self):
        rng = np.random.default_rng(31)
        state, obs, tables = make_random_fixture(8)
        lam = rng.uniform(0, 2, 7)
        sched = WeightSchedule(*lam)
        comps = eval_components(state, tables)
        want = float(np.dot(lam, comps))
        assert eval_total(state, tables, sched) == pytest.approx(want, abs=1e-12)

    def test_linear_in_weights(self):
        state, obs, tables = make_random_fixture(9)
        lam = [0.3, 0.7, 1.1, 0.2, 0.9, 0.4, 1.3]
        L1x = eval_total(state, tables, WeightSchedule(*lam))
        L2x = eval_total(state, tables, WeightSchedule(*[2 * v for v in lam]))
        assert L2x == pytest.approx(2 * L1x, rel=1e-12)

    def test_translation_invariance(self):
        state, obs, tables = make_random_fixture(10, with_kicks=False)
        sched = WeightSchedule(*[1] * 7)
        c = 55.5
        obs2 = ObservationSeries(obs.times, obs.values + c)
        tables2 = tables_for(obs2, KickSeries.empty(), 0.0, tables.T_s, tables.T_l)
        pr = state.priors
        state2 = EstimationState(
            state.x + c, state.z,
            ParamTrajectory(state.params.b + c, state.params.a, state.params.omega),
            ParamPriors(pr.b_tilde + c, pr.a_tilde, pr.omega_tilde,
                        pr.sigma_b, pr.sigma_a, pr.sigma_omega),
            state.noise)
        v1 = eval_total(state, tables, sched)
        v2 = eval_total(state2, tables2, sched)
        assert v2 == pytest.approx(v1, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(4, 24), with_kicks=st.booleans(),
           lambdas=st.one_of(st.sampled_from(ONE_HOT),
                             st.lists(st.floats(0.1, 2.0), min_size=7, max_size=7)))
    def test_finite_on_valid_states(self, seed, n, with_kicks, lambdas):
        state, obs, tables = make_random_fixture(seed, n=n, with_kicks=with_kicks)
        schedule = WeightSchedule(*lambdas)
        comps = eval_components(state, tables)
        total = eval_total(state, tables, schedule)
        assert all(np.isfinite(c) for c in comps)
        assert np.isfinite(total)
        assert schedule.total(comps) == total


class TestWeightSchedule:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightSchedule(lam1=-0.1)
        # A NaN or infinite weight makes the objective NaN or infinite.
        for bad in (float("nan"), float("inf"), 10**400, "1", True):
            with pytest.raises(ValueError, match="WeightSchedule: weights must be finite and nonnegative"):
                WeightSchedule(lam1=bad)
        # The constructor is the only way in: from_lambdas applied float() before the check,
        # so "1" and True passed as 1.0.
        assert not hasattr(WeightSchedule, "from_lambdas")


def test_a_state_of_mismatched_lengths_is_rejected():
    state, _, _ = make_random_fixture(0)
    for x, z in ((state.x[:-1], state.z[:-1]), (state.x, state.z[:-1]), (state.x[:, None], state.z[:, None])):
        with pytest.raises(ValueError, match="EstimationState: x, z and parameter trajectories must share one length"):
            replace(state, x=x, z=z)


def test_l3_l4_need_two_samples():
    _, _, tables = make_random_fixture(0)
    state = EstimationState([126.0], [3.0], ParamTrajectory([120.0], [10.0], [0.05]),
                            ParamPriors(120.0, 10.0, 0.05, 3.0, 3.0, 0.01), ModelNoise(5.0))
    with pytest.raises(ValueError, match="eval_L3_L4: need at least 2 samples"):
        eval_L3_L4(state, tables)
