import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcsmooth.objective
from mcsmooth import (
    EstimationState,
    PolarSingularityError,
    WeightSchedule,
    fd_check,
    grad_total,
)
from mcsmooth.objective import _grad_L2_blocks
from mcsmooth.kernels import BLOCK
from conftest import (
    FIXTURE_ALPHA,
    ONE_HOT,
    grad_l2_blocks_allocating,
    in_longdouble,
    l2_grad_oracle,
    make_random_fixture,
    relative_error,
    same_bits,
)


def at_data(state, obs):
    return EstimationState(obs.values.copy(), state.z, state.params, state.priors, state.noise)


class TestStructuralZeros:
    def test_L1_gradient_vanishes_at_data(self):
        state, obs, tables = make_random_fixture(0)
        g = grad_total(at_data(state, obs), replace(tables, epsilon=0.0), WeightSchedule(lam1=1.0))
        assert np.all(g.d_x == 0.0)

    def test_L2_gradient_vanishes_at_data(self):
        # Both the public gradient, which returns at x = y without a block
        # pass, and the block pass itself.
        state, obs, tables = make_random_fixture(1)
        g = grad_total(at_data(state, obs), tables, WeightSchedule(lam2=1.0))
        assert np.all(g.d_x == 0.0)
        assert np.all(_grad_L2_blocks(at_data(state, obs), tables) == 0.0)

    def test_data_terms_never_touch_other_blocks(self):
        state, obs, tables = make_random_fixture(2)
        g = grad_total(state, tables, WeightSchedule(lam1=1.0, lam2=1.0))
        for block in (g.d_z, g.d_b, g.d_a, g.d_omega):
            assert np.all(block == 0.0)

    def test_boundary_indices(self):
        state, obs, tables = make_random_fixture(3)
        g3 = grad_total(state, tables, WeightSchedule(lam3=1.0))
        # no successor transition exists for the last index and no own
        # transition for index 0
        assert g3.d_z[-1] == 0.0
        assert g3.d_a[0] == 0.0
        assert g3.d_omega[-1] == 0.0
        g4 = grad_total(state, tables, WeightSchedule(lam4=1.0))
        assert g4.d_b[-1] == 0.0
        assert g4.d_x[-1] == 0.0

    def test_all_zero_weights(self):
        state, obs, tables = make_random_fixture(4)
        g = grad_total(state, tables, WeightSchedule())
        assert all(np.all(b == 0.0) for b in vars(g).values())
        assert fd_check(state, tables, WeightSchedule()).worst == 0.0


class TestFiniteDifferences:
    @pytest.mark.parametrize("component", range(7))
    def test_one_hot_components(self, component):
        for seed in range(10):
            state, obs, tables = make_random_fixture(seed)
            sched = WeightSchedule(*ONE_HOT[component])
            assert fd_check(state, tables, sched).worst <= 1e-5

    def test_mixed_schedule(self):
        rng = np.random.default_rng(77)
        for seed in range(5):
            state, obs, tables = make_random_fixture(100 + seed)
            sched = WeightSchedule(*rng.uniform(0.1, 2.0, 7))
            assert fd_check(state, tables, sched).worst <= 1e-5

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 24), with_kicks=st.booleans(),
           lambdas=st.one_of(st.sampled_from(ONE_HOT),
                             st.lists(st.floats(0.1, 2.0), min_size=7, max_size=7)))
    # d_x[0] = 4.6e-11 is off by 9.2e-16, under its quotient's rounding of 3.7e-15.
    @example(seed=677, n=4, with_kicks=False, lambdas=ONE_HOT[0])
    def test_random_sizes_and_schedules(self, seed, n, with_kicks, lambdas):
        state, obs, tables = make_random_fixture(seed, n=n, with_kicks=with_kicks)
        assert tables.alpha == FIXTURE_ALPHA
        assert fd_check(state, tables, WeightSchedule(*lambdas)).worst <= 1e-5

    def test_a_wrong_smallest_entry_is_caught(self, monkeypatch):
        # The example above: its smallest entry, 4.6e-11, lies within a few
        # roundings of its quotient, yet a relative error of 1e-4 in it shows.
        state, obs, tables = make_random_fixture(677, n=4, with_kicks=False)
        sched = WeightSchedule(*ONE_HOT[0])
        assert fd_check(state, tables, sched).worst == 0.0
        g = grad_total(state, tables, sched)
        d_x = g.d_x.copy()
        d_x[np.argmin(np.abs(d_x))] *= 1.0 + 1e-4
        monkeypatch.setattr(mcsmooth.objective, "grad_total", lambda *args: replace(g, d_x=d_x))
        assert fd_check(state, tables, sched).worst > 1e-5

    @pytest.mark.parametrize("seed, kwargs, lambdas, sees_1e_4", [
        (677, dict(n=4, with_kicks=False), ONE_HOT[0], True),  # 8.1e-5
        (9967, dict(n=2, with_kicks=False), ONE_HOT[0], False),  # 5.5e-3
        (0, dict(n=2), (0, 0, 0, 0, 0, 1, 1e-12), False),  # 4.1e-2
    ])
    def test_resolution_says_what_the_check_cannot_see(self, seed, kwargs, lambdas, sees_1e_4):
        # The case above reads worst 0 and would show a 1e-4 error in any entry; in the
        # other two, worst reads about 0 as well, yet an entry's quotient cannot tell
        # a 1e-4 error from rounding.
        state, obs, tables = make_random_fixture(seed, **kwargs)
        check = fd_check(state, tables, WeightSchedule(*lambdas))
        assert check.worst <= 1e-14
        assert (check.resolution < 1e-4) == sees_1e_4

    # A NaN step makes every quotient NaN, which would pass any gradient.
    @pytest.mark.parametrize("step", [0.0, float("nan"), float("inf")])
    def test_invalid_step_rejected(self, step):
        state, obs, tables = make_random_fixture(5)
        with pytest.raises(ValueError, match="step"):
            fd_check(state, tables, WeightSchedule(lam1=1.0), step=step)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_entry_is_an_infinite_error(self, monkeypatch, bad):
        state, obs, tables = make_random_fixture(0, n=6)
        sched = WeightSchedule(*[1.0] * 7)
        g = grad_total(state, tables, sched)
        d_x = g.d_x.copy()
        d_x[2] = bad
        monkeypatch.setattr(mcsmooth.objective, "grad_total", lambda *args: replace(g, d_x=d_x))
        assert fd_check(state, tables, sched).worst == np.inf


class TestPolarSingularity:
    def test_raises_when_radius_zero_and_model_weights_active(self):
        state, obs, tables = make_random_fixture(6)
        x = state.x.copy()
        z = state.z.copy()
        x[2] = state.params.b[2]
        z[2] = 0.0
        singular = EstimationState(x, z, state.params, state.priors, state.noise)
        with pytest.raises(PolarSingularityError):
            grad_total(singular, tables, WeightSchedule(lam3=1.0))

    def test_data_terms_unaffected_by_zero_radius(self):
        state, obs, tables = make_random_fixture(7)
        z = state.z.copy()
        z[:] = 0.0
        x = state.params.b.copy()  # r = 0 everywhere
        flat = EstimationState(x, z, state.params, state.priors, state.noise)
        g = grad_total(flat, tables, WeightSchedule(lam1=1.0, lam2=1.0))
        assert np.all(np.isfinite(g.d_x))


class TestL2Gradient:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_blocked_form_matches_the_expression_oracle(self, seed):
        state, obs, tables = make_random_fixture(seed, n=40)
        g = grad_total(state, tables, WeightSchedule(lam2=1.0))
        assert relative_error(g.d_x, l2_grad_oracle(state.x, obs.values, tables)) <= 1e-12

    def test_holds_at_most_three_pair_arrays(self):
        n = 400
        state, obs, tables = make_random_fixture(0, n=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grad_total(state, tables, WeightSchedule(lam2=1.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(2, 3 * BLOCK + 1), with_kicks=st.booleans())
    @example(seed=69, n=2, with_kicks=False)  # h = 0.026: all kernels underflow, both are 0
    def test_blocks_match_the_expression_oracle(self, seed, n, with_kicks):
        state, obs, tables = make_random_fixture(seed, n=n, with_kicks=with_kicks)
        g = grad_total(state, tables, WeightSchedule(lam2=1.0))
        assert relative_error(g.d_x, l2_grad_oracle(state.x, obs.values, tables)) <= 1e-12

    @pytest.mark.parametrize("with_kicks", [False, True])
    @pytest.mark.parametrize("n", [2, BLOCK, BLOCK + 1, 2 * BLOCK + 7])  # 1, 1, 3 and 6 blocks
    def test_block_pass_has_the_bits_of_the_allocating_form(self, n, with_kicks):
        state, _, tables = make_random_fixture(n, n=n, with_kicks=with_kicks)
        assert _grad_L2_blocks(state, tables).tobytes() == grad_l2_blocks_allocating(state, tables).tobytes()

    def test_block_pass_in_longdouble_has_the_bits_of_the_allocating_form(self):
        state, _, tables = make_random_fixture(3, n=BLOCK + 1)
        state, tables = in_longdouble(state, tables)
        got = _grad_L2_blocks(state, tables)
        assert got.dtype == np.longdouble
        assert same_bits(got, grad_l2_blocks_allocating(state, tables))

    def test_block_pass_holds_at_most_four_blocks(self):
        # Without kicks, as on the dense benchmark record. The half block over
        # four is the buffer numpy takes while it broadcasts a difference.
        state, _, tables = make_random_fixture(0, n=3 * BLOCK, with_kicks=False)
        tables = replace(tables, alpha=0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _grad_L2_blocks(state, tables)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4.6 * BLOCK * BLOCK * 8

    def test_peak_memory_below_one_pair_array(self):
        n = 2000
        state, obs, tables = make_random_fixture(0, n=n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grad_total(state, tables, WeightSchedule(lam2=1.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
