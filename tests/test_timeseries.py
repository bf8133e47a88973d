import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsmooth import (
    KickSeries,
    MeasurementSpec,
    ObservationSeries,
    effective_gaps,
    load_kicks,
    load_observations,
    subsample,
    write_observations,
)
from mcsmooth.kernels import log_time_weight
from mcsmooth.timeseries import _drop_repeats, _nearest, _pcg64_uniform
from mcsmooth.optimizer import read_states_csv

from conftest import NOISY_SEEDS, h2_oracle


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadObservations:
    def test_parses_two_rows(self, tmp_path):
        obs = load_observations(write(tmp_path, "a.csv", "0,100\n60,120\n"))
        assert obs.n == 2
        assert obs.times.tolist() == [0.0, 60.0]
        assert obs.values.tolist() == [100.0, 120.0]

    def test_non_monotone_times_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="strictly increasing"):
            load_observations(write(tmp_path, "a.csv", "60,120\n0,100\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2 rows"):
            load_observations(write(tmp_path, "a.csv", ""))

    def test_single_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 2 rows"):
            load_observations(write(tmp_path, "a.csv", "0,100\n"))

    def test_parse_failure(self, tmp_path):
        with pytest.raises(ValueError, match="parse failure"):
            load_observations(write(tmp_path, "a.csv", "0,100\nsixty,120\n"))

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="load_observations: file not found"):
            load_observations(tmp_path / "missing.csv")

    def test_roundtrip(self, tmp_path):
        obs = ObservationSeries([0.0, 12.5, 100.0], [1.25, -3.0, 7.125])
        path = tmp_path / "rt.csv"
        write_observations(obs, path)
        back = load_observations(path)
        assert np.array_equal(back.times, obs.times)
        assert np.array_equal(back.values, obs.values)


class TestObservationSeries:
    def test_gaps_are_one_per_transition(self):
        obs = ObservationSeries([0.0, 5.0, 20.0], [1.0, 2.0, 3.0])
        assert effective_gaps(obs, KickSeries.empty(), 0.0).dt_phase.tolist() == [5.0, 15.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ObservationSeries([0.0, 1.0], [1.0, np.nan])
        # An int no float can hold is not finite either, though converting it raises OverflowError.
        with pytest.raises(ValueError, match="ObservationSeries: non-finite entry"):
            ObservationSeries([0.0, 1.0], [10**400, 1.0])
        with pytest.raises(ValueError, match="KickSeries: non-finite entry"):
            KickSeries([0.0], [10**400])

    @pytest.mark.parametrize("times, values", [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[1.0, 2.0]])])
    def test_rejects_a_shape_mismatch(self, times, values):
        with pytest.raises(ValueError, match="ObservationSeries: times and values must be equal-length 1-d arrays"):
            ObservationSeries(times, values)
        with pytest.raises(ValueError, match="KickSeries: times and intensities must be equal-length 1-d arrays"):
            KickSeries(times, values)

    # np.asarray(..., dtype=float) reads "1.5" as 1.5 and True as 1.0, and raises TypeError on an object.
    @pytest.mark.parametrize("times, values, column", [
        (["0", "1.5"], ["5", "6"], "times"),
        ([0.0, 1.0], [5.0, "6"], "values"),
        ([True, 2.0], [5.0, 6.0], "times"),
        ([0.0], [object()], "values"),
        (np.array([0.0, 1.0]), np.array([True, False]), "values"),
        (np.array(["0", "1"]), np.array([5.0, 6.0]), "times"),
    ])
    def test_rejects_entries_that_are_not_numbers(self, times, values, column):
        with pytest.raises(ValueError, match=f"^ObservationSeries: {column} entries must be numbers$"):
            ObservationSeries(times, values)
        column = "intensities" if column == "values" else column
        with pytest.raises(ValueError, match=f"^KickSeries: {column} entries must be numbers$"):
            KickSeries(times, values)

    def test_int_and_float_arrays_are_converted(self):
        obs = ObservationSeries(np.arange(3), np.array([5, 6, 7], dtype=np.int32))
        assert obs.times.dtype == obs.values.dtype == np.float64
        assert obs.times.tolist() == [0.0, 1.0, 2.0] and obs.values.tolist() == [5.0, 6.0, 7.0]
        assert ObservationSeries(np.array([0.5], dtype=np.float32), [np.int64(4)]).values.tolist() == [4.0]


class TestTimesSpanningTheFloatRange:
    # t[1] - t[0] overflows here, so the check must compare, not subtract.
    BUILDERS = {
        "observations": lambda t, tmp: ObservationSeries(t, [1.0, 2.0]),
        "kicks": lambda t, tmp: KickSeries(t, [1.0, 1.0]),
        "loaded_observations": lambda t, tmp: load_observations(
            write(tmp, "o.csv", "".join(f"{v!r},1.0\n" for v in t))),
        "states": lambda t, tmp: read_states_csv(
            write(tmp, "s.csv", "".join(f"{v!r},1,2,3,4,5\n" for v in t))),
    }

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_increasing_times_accepted_without_warning(self, tmp_path, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.BUILDERS[kind]([-1e308, 1e308], tmp_path)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_decreasing_times_rejected_without_warning(self, tmp_path, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="times must be strictly increasing"):
                self.BUILDERS[kind]([1e308, -1e308], tmp_path)


class TestLoadKicks:
    def test_mean_intensity_and_alpha(self, tmp_path):
        kicks = load_kicks(write(tmp_path, "k.csv", "10,1\n20,3\n"))
        assert kicks.intensities.mean() == 2.0
        assert kicks.alpha_kick(100.0) == 50.0

    def test_empty_file(self, tmp_path):
        kicks = load_kicks(write(tmp_path, "k.csv", ""))
        assert kicks.n == 0
        assert kicks.alpha_kick(100.0) == 0.0

    def test_negative_intensity_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="negative intensity"):
            load_kicks(write(tmp_path, "k.csv", "10,-1\n"))

    def test_non_monotone_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="strictly increasing"):
            load_kicks(write(tmp_path, "k.csv", "20,1\n10,1\n"))

    def test_zero_mean_intensity_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mean intensity must be positive"):
            load_kicks(write(tmp_path, "k.csv", "10,0\n20,0\n"))
        with pytest.raises(ValueError, match="mean intensity must be positive"):
            KickSeries([10.0, 20.0], [0.0, 0.0])

    @pytest.mark.parametrize("text", ["nan,1.0\n", "100,1.0\ninf,1.0\n", "100,inf\n", "200,nan\n"])
    def test_non_finite_row_rejected(self, tmp_path, text):
        # A NaN or infinite time is a kick that never acts, and an infinite
        # intensity sets alpha to 0, which turns every kick off.
        with pytest.raises(ValueError, match="load_kicks: KickSeries: non-finite entry"):
            load_kicks(write(tmp_path, "k.csv", text))


class TestKickConventions:
    def test_kick_at_measurement_time_counts_in_following_gap(self):
        kicks = KickSeries([10.0], [2.0])
        t = np.array([0.0, 10.0, 20.0])
        assert np.diff(kicks.intensity_before(t)).tolist() == [0.0, 2.0]

    def test_pairwise_strictly_between(self):
        # The kick sits exactly at t=10. The time kernel counts it the way the
        # gaps do, in [lo, hi): it separates (10, 20) and (0, 20), not (0, 10).
        kicks = KickSeries([10.0], [2.0])
        t = np.array([0.0, 10.0, 20.0])
        dist = np.array([[0.0, 10.0, 22.0], [10.0, 0.0, 12.0], [22.0, 12.0, 0.0]])
        T_l = 30.0
        want = -(dist * dist) / (2.0 * T_l * T_l)
        every = slice(None)
        assert np.array_equal(log_time_weight(t, kicks.intensity_before(t), 1.0, T_l, every, every), want)

    def test_intensity_before_half_open(self):
        kicks = KickSeries([10.0, 30.0], [1.0, 4.0])
        assert kicks.intensity_before([10.0, 30.0, 31.0]).tolist() == [0.0, 1.0, 5.0]
        # the intensity in [lo, hi)
        assert kicks.intensity_before(30.0) - kicks.intensity_before(10.0) == 1.0
        assert kicks.intensity_before(31.0) - kicks.intensity_before(5.0) == 5.0
        assert KickSeries.empty().intensity_before([0.0, 5.0]).tolist() == [0.0, 0.0]

    def test_alpha_is_T_s_over_the_mean_intensity(self):
        assert KickSeries([10.0, 30.0], [1.0, 4.0]).alpha_kick(100.0) == 100.0 / 2.5
        assert KickSeries.empty().alpha_kick(100.0) == 0.0


class TestSubsample:
    def dense(self, minutes=600, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(minutes + 1, dtype=float)
        return ObservationSeries(t, 100.0 + rng.normal(0, 5, t.size))

    @pytest.mark.parametrize("explicit", [None, ()])
    def test_h1_requires_explicit_times(self, explicit):
        with pytest.raises(ValueError, match="MeasurementSpec: h1 requires explicit_times"):
            MeasurementSpec(kind="h1", explicit_times=explicit)

    def test_h3_every_fifth_sample(self):
        dense = self.dense()
        out = subsample(dense, MeasurementSpec(kind="h3", period=5.0))
        assert np.array_equal(out.times, dense.times[::5])
        assert np.array_equal(out.values, dense.values[::5])

    def test_h3_arithmetic_progression(self):
        out = subsample(self.dense(), MeasurementSpec(kind="h3", period=7.0))
        assert np.allclose(np.diff(out.times), 7.0)

    def test_h3_period_finer_than_the_grid_takes_each_sample_once(self):
        # Every minute up to 300, then every 5 min: period 3 snaps twice to most samples
        # after 300, and each of them is kept once, in order.
        t = np.concatenate([np.arange(301.0), np.arange(305.0, 601.0, 5.0)])
        dense = ObservationSeries(t, 100.0 + np.sin(t))
        targets = np.arange(0.0, 601.5, 3.0)
        want = sorted({int(np.argmin(np.abs(t - s))) for s in targets})
        out = subsample(dense, MeasurementSpec(kind="h3", period=3.0))
        assert len(want) < targets.size and 305.0 in out.times and 310.0 in out.times
        assert out.times.tolist() == t[want].tolist()
        assert out.values.tolist() == dense.values[want].tolist()

    def test_h2_gap_bounds_and_mean(self):
        # ~1000 gaps across seeds: all in [60, 90], empirical mean near 75
        gaps = []
        for seed in range(12):
            dense = self.dense(minutes=7000, seed=seed)
            out = subsample(dense, MeasurementSpec(kind="h2", rng_seed=seed))
            gaps.extend(np.diff(out.times))
        gaps = np.asarray(gaps)
        assert gaps.size >= 1000
        assert gaps.min() >= 60.0 and gaps.max() <= 90.0
        assert abs(gaps.mean() - 75.0) < 1.0

    def test_h2_deterministic(self):
        dense = self.dense(minutes=3000)
        spec = MeasurementSpec(kind="h2", rng_seed=7)
        a = subsample(dense, spec)
        b = subsample(dense, spec)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("gap_bounds", [(60.0, 90.0), (1, 2.5), (0.5, 1e6)])
    @pytest.mark.parametrize("seed", [0, 1, *range(11, 19), 2**32 - 1, 2**32, 2**64, 2**100 + 7, np.int64(7),
                                      2**128, 2**128 + 1, 2**200 + 3, 10**50])  # the last four: over 4 words
    def test_h2_gaps_are_numpy_pcg64_uniform_draws(self, seed, gap_bounds):
        gaps = _pcg64_uniform(seed, *gap_bounds)
        got = [next(gaps) for _ in range(250)]
        assert got == np.random.default_rng(seed).uniform(*gap_bounds, 250).tolist()

    def test_h2_icu_week_matches_default_rng_oracle(self, constant_feed):
        for seed in NOISY_SEEDS:
            got = subsample(constant_feed, MeasurementSpec(kind="h2", rng_seed=seed))
            want = h2_oracle(constant_feed, seed)
            assert got.times.tobytes() == want.times.tobytes(), seed
            assert got.values.tobytes() == want.values.tobytes(), seed

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="MeasurementSpec: rng_seed must be a nonnegative integer"):
            MeasurementSpec(kind="h2", rng_seed=seed)

    def test_h1_single_time(self):
        out = subsample(self.dense(), MeasurementSpec(kind="h1", explicit_times=(0.0,)))
        assert out.n == 1 and out.times[0] == 0.0

    def test_h1_snaps_to_nearest(self):
        out = subsample(self.dense(), MeasurementSpec(kind="h1", explicit_times=(10.4, 99.9)))
        assert out.times.tolist() == [10.0, 100.0]

    def test_h1_unsorted_duplicates_give_sorted_unique_samples(self):
        dense = self.dense()
        times = (310.2, 5.0, 99.9, 310.0, 4.6, 600.0, 100.4, 0.0)
        out = subsample(dense, MeasurementSpec(kind="h1", explicit_times=times))
        assert out.times.tolist() == [0.0, 5.0, 100.0, 310.0, 600.0]
        assert np.array_equal(out.values, dense.values[[0, 5, 100, 310, 600]])
        # Random times, out of order and repeated, with a tie between 300 and 301.
        times = np.random.default_rng(3).uniform(0.0, 600.0, 40)
        times = tuple(np.concatenate([times, times[::3], [300.5, 0.0, 300.5]]).tolist())
        want = sorted({int(np.argmin(np.abs(dense.times - t))) for t in times})
        out = subsample(dense, MeasurementSpec(kind="h1", explicit_times=times))
        assert 300 in want and 301 not in want
        assert out.times.tolist() == dense.times[want].tolist()
        assert out.values.tolist() == dense.values[want].tolist()

    # subsample hands the helper nondecreasing indices only.
    @pytest.mark.parametrize("idx", [[7], [3, 3, 3], [0, 2, 2, 5, 5, 9, 9], sorted(list(range(40, 0, -3)) * 2)])
    def test_drop_repeats_is_np_unique(self, idx):
        got = _drop_repeats(np.asarray(idx))
        want = np.unique(idx)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # An int no float can hold is not finite either, though math.isfinite raises OverflowError for it.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400"), True])
    def test_h1_nonfinite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="MeasurementSpec: explicit_times must be finite"):
            MeasurementSpec(kind="h1", explicit_times=(100.0, bad))

    @pytest.mark.parametrize("spec, message", [
        (dict(kind="h2", gap_bounds=(60, math.inf)), "MeasurementSpec: gap_bounds must be finite"),
        (dict(kind="h2", gap_bounds=(60, 10**400)), "MeasurementSpec: gap_bounds must be finite"),
        (dict(kind="h3", period=math.nan), "MeasurementSpec: period must be finite and positive"),
        (dict(kind="h3", period=10**400), "MeasurementSpec: period must be finite and positive"),
        (dict(kind="h3", period=True), "MeasurementSpec: period must be finite and positive"),
        (dict(kind="h2", gap_bounds=("a", "b")), "MeasurementSpec: gap_bounds must be finite"),
        (dict(kind="h2", gap_bounds=5), "MeasurementSpec: gap_bounds must be finite"),
        (dict(kind="h2", gap_bounds=(60.0, 75.0, 90.0)), "MeasurementSpec: gap_bounds must be finite"),
        (dict(kind="h1", explicit_times=5.0), "MeasurementSpec: explicit_times must be a tuple or list"),
    ])
    def test_nonfinite_gap_bound_or_period_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            MeasurementSpec(**spec)

    def test_h1_outside_span_rejected(self):
        with pytest.raises(ValueError, match="outside dense span"):
            subsample(self.dense(), MeasurementSpec(kind="h1", explicit_times=(-5.0,)))
        # The first time outside is named as it was given.
        with pytest.raises(ValueError, match=r"^subsample: explicit time 601 outside dense span \[0.0, 600.0\]$"):
            subsample(self.dense(), MeasurementSpec(kind="h1", explicit_times=(5.0, 601, -5.0)))

    def test_nearest_is_the_scalar_rule(self):
        # The scalar rule is argmin |times - t|, whose first index takes a tie, the earlier sample.
        rng = np.random.default_rng(5)
        whole = np.unique(rng.integers(0, 1000, 60)).astype(float)
        for times in (whole, np.sort(rng.uniform(0.0, 100.0, 50))):
            midpoints = 0.5 * (times[:-1] + times[1:])
            t = np.concatenate([midpoints, times, rng.uniform(times[0] - 10.0, times[-1] + 10.0, 200)])
            want = [int(np.argmin(np.abs(times - s))) for s in t]
            assert _nearest(times, t).tolist() == want
            assert [int(_nearest(times, s)) for s in t] == want
        # Each midpoint of whole-minute times is an exact tie.
        assert _nearest(whole, 0.5 * (whole[:-1] + whole[1:])).tolist() == list(range(whole.size - 1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), whole=st.booleans())
    def test_nearest_keeps_the_order_of_its_targets(self, data, whole):
        # h1 and h3 drop repeated samples without a sort, which needs this order. Whole-minute
        # times put exact ties at their midpoints; targets repeat and reach past the span.
        number = st.integers(-1000, 1000).map(float) if whole else st.floats(-1e3, 1e3)
        times = np.array(sorted(set(data.draw(st.lists(number, min_size=1, max_size=30)))))
        midpoints = (0.5 * (times[:-1] + times[1:])).tolist()
        near = st.floats(times[0] - 50.0, times[-1] + 50.0)
        targets = data.draw(st.lists(st.one_of(st.sampled_from(times.tolist() + midpoints), near), min_size=1))
        targets = sorted(targets + targets[::2])
        idx = _nearest(times, np.array(targets))
        assert np.all(idx[1:] >= idx[:-1])

    def test_h1_and_h3_on_a_one_sample_series(self):
        dense = ObservationSeries([5.0], [1.5])
        for spec in (MeasurementSpec(kind="h1", explicit_times=(5.0, 5)), MeasurementSpec(kind="h3", period=5.0)):
            out = subsample(dense, spec)
            assert out.times.tolist() == [5.0] and out.values.tolist() == [1.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MeasurementSpec(kind="h9")
        # Formatting an int of over 4300 digits raises a ValueError that names no field.
        with pytest.raises(ValueError, match="^MeasurementSpec: unknown kind$"):
            MeasurementSpec(kind=10**5000)
