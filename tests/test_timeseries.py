import math
import warnings

import numpy as np
import pytest

from mcsmooth import (
    KickSeries,
    MeasurementSpec,
    ObservationSeries,
    load_kicks,
    load_observations,
    subsample,
    write_observations,
)
from mcsmooth.kernels import log_time_weight
from mcsmooth.timeseries import _sorted_unique
from mcsmooth.optimizer import read_states_csv


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
    def test_gaps_leading_zero(self):
        obs = ObservationSeries([0.0, 5.0, 20.0], [1.0, 2.0, 3.0])
        assert obs.gaps().tolist() == [0.0, 5.0, 15.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ObservationSeries([0.0, 1.0], [1.0, np.nan])


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

    def test_h3_every_fifth_sample(self):
        dense = self.dense()
        out = subsample(dense, MeasurementSpec(kind="h3", period=5.0))
        assert np.array_equal(out.times, dense.times[::5])
        assert np.array_equal(out.values, dense.values[::5])

    def test_h3_arithmetic_progression(self):
        out = subsample(self.dense(), MeasurementSpec(kind="h3", period=7.0))
        assert np.allclose(np.diff(out.times), 7.0)

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

    @pytest.mark.parametrize("idx", [[7], [3, 3, 3], [9, 2, 5, 2, 9, 0, 5], list(range(40, 0, -3)) * 2])
    def test_sorted_unique_is_np_unique(self, idx):
        got = _sorted_unique(idx)
        want = np.unique(idx)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_h1_nonfinite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="MeasurementSpec: explicit_times must be finite"):
            MeasurementSpec(kind="h1", explicit_times=(100.0, bad))

    def test_h1_outside_span_rejected(self):
        with pytest.raises(ValueError, match="outside dense span"):
            subsample(self.dense(), MeasurementSpec(kind="h1", explicit_times=(-5.0,)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MeasurementSpec(kind="h9")
