"""Observation and intervention series, CSV ingestion, and subsamplers.

Times are decimal minutes throughout. CSV files are headerless UTF-8 with
comma-separated columns: observations are ``time_min,value`` rows, kicks are
``time_min,intensity`` rows.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ObservationSeries",
    "KickSeries",
    "MeasurementSpec",
    "load_observations",
    "load_kicks",
    "subsample",
    "write_observations",
]

# Rows formatted per block by the CSV writers.
CSV_BLOCK_ROWS = 1024


def float_array(a) -> np.ndarray:
    """``a`` as a float64 array; a longdouble array is kept as it is.

    The state containers convert their arrays with this, so that the
    finite-difference check can evaluate the objective on real states in
    extended precision. A float64 array comes back as the same object.
    """
    a = np.asarray(a)
    return a if a.dtype == np.longdouble else a.astype(float, copy=False)


@dataclass(frozen=True)
class ObservationSeries:
    """Ordered (time, value) samples of a scalar signal.

    Times must be strictly increasing and all values finite. A single-sample
    series is a legal container (e.g. the output of a one-time subsampling);
    estimation entry points enforce their own larger minimum counts.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.shape != values.shape:
            raise ValueError("ObservationSeries: times and values must be equal-length 1-d arrays")
        if times.size == 0:
            raise ValueError("ObservationSeries: empty series")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("ObservationSeries: non-finite entry")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("ObservationSeries: times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.times.size

    def gaps(self) -> np.ndarray:
        """Per-index gap t^j - t^{j-1}, with a zero leading entry for j = 0."""
        out = np.zeros(self.n)
        out[1:] = np.diff(self.times)
        return out

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


@dataclass(frozen=True)
class KickSeries:
    """External interventions: kick times and intensities.

    A kick adds effective time to every coupling across it: ``alpha_kick(T_s)``
    minutes per unit intensity, so that a kick of mean intensity adds T_s.
    "Across" is half-open, as for the gaps: a kick exactly at a measurement
    time decouples the following transition, not the preceding one.
    """

    times: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        intensities = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "intensities", intensities)
        if times.shape != intensities.shape or times.ndim != 1:
            raise ValueError("KickSeries: times and intensities must be equal-length 1-d arrays")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("KickSeries: times must be strictly increasing")
        if np.any(intensities < 0):
            raise ValueError("KickSeries: negative intensity")
        if times.size > 0 and not intensities.mean() > 0:
            raise ValueError("KickSeries: mean intensity must be positive for a nonempty series")

    @classmethod
    def empty(cls) -> "KickSeries":
        return cls(np.empty(0), np.empty(0))

    @property
    def n(self) -> int:
        return self.times.size

    def alpha_kick(self, T_s: float) -> float:
        """Added effective time per unit intensity: T_s over the mean intensity, 0 without kicks."""
        return T_s / float(self.intensities.mean()) if self.n else 0.0

    def intensity_before(self, t) -> np.ndarray:
        """Summed intensity of the kicks at k < t, elementwise over t.

        The intensity in [lo, hi) is ``intensity_before(hi) - intensity_before(lo)``.
        """
        cum = np.concatenate(([0.0], np.cumsum(self.intensities)))
        return cum[np.searchsorted(self.times, t, side="left")]


@dataclass(frozen=True)
class MeasurementSpec:
    """How observation times are selected from a dense series.

    kind "h1" reads values at explicitly requested times (clinician-style),
    "h2" draws consecutive gaps i.i.d. uniform over ``gap_bounds``, and "h3"
    samples periodically every ``period`` minutes.
    """

    kind: str
    explicit_times: tuple[float, ...] | None = None
    gap_bounds: tuple[float, float] = (60.0, 90.0)
    period: float = 5.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("h1", "h2", "h3"):
            raise ValueError(f"MeasurementSpec: unknown kind {self.kind!r}")
        if self.kind == "h1" and not self.explicit_times:
            raise ValueError("MeasurementSpec: h1 requires explicit_times")
        # A NaN time passes the span check and snaps to the last dense sample.
        if self.explicit_times is not None and not all(map(math.isfinite, self.explicit_times)):
            raise ValueError("MeasurementSpec: explicit_times must be finite")
        lo, hi = self.gap_bounds
        if not (0 < lo < hi and math.isfinite(hi)):
            raise ValueError("MeasurementSpec: gap_bounds must be finite and satisfy 0 < low < high")
        if not (0 < self.period and math.isfinite(self.period)):
            raise ValueError("MeasurementSpec: period must be finite and positive")
        if not (isinstance(self.rng_seed, numbers.Integral) and self.rng_seed >= 0):
            raise ValueError("MeasurementSpec: rng_seed must be a nonnegative integer")


def read_columns(path: str | Path, ncols: int, op: str, usecols=None, dtype=float) -> np.ndarray:
    """The columns of a headerless CSV of ``ncols`` fields, one array row each.

    Empty lines are skipped. Every other line must have exactly ``ncols``
    comma-separated fields; there are no comments, header or quoting. Only
    the ``usecols`` columns (all by default) are parsed, as ``dtype``. A
    missing file, a line of another width or a field that does not parse
    raises with the caller's ``op`` as message prefix; a faulty line is
    named by its line number in the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{op}: file not found: {path}")
    rows = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line != "\n":
                got = line.count(",") + 1
                if got != ncols:
                    raise ValueError(f"{op}: line {lineno}: expected {ncols} columns, got {got}")
                rows += 1
    if rows == 0:
        return np.empty((ncols if usecols is None else len(usecols), 0), dtype=dtype)
    options = dict(delimiter=",", usecols=usecols, ndmin=2, comments=None, encoding="utf-8", dtype=dtype)
    try:
        with warnings.catch_warnings():
            # Text columns are read in chunks, and loadtxt warns of the
            # blank lines in each; skipping them is the rule here.
            warnings.filterwarnings("ignore", "Input line", UserWarning)
            return np.loadtxt(path, **options).T.copy()
    except ValueError:
        # loadtxt counts rows, not lines: parse line by line to name the first that fails.
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if line != "\n":
                        np.loadtxt([line], **options)
                except ValueError as exc:
                    raise ValueError(f"{op}: line {lineno}: parse failure") from exc
        raise


def write_csv_rows(path: str | Path, rows) -> None:
    """Write rows of already formatted fields as comma-joined lines."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(row) + "\n")


def repr_rows(*columns):
    """Rows of ``repr`` of each column's Python scalars.

    Columns are converted with ``tolist()`` one block of rows at a time, so
    no whole column is held as strings.
    """
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        yield from zip(*(map(repr, c[block].tolist()) for c in columns))


def load_observations(path: str | Path) -> ObservationSeries:
    """Read a "time_min,value" CSV into an ObservationSeries.

    Raises on parse failure, non-monotone times, or fewer than two rows.
    """
    times, values = read_columns(path, 2, "load_observations")
    if times.size < 2:
        raise ValueError(f"load_observations: need at least 2 rows, got {times.size}")
    try:
        return ObservationSeries(times, values)
    except ValueError as exc:
        raise ValueError(f"load_observations: {exc}") from exc


def load_kicks(path: str | Path) -> KickSeries:
    """Read a "time_min,intensity" CSV into a KickSeries; an empty file gives no kicks."""
    times, intensities = read_columns(path, 2, "load_kicks")
    try:
        return KickSeries(times, intensities)
    except ValueError as exc:
        raise ValueError(f"load_kicks: {exc}") from exc


def write_observations(series: ObservationSeries, path: str | Path) -> None:
    write_csv_rows(path, repr_rows(series.times, series.values))


def _nearest_index(times: np.ndarray, t: float) -> int:
    i = int(np.searchsorted(times, t))
    if i == 0:
        return 0
    if i == times.size:
        return times.size - 1
    return i if times[i] - t < t - times[i - 1] else i - 1


def _sorted_unique(idx) -> np.ndarray:
    """The distinct entries of an index sequence, ascending.

    ``np.unique`` gives the same array, but its first call imports
    ``numpy.ma``, which nothing else here uses.
    """
    idx = np.sort(np.asarray(idx))
    keep = np.ones(idx.size, dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    return idx[keep]


def subsample(dense: ObservationSeries, spec: MeasurementSpec) -> ObservationSeries:
    """Apply a measurement function to a densely sampled series.

    Requested times always snap to the nearest dense sample: measurements
    are reads of the dense truth, never interpolations. For h2 the gaps are
    drawn relative to the previously snapped sample so that the realized
    gaps stay inside ``gap_bounds`` on grids at least as fine as the bounds.
    """
    t0, t1 = dense.span
    if spec.kind == "h1":
        idx = []
        for t in spec.explicit_times:
            if t < t0 or t > t1:
                raise ValueError(f"subsample: explicit time {t} outside dense span [{t0}, {t1}]")
            idx.append(_nearest_index(dense.times, float(t)))
        idx = _sorted_unique(idx)
    elif spec.kind == "h2":
        rng = np.random.default_rng(spec.rng_seed)
        lo, hi = spec.gap_bounds
        idx = [0]
        while True:
            t_next = dense.times[idx[-1]] + rng.uniform(lo, hi)
            if t_next > t1:
                break
            i = _nearest_index(dense.times, float(t_next))
            if i <= idx[-1]:
                raise ValueError(f"subsample: a gap of {lo!r}-{hi!r} min snaps back to the sample at "
                                 f"t={float(dense.times[i])!r}; the dense series is coarser there")
            idx.append(i)
        idx = np.asarray(idx)
    else:  # h3
        # arange's length is ceil of this ratio; more targets than samples would only repeat them.
        if (t1 + 0.5 * spec.period - t0) / spec.period > dense.n:
            raise ValueError(f"subsample: period {spec.period!r} asks for more targets than the "
                             f"{dense.n} dense samples")
        targets = np.arange(t0, t1 + 0.5 * spec.period, spec.period)
        targets = targets[targets <= t1]
        idx = _sorted_unique([_nearest_index(dense.times, float(t)) for t in targets])
    return ObservationSeries(dense.times[idx], dense.values[idx])
