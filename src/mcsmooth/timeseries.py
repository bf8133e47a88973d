"""Observation and intervention series, CSV ingestion, and subsamplers.

Times are decimal minutes throughout. CSV files are headerless UTF-8 with
comma-separated columns: observations are ``time_min,value`` rows, kicks are
``time_min,intensity`` rows.
"""

from __future__ import annotations

import math
import numbers
import sys
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

# Rows formatted per block by write_columns.
CSV_BLOCK_ROWS = 128


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether a value from a file, a config or a library call is a number of the kind.

    That is an instance of the kind that is not a bool. A real must also lie within
    the float range, so ``math.isfinite`` never raises on it; NaN and +-inf are
    numbers, left to each field's range check. An integral kind takes any int.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return (kind is numbers.Integral or not isinstance(value, numbers.Rational)
            or abs(value) <= sys.float_info.max)


def _check_pair(series, column: str) -> None:
    """Convert ``times`` and ``column`` to float arrays: equal-length 1-d, finite, times strictly increasing.

    Entries must be numbers; a str or a bool is not read as one. An int or
    float ndarray is converted as it is.
    """
    owner = type(series).__name__
    for name in ("times", column):
        a = getattr(series, name)
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iuf"):
            # Any int passes here: one no float can hold is a non-finite entry below.
            if not all(_is_number(v) or _is_number(v, numbers.Integral) for v in np.asarray(a, dtype=object).flat):
                raise ValueError(f"{owner}: {name} entries must be numbers")
    try:
        times, values = (np.asarray(getattr(series, name), dtype=float) for name in ("times", column))
    except OverflowError:  # an int no float can hold
        raise ValueError(f"{owner}: non-finite entry") from None
    object.__setattr__(series, "times", times)
    object.__setattr__(series, column, values)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError(f"{owner}: times and {column} must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise ValueError(f"{owner}: non-finite entry")
    if not np.all(times[1:] > times[:-1]):
        raise ValueError(f"{owner}: times must be strictly increasing")


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
        _check_pair(self, "values")
        if self.times.size == 0:
            raise ValueError("ObservationSeries: empty series")

    @property
    def n(self) -> int:
        return self.times.size

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
        _check_pair(self, "intensities")
        if np.any(self.intensities < 0):
            raise ValueError("KickSeries: negative intensity")
        if self.times.size > 0 and not self.intensities.mean() > 0:
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
            # Only a str is shown: an int of over 4300 digits cannot even be formatted.
            shown = f" {self.kind!r}" if isinstance(self.kind, str) else ""
            raise ValueError(f"MeasurementSpec: unknown kind{shown}")
        times = self.explicit_times
        if times is not None and not isinstance(times, (tuple, list)):
            raise ValueError("MeasurementSpec: explicit_times must be a tuple or list")
        if self.kind == "h1" and not times:
            raise ValueError("MeasurementSpec: h1 requires explicit_times")
        # A NaN time passes the span check and snaps to the last dense sample.
        if times is not None and not all(_is_number(t) and math.isfinite(t) for t in times):
            raise ValueError("MeasurementSpec: explicit_times must be finite")
        bounds = self.gap_bounds
        if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(_is_number(v) for v in bounds)
                and 0 < bounds[0] < bounds[1] < math.inf):
            raise ValueError("MeasurementSpec: gap_bounds must be finite and satisfy 0 < low < high")
        if not (_is_number(self.period) and 0 < self.period < math.inf):
            raise ValueError("MeasurementSpec: period must be finite and positive")
        if not (_is_number(self.rng_seed, numbers.Integral) and self.rng_seed >= 0):
            raise ValueError("MeasurementSpec: rng_seed must be a nonnegative integer")


def read_columns(path: str | Path, ncols: int, op: str, usecols=None) -> np.ndarray:
    """The columns of a headerless CSV of ``ncols`` fields, one array row each.

    Empty lines are skipped. Every other line must have exactly ``ncols``
    comma-separated fields; there are no comments, header or quoting. Only
    the ``usecols`` columns (all by default) are parsed, as floats. A
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
        return np.empty((ncols if usecols is None else len(usecols), 0))
    options = dict(delimiter=",", usecols=usecols, ndmin=2, comments=None, encoding="utf-8")
    try:
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


def write_columns(path: str | Path, *columns) -> None:
    """Write equal-length columns as headerless CSV rows, the mirror of ``read_columns``.

    Every CSV the package writes goes through here. Each column (an array or
    a sequence) is converted ``CSV_BLOCK_ROWS`` rows at a time with ``tolist()``,
    and each value is printed with ``str``: a float as its shortest repr, an
    int as its digits, a str as itself.
    """
    columns = [np.asarray(c) for c in columns]
    if any(c.ndim != 1 or c.size != columns[0].size for c in columns):
        raise ValueError("write_columns: columns must be equal-length 1-d arrays")
    line = ",".join(["%s"] * len(columns)) + "\n"
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            # Not bound to a name: the last block's rows are freed before the next block's are made.
            for row in zip(*(c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns)):
                fh.write(line % row)


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
    """Write the series as "time_min,value" rows."""
    write_columns(path, series.times, series.values)


def _nearest(times: np.ndarray, t):
    """The index of the sample of sorted ``times`` nearest each ``t``; a tie goes to the earlier sample."""
    i = times.searchsorted(t)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, times.size - 1)
    return np.where(times[hi] - t < t - times[lo], hi, lo)


def _drop_repeats(idx: np.ndarray) -> np.ndarray:
    """A nondecreasing index array without its repeated entries.

    No numpy sort or unique is called: each first call pages in numpy code
    that a process's peak RSS counts.
    """
    keep = np.ones(idx.size, dtype=bool)
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    return idx[keep]


# PCG64's 128-bit LCG multiplier (O'Neill 2014, HMC-CS-2014-0905), as numpy uses it.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _pcg64_uniform(seed: int, low: float, high: float):
    """The draws of ``np.random.default_rng(seed).uniform(low, high)``, one per step, without end.

    ``seed`` is a nonnegative integer. Its 32-bit words are hashed into four
    64-bit words as ``SeedSequence`` does; the first two seed PCG64's 128-bit
    LCG state and the last two its increment. Each step advances the LCG and
    applies the XSL-RR output function; its top 53 bits give u in [0, 1), and
    the draw is ``low + (high - low) * u`` in doubles, as ``Generator.uniform``
    forms it. numpy.random is not imported for this: it costs a process more
    than 2 MB.
    """
    seed = int(seed)
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    # SeedSequence's hash: the multiplier is advanced on every call.
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        out.append(value ^ value >> 16)
    # The eight 32-bit words read as four little-endian 64-bit words a, b, c, d:
    # the LCG starts from a:b and steps by c:d, forced odd.
    a, b, c, d = (out[2 * k] | out[2 * k + 1] << 32 for k in range(4))
    inc = ((c << 64 | d) << 1 | 1) & _MASK128
    state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
    low, width = float(low), float(high) - float(low)
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        yield low + width * ((x >> 11) * 2.0 ** -53)


def subsample(dense: ObservationSeries, spec: MeasurementSpec) -> ObservationSeries:
    """Apply a measurement function to a densely sampled series.

    Requested times always snap to the nearest dense sample: measurements
    are reads of the dense truth, never interpolations. Every kind snaps its
    times in nondecreasing order (h1 sorts them first), so the snapped
    indices are nondecreasing too and repeats are adjacent. For h2 the gaps are
    drawn relative to the previously snapped sample so that the realized
    gaps stay inside ``gap_bounds`` on grids at least as fine as the bounds.
    """
    t0, t1 = dense.span
    if spec.kind == "h1":
        t = np.asarray(spec.explicit_times, dtype=float)
        outside = (t < t0) | (t > t1)
        if outside.any():
            raise ValueError(f"subsample: explicit time {spec.explicit_times[outside.argmax()]} "
                             f"outside dense span [{t0}, {t1}]")
        idx = _drop_repeats(_nearest(dense.times, np.array(sorted(t.tolist()))))
    elif spec.kind == "h2":
        lo, hi = spec.gap_bounds
        gaps = _pcg64_uniform(spec.rng_seed, lo, hi)
        idx = [0]
        while True:
            t_next = dense.times[idx[-1]] + next(gaps)
            if t_next > t1:
                break
            i = int(_nearest(dense.times, t_next))
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
        idx = _drop_repeats(_nearest(dense.times, targets))
    return ObservationSeries(dense.times[idx], dense.values[idx])
