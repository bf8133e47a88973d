"""Ultradian glucose-insulin ODE: six states, nutrition driver, RK4 integrator.

States are plasma insulin I_p (mU), interstitial insulin I_i (mU), glucose
mass G (mg), and the three-stage delay chain h1-h3 (mU) approximating the
hepatic response delay. Glucose is reported as a concentration in mg/dl
(mass divided by the glucose space V_g in liters, times 0.1) while the ODE
itself tracks mass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .timeseries import ObservationSeries, read_csv_rows, write_csv_rows

__all__ = [
    "UltradianParams",
    "UltradianState",
    "NutritionSchedule",
    "SimulationResult",
    "BlowUpError",
    "nominal_params",
    "icu_fit_params",
    "default_initial_state",
    "nutrition_rate",
    "ultradian_rhs",
    "simulate",
]


class BlowUpError(RuntimeError):
    """Raised when the integration produces a non-finite state."""


@dataclass(frozen=True)
class UltradianParams:
    """The 21 model constants; defaults are the nominal values.

    ``alpha`` (delayed-utilization exponent) and ``a_1`` (secretion exponent)
    are distinct parameters that merely happen to share the value 7.5 in the
    ICU fit. ``k`` is carried for completeness but unused by this right-hand
    side, which has no meal-absorption compartment.
    """

    v_p: float = 3.0      # plasma volume, l
    v_i: float = 11.0     # interstitial volume, l
    v_g: float = 10.0     # glucose space, l
    e: float = 0.2        # insulin exchange rate, l/min
    t_p: float = 6.0      # plasma insulin degradation time, min
    t_i: float = 100.0    # interstitial insulin degradation time, min
    t_d: float = 12.0     # hepatic delay per chain stage, min
    k: float = 0.5        # ingested-glucose decay rate, 1/min
    r_m: float = 209.0    # max insulin secretion, mU/min
    a_1: float = 6.6      # secretion exponent
    c_1: float = 300.0    # secretion scale, mg/l
    c_2: float = 144.0    # insulin-independent utilization scale, mg/l
    c_3: float = 100.0    # insulin-dependent utilization scale, mg/l
    c_4: float = 80.0     # insulin-dependent utilization factor, mU/l
    c_5: float = 26.0     # delayed utilization scale, mU/l
    u_b: float = 72.0     # max insulin-independent utilization, mg/min
    u_0: float = 4.0      # min insulin-dependent utilization, mg/min
    u_m: float = 94.0     # max insulin-dependent utilization, mg/min
    r_g: float = 180.0    # max delayed glucose production, mg/min
    alpha: float = 7.5    # delayed-utilization exponent
    beta: float = 1.772   # insulin-dependent utilization exponent

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0:
                raise ValueError(f"UltradianParams: {name} must be positive")
        if self.u_m <= self.u_0:
            raise ValueError("UltradianParams: u_m must exceed u_0")
        if self.kappa <= 0:
            raise ValueError("UltradianParams: kappa must be positive (v_i < e * t_i)")

    @property
    def kappa(self) -> float:
        return (1.0 / self.c_4) * (1.0 / self.v_i - 1.0 / (self.e * self.t_i))


def nominal_params() -> UltradianParams:
    return UltradianParams()


def icu_fit_params() -> UltradianParams:
    """Parameters fitted to the tube-fed ICU record: t_p, a_1 and R_g moved."""
    return replace(nominal_params(), t_p=5.5, a_1=7.5, r_g=225.0)


@dataclass(frozen=True)
class UltradianState:
    i_p: float
    i_i: float
    g: float
    h1: float
    h2: float
    h3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.i_p, self.i_i, self.g, self.h1, self.h2, self.h3])

    @classmethod
    def from_array(cls, arr) -> "UltradianState":
        return cls(*(float(v) for v in arr))

    def glucose_mg_dl(self, params: UltradianParams) -> float:
        return self.g / params.v_g * 0.1


def default_initial_state() -> UltradianState:
    """A physiological starting point (~100 mg/dl); run a transient to settle."""
    return UltradianState(i_p=40.0, i_i=40.0, g=10000.0, h1=40.0, h2=40.0, h3=40.0)


@dataclass(frozen=True)
class NutritionSchedule:
    """Non-overlapping constant-rate carbohydrate intervals, mg/min.

    Each interval is half-open [t_start, t_end); outside all intervals the
    rate is zero.
    """

    intervals: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        iv = tuple(sorted((float(a), float(b), float(r)) for a, b, r in self.intervals))
        object.__setattr__(self, "intervals", iv)
        for t0, t1, rate in iv:
            if not t0 < t1:
                raise ValueError("NutritionSchedule: interval start must precede end")
            if rate < 0:
                raise ValueError("NutritionSchedule: negative rate")
        for (_, end, _), (start, _, _) in zip(iv, iv[1:]):
            if start < end:
                raise ValueError("NutritionSchedule: overlapping intervals")
        object.__setattr__(self, "_starts", [t0 for t0, _, _ in iv])

    @classmethod
    def empty(cls) -> "NutritionSchedule":
        return cls(())

    @classmethod
    def constant(cls, rate: float, t_end: float, t_start: float = 0.0) -> "NutritionSchedule":
        return cls(((t_start, t_end, rate),))

    @classmethod
    def from_csv(cls, path) -> "NutritionSchedule":
        """Read "t_start,t_end,rate_mg_per_min" rows."""
        return cls(tuple(read_csv_rows(path, 3, "load_nutrition")))


def nutrition_rate(t: float, schedule: NutritionSchedule) -> float:
    """Carbohydrate rate at time t (mg/min)."""
    iv = schedule.intervals
    if not iv:
        return 0.0
    i = bisect.bisect_right(schedule._starts, t) - 1
    if i >= 0 and iv[i][0] <= t < iv[i][1]:
        return iv[i][2]
    return 0.0


def f1(g: float, p: UltradianParams) -> float:
    """Insulin secretion as a function of glucose mass."""
    return p.r_m / (1.0 + math.exp(-g / (p.v_g * p.c_1) + p.a_1))


def f2(g: float, p: UltradianParams) -> float:
    """Insulin-independent glucose utilization."""
    return p.u_b * (1.0 - math.exp(-g / (p.c_2 * p.v_g)))


def f3(i_i: float, p: UltradianParams) -> float:
    """Insulin-dependent glucose utilization rate per unit glucose mass.

    Where (kappa i_i)^(-beta) is +inf, f3 reduces to its floor u_0 term:
    for i_i <= 0 (the i_i -> 0+ limit) and for an i_i so small that the
    power overflows. This keeps the right-hand side total if an exploratory
    integration undershoots zero.
    """
    if i_i <= 0.0:
        damping = math.inf
    else:
        try:
            damping = (p.kappa * i_i) ** (-p.beta)
        except (OverflowError, ZeroDivisionError):
            damping = math.inf
    return (p.u_0 + (p.u_m - p.u_0) / (1.0 + damping)) / (p.c_3 * p.v_g)


def f4(h3: float, p: UltradianParams) -> float:
    """Delayed insulin-dependent glucose production."""
    return p.r_g / (1.0 + math.exp(p.alpha * (h3 / (p.c_5 * p.v_p) - 1.0)))


def _rhs(y: tuple, p: UltradianParams, i_g: float) -> tuple:
    """Time derivative of the 6-tuple (Ip, Ii, G, h1, h2, h3), in Python floats."""
    i_p, i_i, g, h1, h2, h3 = y
    exchange = p.e * (i_p / p.v_p - i_i / p.v_i)
    return (
        f1(g, p) - exchange - i_p / p.t_p,
        exchange - i_i / p.t_i,
        f4(h3, p) + i_g - f2(g, p) - f3(i_i, p) * g,
        (i_p - h1) / p.t_d,
        (h1 - h2) / p.t_d,
        (h2 - h3) / p.t_d,
    )


def ultradian_rhs(state: UltradianState, params: UltradianParams, i_g: float) -> UltradianState:
    """Time derivative of the state under nutrition input i_g (mg/min)."""
    return UltradianState.from_array(_rhs(tuple(state.as_array().tolist()), params, i_g))


@dataclass(frozen=True)
class SimulationResult:
    """Minute-sampled trajectory; ``states`` columns are Ip, Ii, G, h1, h2, h3."""

    times: np.ndarray
    glucose: np.ndarray  # mg/dl
    states: np.ndarray

    def observations(self) -> ObservationSeries:
        return ObservationSeries(self.times, self.glucose)


def simulate(
    params: UltradianParams,
    schedule: NutritionSchedule,
    initial: UltradianState,
    t_end: float,
    dt: float = 0.1,
    discard: float = 0.0,
) -> SimulationResult:
    """Integrate with classical fixed-step RK4 and record every minute.

    dt must divide one minute exactly so that outputs land on the minute
    grid without interpolation. Minutes before ``discard`` are integrated
    but omitted from the result (transient removal); reported times stay
    absolute. Raises BlowUpError with the offending time if the state stops
    being finite or a right-hand side evaluation overflows.

    The step runs on Python floats, one component at a time, and its
    operation order is a contract: each stage state is ``y_i + (0.5*h)*k_i``
    (the last one ``y_i + h*k3_i``) and the update is
    ``y_i + (h/6)*(((k1_i + 2*k2_i) + 2*k3_i) + k4_i)``. This is the order
    numpy applies to the 6-vector form of the scheme, so the states are
    bit-identical to it; a test checks that bitwise against the 6-vector
    loop.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("simulate: dt and t_end must be positive")
    steps_per_min = round(1.0 / dt)
    if steps_per_min < 1 or abs(steps_per_min * dt - 1.0) > 1e-9:
        raise ValueError("simulate: dt must divide one minute exactly")

    n_min = int(math.floor(t_end + 1e-9))
    if not discard <= n_min:
        raise ValueError("simulate: discard removed every output sample")
    first = math.ceil(discard) if discard > 0 else 0
    states = np.empty((n_min + 1 - first, 6))
    y = tuple(initial.as_array().tolist())
    if first == 0:
        states[0] = y

    h = 1.0 / steps_per_min
    half_h, h6 = 0.5 * h, h / 6.0
    for minute in range(n_min):
        for s in range(steps_per_min):
            t = minute + s * h
            y0, y1, y2, y3, y4, y5 = y
            try:
                a0, a1, a2, a3, a4, a5 = _rhs(y, params, nutrition_rate(t, schedule))
                i_mid = nutrition_rate(t + half_h, schedule)
                b0, b1, b2, b3, b4, b5 = _rhs(
                    (y0 + half_h * a0, y1 + half_h * a1, y2 + half_h * a2,
                     y3 + half_h * a3, y4 + half_h * a4, y5 + half_h * a5), params, i_mid)
                c0, c1, c2, c3, c4, c5 = _rhs(
                    (y0 + half_h * b0, y1 + half_h * b1, y2 + half_h * b2,
                     y3 + half_h * b3, y4 + half_h * b4, y5 + half_h * b5), params, i_mid)
                d0, d1, d2, d3, d4, d5 = _rhs(
                    (y0 + h * c0, y1 + h * c1, y2 + h * c2,
                     y3 + h * c3, y4 + h * c4, y5 + h * c5),
                    params, nutrition_rate(t + h, schedule))
            except (OverflowError, ValueError) as exc:
                raise BlowUpError(f"simulate: state blew up near t = {t:.3f} min") from exc
            y = (
                y0 + h6 * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
                y1 + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
                y2 + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
                y3 + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
                y4 + h6 * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
                y5 + h6 * (((a5 + 2.0 * b5) + 2.0 * c5) + d5),
            )
        if not all(map(math.isfinite, y)):
            raise BlowUpError(f"simulate: non-finite state at t = {minute + 1} min")
        if minute + 1 >= first:
            states[minute + 1 - first] = y

    times = np.arange(first, n_min + 1, dtype=float)
    return SimulationResult(times, states[:, 2] / params.v_g * 0.1, states)


def write_trace(result: SimulationResult, path) -> None:
    """Write the minute trace as "t,G_mg_dl,Ip,Ii,h1,h2,h3"."""
    cols = np.column_stack((result.times, result.glucose, result.states[:, [0, 1, 3, 4, 5]]))
    write_csv_rows(path, (map(repr, row.tolist()) for row in cols))


def read_trace(path) -> SimulationResult:
    """Parse a "t,G_mg_dl,Ip,Ii,h1,h2,h3" trace back into a SimulationResult.

    The stored glucose column is a concentration; the states matrix carries
    the reconstructed mass (V_g from the nominal table).
    """
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"read_trace: file not found: {p}")
    data = np.loadtxt(p, delimiter=",", ndmin=2)
    if data.shape[1] != 7:
        raise ValueError(f"read_trace: expected 7 columns, got {data.shape[1]}")
    times, glucose = data[:, 0], data[:, 1]
    states = np.column_stack([
        data[:, 2], data[:, 3], glucose * 10.0 * nominal_params().v_g,
        data[:, 4], data[:, 5], data[:, 6],
    ])
    return SimulationResult(times, glucose, states)
