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

from .timeseries import ObservationSeries, _is_number, read_columns, write_columns

__all__ = [
    "UltradianParams",
    "UltradianState",
    "NutritionSchedule",
    "SimulationResult",
    "BlowUpError",
    "nominal_params",
    "icu_fit_params",
    "default_initial_state",
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
            value = getattr(self, name)
            if not (_is_number(value) and 0 < value < math.inf):
                raise ValueError(f"UltradianParams: {name} must be finite and positive")
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


def default_initial_state() -> UltradianState:
    """A physiological starting point (~100 mg/dl); run a transient to settle."""
    return UltradianState(i_p=40.0, i_i=40.0, g=10000.0, h1=40.0, h2=40.0, h3=40.0)


@dataclass(frozen=True)
class NutritionSchedule:
    """Non-overlapping constant-rate carbohydrate intervals, mg/min.

    Each interval is half-open [t_start, t_end); outside all intervals the
    rate is zero. Rates must be finite and nonnegative.
    """

    intervals: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not (isinstance(self.intervals, (tuple, list))
                and all(isinstance(iv, (tuple, list)) and len(iv) == 3 for iv in self.intervals)):
            raise ValueError("NutritionSchedule: intervals must be (start, end, rate) triples")
        for interval in self.intervals:
            for field, value in zip(("interval start", "interval end", "rate"), interval):
                if not _is_number(value):
                    raise ValueError(f"NutritionSchedule: {field} must lie within the float range "
                                     "as a number")
        iv = tuple(sorted((float(a), float(b), float(r)) for a, b, r in self.intervals))
        object.__setattr__(self, "intervals", iv)
        for t0, t1, rate in iv:
            if not t0 < t1:
                raise ValueError("NutritionSchedule: interval start must precede end")
            if not math.isfinite(rate):
                raise ValueError(f"NutritionSchedule: rate must be finite, got {rate!r}")
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
    def constant(cls, rate: float, t_end: float) -> "NutritionSchedule":
        return cls(((0.0, t_end, rate),))

    @classmethod
    def from_csv(cls, path) -> "NutritionSchedule":
        """Read "t_start,t_end,rate_mg_per_min" rows."""
        return cls(read_columns(path, 3, "load_nutrition").T.tolist())

    def segment(self, t: float) -> tuple[float, float, float]:
        """``(rate, lo, hi)``: the rate at t and the span [lo, hi) it holds on.

        Inside an interval the span is the interval. Elsewhere the rate is
        zero and the span is the gap between neighbouring intervals; before
        the first interval it starts at -inf, after the last it ends at +inf.
        """
        iv = self.intervals
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0:
            t0, t1, rate = iv[i]
            if t < t1:
                return rate, t0, t1
            lo = t1
        else:
            lo = -math.inf
        return 0.0, lo, iv[i + 1][0] if i + 1 < len(iv) else math.inf


@dataclass(frozen=True)
class SimulationResult:
    """Minute-sampled trajectory; ``states`` columns are Ip, Ii, G, h1, h2, h3."""

    times: np.ndarray
    glucose: np.ndarray  # mg/dl
    states: np.ndarray


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

    The right-hand side is stated once, here: the four stage evaluations
    are written out in the step on local floats, each in the same operation
    order, so a step calls no Python function. The 483,200 right-hand side
    calls of an ICU week, each packing and unpacking a 6-tuple, took about a
    sixth of its time. Where (kappa I_i)^(-beta) is +inf, the
    insulin-dependent utilization reduces to its floor u_0 term: for
    I_i <= 0 (the I_i -> 0+ limit) and for an I_i so small that the power
    overflows, which keeps the right-hand side total if an integration
    undershoots zero. The parameter fields are read once per call. Only
    products, differences and quotients of constants are hoisted out of the
    step (``v_g*c_1``, ``c_2*v_g``, ``c_3*v_g``, ``c_5*v_p``, ``u_m-u_0``,
    ``kappa``, ``-beta``): each is a parenthesised unit of the equations, so
    the hoisted float is the float the step would compute. No division
    becomes a reciprocal multiply and no sum is regrouped, since either
    would round differently. The nutrition rate is looked up once per
    constant-rate span (:meth:`NutritionSchedule.segment`) and reused while
    the substep times stay inside it.
    """
    # A value is shown only if it is a number: an int of over 4300 digits cannot even be formatted.
    for name, value, positive in (("t_end", t_end, True), ("dt", dt, True), ("discard", discard, False)):
        if not (_is_number(value) and math.isfinite(value) and (value > 0 or not positive)):
            shown = f", got {value!r}" if _is_number(value) else ""
            raise ValueError(f"simulate: {name} must be finite{' and positive' if positive else ''}{shown}")
    for name in UltradianState.__dataclass_fields__:
        if not _is_number(getattr(initial, name)):
            raise ValueError(f"simulate: initial {name} must be a number")
    steps_per_min = round(1.0 / dt)
    if steps_per_min < 1 or abs(steps_per_min * dt - 1.0) > 1e-9:
        raise ValueError("simulate: dt must divide one minute exactly")

    n_min = int(math.floor(t_end + 1e-9))
    if not discard <= n_min:
        raise ValueError("simulate: discard removed every output sample")
    first = math.ceil(discard) if discard > 0 else 0
    states = np.empty((n_min + 1 - first, 6))
    y0, y1, y2, y3, y4, y5 = initial.as_array().tolist()
    if first == 0:
        states[0] = y0, y1, y2, y3, y4, y5

    p = params
    v_p, v_i, e, t_p, t_i, t_d = p.v_p, p.v_i, p.e, p.t_p, p.t_i, p.t_d
    r_m, a_1, u_b, u_0, r_g, alpha = p.r_m, p.a_1, p.u_b, p.u_0, p.r_g, p.alpha
    vg_c1, c2_vg, c3_vg, c5_vp = p.v_g * p.c_1, p.c_2 * p.v_g, p.c_3 * p.v_g, p.c_5 * p.v_p
    du, kappa, neg_beta = p.u_m - p.u_0, p.kappa, -p.beta
    exp, inf = math.exp, math.inf
    segment = schedule.segment
    rate, lo, hi = segment(0.0)
    h = 1.0 / steps_per_min
    half_h, h6 = 0.5 * h, h / 6.0
    for minute in range(n_min):
        for s in range(steps_per_min):
            t = minute + s * h
            if not lo <= t < hi:
                rate, lo, hi = segment(t)
            i_start = rate
            t_mid = t + half_h
            if not lo <= t_mid < hi:
                rate, lo, hi = segment(t_mid)
            i_mid = rate
            t_next = t + h
            if not lo <= t_next < hi:
                rate, lo, hi = segment(t_next)
            try:
                # k1 = f(t, y)
                if y1 <= 0.0:
                    damping = inf
                else:
                    try:
                        damping = (kappa * y1) ** neg_beta
                    except (OverflowError, ZeroDivisionError):
                        damping = inf
                exchange = e * (y0 / v_p - y1 / v_i)
                # insulin secretion f1(G), exchange and plasma degradation
                a0 = r_m / (1.0 + exp(-y2 / vg_c1 + a_1)) - exchange - y0 / t_p
                a1 = exchange - y1 / t_i
                # delayed production f4(h3) plus feed, minus insulin-independent
                # utilization f2(G) and insulin-dependent utilization f3(I_i) G
                a2 = (r_g / (1.0 + exp(alpha * (y5 / c5_vp - 1.0))) + i_start
                      - u_b * (1.0 - exp(-y2 / c2_vg))
                      - (u_0 + du / (1.0 + damping)) / c3_vg * y2)
                a3 = (y0 - y3) / t_d
                a4 = (y3 - y4) / t_d
                a5 = (y4 - y5) / t_d

                # k2 = f(t + h/2, y + (h/2) k1)
                q0, q1, q2 = y0 + half_h * a0, y1 + half_h * a1, y2 + half_h * a2
                q3, q4, q5 = y3 + half_h * a3, y4 + half_h * a4, y5 + half_h * a5
                if q1 <= 0.0:
                    damping = inf
                else:
                    try:
                        damping = (kappa * q1) ** neg_beta
                    except (OverflowError, ZeroDivisionError):
                        damping = inf
                exchange = e * (q0 / v_p - q1 / v_i)
                b0 = r_m / (1.0 + exp(-q2 / vg_c1 + a_1)) - exchange - q0 / t_p
                b1 = exchange - q1 / t_i
                b2 = (r_g / (1.0 + exp(alpha * (q5 / c5_vp - 1.0))) + i_mid
                      - u_b * (1.0 - exp(-q2 / c2_vg))
                      - (u_0 + du / (1.0 + damping)) / c3_vg * q2)
                b3 = (q0 - q3) / t_d
                b4 = (q3 - q4) / t_d
                b5 = (q4 - q5) / t_d

                # k3 = f(t + h/2, y + (h/2) k2)
                q0, q1, q2 = y0 + half_h * b0, y1 + half_h * b1, y2 + half_h * b2
                q3, q4, q5 = y3 + half_h * b3, y4 + half_h * b4, y5 + half_h * b5
                if q1 <= 0.0:
                    damping = inf
                else:
                    try:
                        damping = (kappa * q1) ** neg_beta
                    except (OverflowError, ZeroDivisionError):
                        damping = inf
                exchange = e * (q0 / v_p - q1 / v_i)
                c0 = r_m / (1.0 + exp(-q2 / vg_c1 + a_1)) - exchange - q0 / t_p
                c1 = exchange - q1 / t_i
                c2 = (r_g / (1.0 + exp(alpha * (q5 / c5_vp - 1.0))) + i_mid
                      - u_b * (1.0 - exp(-q2 / c2_vg))
                      - (u_0 + du / (1.0 + damping)) / c3_vg * q2)
                c3 = (q0 - q3) / t_d
                c4 = (q3 - q4) / t_d
                c5 = (q4 - q5) / t_d

                # k4 = f(t + h, y + h k3)
                q0, q1, q2 = y0 + h * c0, y1 + h * c1, y2 + h * c2
                q3, q4, q5 = y3 + h * c3, y4 + h * c4, y5 + h * c5
                if q1 <= 0.0:
                    damping = inf
                else:
                    try:
                        damping = (kappa * q1) ** neg_beta
                    except (OverflowError, ZeroDivisionError):
                        damping = inf
                exchange = e * (q0 / v_p - q1 / v_i)
                d0 = r_m / (1.0 + exp(-q2 / vg_c1 + a_1)) - exchange - q0 / t_p
                d1 = exchange - q1 / t_i
                d2 = (r_g / (1.0 + exp(alpha * (q5 / c5_vp - 1.0))) + rate
                      - u_b * (1.0 - exp(-q2 / c2_vg))
                      - (u_0 + du / (1.0 + damping)) / c3_vg * q2)
                d3 = (q0 - q3) / t_d
                d4 = (q3 - q4) / t_d
                d5 = (q4 - q5) / t_d
            except (OverflowError, ValueError) as exc:
                raise BlowUpError(f"simulate: state blew up near t = {t:.3f} min") from exc
            y0 = y0 + h6 * (((a0 + 2.0 * b0) + 2.0 * c0) + d0)
            y1 = y1 + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1)
            y2 = y2 + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2)
            y3 = y3 + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3)
            y4 = y4 + h6 * (((a4 + 2.0 * b4) + 2.0 * c4) + d4)
            y5 = y5 + h6 * (((a5 + 2.0 * b5) + 2.0 * c5) + d5)
        y = y0, y1, y2, y3, y4, y5
        if not all(map(math.isfinite, y)):
            raise BlowUpError(f"simulate: non-finite state at t = {minute + 1} min")
        if minute + 1 >= first:
            states[minute + 1 - first] = y

    times = np.arange(first, n_min + 1, dtype=float)
    return SimulationResult(times, states[:, 2] / params.v_g * 0.1, states)


def write_trace(result: SimulationResult, path) -> None:
    """Write the minute trace as "t,G_mg_dl,Ip,Ii,h1,h2,h3"."""
    st = result.states
    write_columns(path, result.times, result.glucose, st[:, 0], st[:, 1], st[:, 3], st[:, 4], st[:, 5])


def read_trace(path) -> ObservationSeries:
    """The (t, G_mg_dl) columns of a "t,G_mg_dl,Ip,Ii,h1,h2,h3" trace.

    Every nonblank line must have seven fields; only the first two are parsed.
    """
    times, glucose = read_columns(path, 7, "read_trace", usecols=(0, 1))
    return ObservationSeries(times, glucose)
