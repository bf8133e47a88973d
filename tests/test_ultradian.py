import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcsmooth import (
    BlowUpError,
    NutritionSchedule,
    UltradianParams,
    UltradianState,
    default_initial_state,
    icu_fit_params,
    nominal_params,
    simulate,
)
from mcsmooth.ultradian import read_trace, write_trace
from conftest import _rhs, f1, f2, f3, f4, simulate_oracle


def ref_rhs(y, p, ig):
    """Independent transcription of the model equations for cross-checking."""
    Ip, Ii, G, h1, h2, h3 = y
    kappa = (1.0 / p.c_4) * (1.0 / p.v_i - 1.0 / (p.e * p.t_i))
    F1 = p.r_m / (1.0 + np.exp(-G / (p.v_g * p.c_1) + p.a_1))
    F2 = p.u_b * (1.0 - np.exp(-G / (p.c_2 * p.v_g)))
    F3 = (p.u_0 + (p.u_m - p.u_0) / (1.0 + (kappa * Ii) ** (-p.beta))) / (p.c_3 * p.v_g)
    F4 = p.r_g / (1.0 + np.exp(p.alpha * (h3 / (p.c_5 * p.v_p) - 1.0)))
    ex = p.e * (Ip / p.v_p - Ii / p.v_i)
    return np.array([
        F1 - ex - Ip / p.t_p,
        ex - Ii / p.t_i,
        F4 + ig - F2 - F3 * G,
        (Ip - h1) / p.t_d,
        (h1 - h2) / p.t_d,
        (h2 - h3) / p.t_d,
    ])


class TestParams:
    def test_nominal_table_values(self):
        p = nominal_params()
        assert (p.v_p, p.v_i, p.v_g) == (3.0, 11.0, 10.0)
        assert (p.e, p.t_p, p.t_i, p.t_d, p.k) == (0.2, 6.0, 100.0, 12.0, 0.5)
        assert (p.r_m, p.a_1) == (209.0, 6.6)
        assert (p.c_1, p.c_2, p.c_3, p.c_4, p.c_5) == (300.0, 144.0, 100.0, 80.0, 26.0)
        assert (p.u_b, p.u_0, p.u_m) == (72.0, 4.0, 94.0)
        assert (p.r_g, p.alpha, p.beta) == (180.0, 7.5, 1.772)

    def test_icu_fit_variant(self):
        p = icu_fit_params()
        assert (p.t_p, p.a_1, p.r_g) == (5.5, 7.5, 225.0)
        nominal = nominal_params()
        for name in ("v_p", "v_i", "v_g", "e", "t_i", "t_d", "k", "r_m",
                     "c_1", "c_2", "c_3", "c_4", "c_5", "u_b", "u_0", "u_m",
                     "alpha", "beta"):
            assert getattr(p, name) == getattr(nominal, name)

    def test_kappa_arithmetic(self):
        want = (1.0 / 80.0) * (1.0 / 11.0 - 1.0 / 20.0)
        assert nominal_params().kappa == pytest.approx(want, rel=1e-15)

    # Unchecked, an infinite volume runs silently, a NaN one blows up at t = 1, an int no
    # float can hold ends simulate in OverflowError and True is no volume.
    @pytest.mark.parametrize("v_p", [0.0, -3.0, np.inf, np.nan, pytest.param(10**400, id="10**400"), True])
    def test_rejects_nonpositive(self, v_p):
        with pytest.raises(ValueError, match="UltradianParams: v_p must be finite and positive"):
            UltradianParams(v_p=v_p)

    def test_rejects_um_below_u0(self):
        with pytest.raises(ValueError, match="u_m"):
            UltradianParams(u_m=3.0)

    @pytest.mark.parametrize("v_i", [20.0, 25.0])
    def test_rejects_nonpositive_kappa(self, v_i):
        # kappa = (1/c_4)(1/v_i - 1/(e t_i)) with e t_i = 20: zero, then negative
        with pytest.raises(ValueError, match="kappa must be positive"):
            UltradianParams(v_i=v_i)


class TestNutrition:
    def sched(self):
        return NutritionSchedule(((0.0, 100.0, 80.0), (200.0, 300.0, 50.0)))

    @pytest.mark.parametrize("start, end", [(100.0, 100.0), (200.0, 100.0)])
    def test_an_interval_must_start_before_it_ends(self, start, end):
        with pytest.raises(ValueError, match="NutritionSchedule: interval start must precede end"):
            NutritionSchedule(((start, end, 80.0),))

    def test_outside_intervals_zero(self):
        assert self.sched().segment(150.0)[0] == 0.0
        assert self.sched().segment(-5.0)[0] == 0.0

    def test_half_open_boundaries(self):
        s = self.sched()
        assert s.segment(0.0)[0] == 80.0
        assert s.segment(100.0)[0] == 0.0
        assert s.segment(200.0)[0] == 50.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            NutritionSchedule(((0.0, 100.0, 80.0), (99.0, 150.0, 50.0)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative rate"):
            NutritionSchedule(((0.0, 100.0, -1.0),))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rate_rejected(self, rate):
        # a NaN or infinite feed would integrate to "non-finite state at t = 1 min"
        with pytest.raises(ValueError, match=f"NutritionSchedule: rate must be finite, got {rate!r}"):
            NutritionSchedule(((0.0, 100.0, 80.0), (200.0, 300.0, rate)))
        with pytest.raises(ValueError, match="NutritionSchedule: rate must be finite"):
            NutritionSchedule.constant(rate, 100.0)

    @pytest.mark.parametrize("interval, field", [
        ((10**400, 2.0, 80.0), "interval start"),
        ((0.0, 10**400, 80.0), "interval end"),
        ((0.0, 100.0, 10**400), "rate"),
        ((0, 1, "5"), "rate"),
        ((0, 1, True), "rate"),
    ])
    def test_a_value_no_float_holds_is_rejected(self, interval, field):
        # float() of such an int raises OverflowError, and it reads "5" as 5.0 and True as 1.0
        with pytest.raises(ValueError, match=f"NutritionSchedule: {field} must lie within the float range"):
            NutritionSchedule((interval,))

    @pytest.mark.parametrize("intervals", [5, (5.0,), ((0.0, 100.0),), ((0.0, 100.0, 80.0, 1.0),)])
    def test_intervals_of_another_shape_are_rejected(self, intervals):
        # each raised TypeError or an unpacking ValueError that names no field
        with pytest.raises(ValueError, match=r"^NutritionSchedule: intervals must be \(start, end, rate\) triples$"):
            NutritionSchedule(intervals)

    def test_nonfinite_rate_in_csv_rejected(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("0,100,80\n200,300,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="NutritionSchedule: rate must be finite, got nan"):
            NutritionSchedule.from_csv(p)

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("0,100,80\n200,300,50\n", encoding="utf-8")
        s = NutritionSchedule.from_csv(p)
        assert s.intervals == ((0.0, 100.0, 80.0), (200.0, 300.0, 50.0))

    def test_segment_gives_the_span_of_constant_rate(self):
        s = NutritionSchedule(((0.0, 100.0, 80.0), (100.0, 150.0, 0.0), (200.0, 300.0, 50.0)))
        assert s.segment(-5.0) == (0.0, -np.inf, 0.0)
        assert s.segment(0.0) == (80.0, 0.0, 100.0)
        assert s.segment(100.0) == (0.0, 100.0, 150.0)  # abutting: the later interval
        assert s.segment(150.0) == (0.0, 150.0, 200.0)
        assert s.segment(299.5) == (50.0, 200.0, 300.0)
        assert s.segment(300.0) == (0.0, 300.0, np.inf)
        assert NutritionSchedule.empty().segment(3.0) == (0.0, -np.inf, np.inf)

    @pytest.mark.parametrize("text, message", [
        ("0,100,80\n200,300\n", "load_nutrition: line 2: expected 3 columns"),
        ("0,100,eighty\n", "load_nutrition: line 1: parse failure"),
    ])
    def test_csv_errors_name_the_loader(self, tmp_path, text, message):
        p = tmp_path / "n.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            NutritionSchedule.from_csv(p)


class TestRhs:
    def test_f2_zero_at_origin(self):
        assert f2(0.0, nominal_params()) == 0.0

    def test_f1_saturates(self):
        p = nominal_params()
        assert f1(1e9, p) == pytest.approx(p.r_m, rel=1e-12)

    def test_f4_monotone_decreasing(self):
        p = nominal_params()
        h = np.linspace(1.0, 300.0, 50)
        vals = [f4(v, p) for v in h]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(2)
        p = icu_fit_params()
        for _ in range(50):
            y = np.abs(rng.normal([50, 80, 12000, 60, 60, 60], [20, 30, 4000, 20, 20, 20]))
            ig = rng.uniform(0, 200)
            got = np.array(_rhs(tuple(y.tolist()), p, ig))
            assert np.allclose(got, ref_rhs(y, p, ig), rtol=1e-12, atol=1e-12)

    def test_linear_in_nutrition(self):
        p = nominal_params()
        y = tuple(default_initial_state().as_array().tolist())
        m = 47.0
        d = np.array(_rhs(y, p, 2 * m)) - np.array(_rhs(y, p, m))
        want = np.zeros(6)
        want[2] = m
        assert np.allclose(d, want, atol=1e-12)

    def test_f3_takes_its_floor_where_the_power_overflows(self):
        p = nominal_params()
        assert f3(1e-200, p) == p.u_0 / (p.c_3 * p.v_g)
        assert f3(5e-324, p) == p.u_0 / (p.c_3 * p.v_g)  # kappa * i_i underflows to 0

    def test_rhs_at_overflowing_interstitial_insulin_matches_transcription(self):
        p = icu_fit_params()
        y = np.array([50.0, 1e-200, 12000.0, 60.0, 60.0, 60.0])
        got = np.array(_rhs(tuple(y.tolist()), p, 80.0))
        with np.errstate(over="ignore"):
            want = ref_rhs(y, p, 80.0)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_delay_chain_fixed_at_equilibrium(self):
        p = nominal_params()
        d = _rhs((55.0, 70.0, 11000.0, 55.0, 55.0, 55.0), p, 0.0)
        assert d[3:] == (0.0, 0.0, 0.0)


class TestSimulate:
    def test_minute_sampling_and_discard(self):
        r = simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(),
                     t_end=30.0, dt=0.5, discard=10.0)
        assert np.array_equal(r.times, np.arange(10.0, 31.0))
        assert r.states.shape == (21, 6)

    def test_glucose_unit_conversion(self):
        r = simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(),
                     t_end=1.0, dt=0.5)
        assert r.glucose[0] == pytest.approx(10000.0 / 10.0 * 0.1)  # 100 mg/dl

    def test_discard_beyond_horizon_leaves_no_output(self):
        with pytest.raises(ValueError, match="discard removed every output sample"):
            simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(),
                     t_end=30.0, dt=0.5, discard=30.5)
        # raised before integrating: a start that would blow up is never stepped
        bad = UltradianState(i_p=40.0, i_i=40.0, g=-1e7, h1=40.0, h2=40.0, h3=40.0)
        with pytest.raises(ValueError, match="discard removed every output sample"):
            simulate(nominal_params(), NutritionSchedule.empty(), bad,
                     t_end=30.0, dt=0.5, discard=31.0)

    @pytest.mark.parametrize("times, message", [
        (dict(t_end=10**400), "simulate: t_end must be finite and positive"),
        (dict(t_end=10.0, dt=10**400), "simulate: dt must be finite and positive"),
        (dict(t_end=10.0, discard=-10**400), "simulate: discard must be finite"),
        (dict(t_end=True), "simulate: t_end must be finite and positive"),
        (dict(t_end=-10**400), "^simulate: t_end must be finite and positive$"),
        (dict(t_end=10**5000), "^simulate: t_end must be finite and positive$"),
    ])
    def test_a_time_no_float_holds_is_rejected(self, times, message):
        # math.isfinite of such an int raises OverflowError, and True would run one minute.
        # The message never prints the int: 401 digits are noise, and over 4300 cannot be printed.
        with pytest.raises(ValueError, match=message):
            simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(), **times)

    def test_dt_must_divide_minute(self):
        with pytest.raises(ValueError, match="divide one minute"):
            simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(),
                     t_end=10.0, dt=0.3)

    def test_driven_oscillation_at_nominal(self):
        sched = NutritionSchedule.constant(100.0, 5000.0)
        r = simulate(nominal_params(), sched, default_initial_state(),
                     t_end=4000.0, dt=0.25, discard=2000.0)
        assert r.glucose.max() - r.glucose.min() > 5.0

    def test_step_halving_fourth_order(self):
        sched = NutritionSchedule.constant(100.0, 2000.0)
        runs = [
            simulate(nominal_params(), sched, default_initial_state(), 800.0, dt=dt).glucose
            for dt in (0.5, 0.25, 0.125)
        ]
        e12 = np.abs(runs[0] - runs[1]).max()
        e23 = np.abs(runs[1] - runs[2]).max()
        assert e12 / e23 >= 12.0

    def test_blow_up_detected(self):
        bad = UltradianState(i_p=40.0, i_i=40.0, g=-1e7, h1=40.0, h2=40.0, h3=40.0)
        with pytest.raises(BlowUpError, match="t ="):
            simulate(nominal_params(), NutritionSchedule.empty(), bad, t_end=50.0, dt=0.5)

    def test_trace_roundtrip(self, tmp_path):
        r = simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(),
                     t_end=5.0, dt=0.5)
        path = tmp_path / "trace.csv"
        write_trace(r, path)
        data = np.loadtxt(path, delimiter=",")
        assert data.shape == (6, 7)
        assert np.allclose(data[:, 0], r.times)
        assert np.allclose(data[:, 1], r.glucose)

    def test_trace_with_a_short_column_is_not_written(self, tmp_path):
        # SimulationResult does not check its lengths; the writer must not drop rows.
        r = simulate(nominal_params(), NutritionSchedule.empty(), default_initial_state(),
                     t_end=5.0, dt=0.5)
        short = dataclasses.replace(r, glucose=r.glucose[:-1])
        with pytest.raises(ValueError, match="equal-length"):
            write_trace(short, tmp_path / "trace.csv")

    def test_read_trace_returns_exact_times_and_glucose(self, tmp_path):
        r = simulate(icu_fit_params(), NutritionSchedule.constant(80.0, 100.0),
                     default_initial_state(), t_end=60.0, dt=0.1)
        path = tmp_path / "trace.csv"
        write_trace(r, path)
        back = read_trace(path)
        assert np.array_equal(back.times, r.times)
        assert np.array_equal(back.values, r.glucose)

    @pytest.mark.parametrize("bad_row", ["3.0,1.0,2.0,3.0,4.0,5.0", "3.0,1.0,2.0,3.0,4.0,5.0,6.0,7.0"])
    def test_read_trace_names_the_line_of_another_width(self, tmp_path, bad_row):
        good = "{t}.0,100.0,1.0,2.0,3.0,4.0,5.0\n"
        path = tmp_path / "trace.csv"
        path.write_text(good.format(t=0) + good.format(t=1) + bad_row + "\n" + good.format(t=4),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="read_trace: line 3: expected 7 columns"):
            read_trace(path)

    def test_step_makes_no_python_call_per_substep(self):
        # The four stage evaluations are written out in the step; a call per
        # stage would make 4000 calls here. No timing is involved.
        calls = []

        def count(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        args = (icu_fit_params(), NutritionSchedule.constant(80.0, 101.0), default_initial_state())
        sys.setprofile(count)
        try:
            simulate(*args, t_end=100.0, dt=0.1)
        finally:
            sys.setprofile(None)
        assert len(calls) < 100 * 10, calls[:20]

    def test_constant_feed_looks_the_rate_up_once_per_span(self, monkeypatch):
        calls = []
        segment = NutritionSchedule.segment

        def counted(self, t):
            calls.append(t)
            return segment(self, t)

        monkeypatch.setattr(NutritionSchedule, "segment", counted)
        simulate(icu_fit_params(), NutritionSchedule.constant(80.0, 1001.0),
                 default_initial_state(), t_end=1000.0, dt=0.1)
        assert len(calls) <= 2  # not 3 per step: 30000

        calls.clear()
        sched = NutritionSchedule(((0.0, 100.3, 80.0), (100.3, 400.0, 20.0), (600.0, 700.0, 50.0)))
        simulate(icu_fit_params(), sched, default_initial_state(), t_end=1000.0, dt=0.1)
        # five spans, each entered at most a few times as substep times cross its ends
        assert len(calls) <= 3 * 5


# --- the float RK4 against the numpy 6-vector oracle, bit for bit

PARAM_FIELDS = [f.name for f in dataclasses.fields(UltradianParams)]
STATE_FIELDS = [f.name for f in dataclasses.fields(UltradianState)]


def substep_edges(dt, n_min):
    """Interval edges on the integrator's own float times.

    An edge is a substep start t, its midpoint t + 0.5*h, or its end t + h.
    """
    steps = round(1.0 / dt)
    h = 1.0 / steps
    return st.builds(
        lambda minute, s, kind: minute + s * h + kind * h,
        st.integers(0, max(n_min - 1, 0)), st.integers(0, steps - 1), st.sampled_from([0.0, 0.5, 1.0]),
    )


@st.composite
def scaled_params(draw):
    """The nominal or ICU parameters, each field possibly scaled by 0.8-1.25.

    Scalings that leave kappa nonpositive (v_i >= e * t_i) are rejected:
    ``UltradianParams`` refuses them.
    """
    params = draw(st.sampled_from([nominal_params(), icu_fit_params()]))
    if draw(st.booleans()):
        factors = draw(st.lists(st.floats(0.8, 1.25), min_size=len(PARAM_FIELDS),
                                max_size=len(PARAM_FIELDS)))
        fields = {name: getattr(params, name) * f for name, f in zip(PARAM_FIELDS, factors)}
        assume(1.0 / fields["v_i"] - 1.0 / (fields["e"] * fields["t_i"]) > 0)
        params = UltradianParams(**fields)
    return params


@st.composite
def simulation_cases(draw):
    params = draw(scaled_params())
    initial = default_initial_state()
    if draw(st.booleans()):
        factors = draw(st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6))
        initial = UltradianState(*(getattr(initial, name) * f
                                   for name, f in zip(STATE_FIELDS, factors)))
    dt = draw(st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1]))
    t_end = draw(st.floats(1.0, 120.0))
    n_min = int(np.floor(t_end + 1e-9))
    edge = substep_edges(dt, n_min)
    n_iv = draw(st.integers(0, 4))
    edges = sorted(set(draw(st.lists(edge, min_size=2 * n_iv, max_size=2 * n_iv))))
    edges = edges[: len(edges) // 2 * 2]
    rates = draw(st.lists(st.floats(0.0, 300.0), min_size=len(edges) // 2,
                          max_size=len(edges) // 2))
    schedule = NutritionSchedule(tuple((a, b, r) for a, b, r in zip(edges[::2], edges[1::2], rates)))
    discard = draw(st.one_of(st.just(0.0), st.floats(-30.0, -0.01), st.floats(0.01, float(n_min)),
                             st.integers(-5, n_min).map(float)))
    return params, schedule, initial, t_end, dt, discard


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BlowUpError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(simulation_cases())
def test_simulate_matches_the_vector_oracle_bitwise(case):
    got, want = _outcome(simulate, *case), _outcome(simulate_oracle, *case)
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.glucose, want.glucose)
    assert np.array_equal(got.states, want.states)


def test_blow_up_matches_the_vector_oracle():
    bad = UltradianState(i_p=40.0, i_i=40.0, g=-1e7, h1=40.0, h2=40.0, h3=40.0)
    args = (nominal_params(), NutritionSchedule.empty(), bad, 50.0, 0.5)
    with pytest.raises(BlowUpError, match="t =") as got:
        simulate(*args)
    with pytest.raises(BlowUpError) as want:
        simulate_oracle(*args)
    assert str(got.value) == str(want.value)


@st.composite
def shaped_schedule_cases(draw):
    """``simulation_cases`` with an empty schedule, abutting intervals, or
    intervals separated by gaps, where any rate may be zero."""
    params, _, initial, t_end, dt, discard = draw(simulation_cases())
    shape = draw(st.sampled_from(["empty", "abutting", "gapped"]))
    edges = sorted(set(draw(st.lists(substep_edges(dt, int(np.floor(t_end + 1e-9))),
                                     min_size=2, max_size=7))))
    if shape == "empty" or len(edges) < 2:
        spans = []
    elif shape == "abutting":
        spans = list(zip(edges, edges[1:]))
    else:
        spans = list(zip(edges[::2], edges[1::2]))
    rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
                          min_size=len(spans), max_size=len(spans)))
    schedule = NutritionSchedule(tuple((a, b, r) for (a, b), r in zip(spans, rates)))
    return params, schedule, initial, t_end, dt, discard


@settings(max_examples=60, deadline=None)
@given(shaped_schedule_cases())
def test_simulate_matches_the_vector_oracle_on_shaped_schedules(case):
    got, want = _outcome(simulate, *case), _outcome(simulate_oracle, *case)
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.glucose, want.glucose)
    assert np.array_equal(got.states, want.states)


@st.composite
def floor_cases(draw):
    """``simulation_cases`` started at an i_i where f3 takes its floor u_0 term.

    i_i is zero, negative, or so small that the power overflows. A negative
    i_p keeps i_i at or under zero through all four stages of the first
    steps, so each stage's i_i <= 0 branch runs.
    """
    params, schedule, initial, t_end, dt, discard = draw(simulation_cases())
    initial = dataclasses.replace(initial, i_p=draw(st.floats(-50.0, 300.0)),
                                  i_i=draw(st.sampled_from([0.0, -0.0, -3.0, 1e-200, 5e-324])))
    return params, schedule, initial, t_end, dt, discard


@settings(max_examples=60, deadline=None)
@given(floor_cases())
def test_simulate_matches_the_vector_oracle_on_the_utilization_floor(case):
    got = _outcome(simulate, *case)
    want = _outcome(simulate_oracle, *case)
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.glucose, want.glucose)
    assert np.array_equal(got.states, want.states)



def test_simulate_matches_the_vector_oracle_where_every_stage_overflows_the_power():
    # With v_p = 1e300 no plasma insulin reaches the interstitial pool, so i_i stays
    # near 1e-200 through all four stages, and in each (kappa i_i) ** -beta overflows
    # to the u_0 floor of f3.
    params = dataclasses.replace(icu_fit_params(), v_p=1e300)
    initial = dataclasses.replace(default_initial_state(), i_i=1e-200)
    args = (params, NutritionSchedule.empty(), initial, 3.0, 0.5)
    got, want = simulate(*args), simulate_oracle(*args)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)


@pytest.mark.parametrize("name", STATE_FIELDS)
def test_a_start_no_float_holds_is_rejected_before_the_first_step(name):
    # Unchecked, the first state row or step ends in OverflowError.
    initial = dataclasses.replace(default_initial_state(), **{name: 10**400})
    with pytest.raises(ValueError, match=f"^simulate: initial {name} must be a number$"):
        simulate(icu_fit_params(), NutritionSchedule.empty(), initial, 3.0, 0.5)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", STATE_FIELDS)
def test_a_non_finite_start_is_caught_after_the_first_minute(name, value):
    initial = dataclasses.replace(default_initial_state(), **{name: value})
    args = (icu_fit_params(), NutritionSchedule.empty(), initial, 3.0, 0.5)
    for fn in (simulate, simulate_oracle):
        with pytest.raises(BlowUpError, match=r"^simulate: non-finite state at t = 1 min$"):
            fn(*args)
