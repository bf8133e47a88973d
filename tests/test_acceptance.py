"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 7's zero-nutrition clause is asserted as what the equations do:
without nutrition their one fixed point is an unstable focus, so glucose
settles on a limit cycle of about 12 mg/dl (period about 145 min with the
nominal parameters) instead of at an equilibrium.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import fsolve

from mcsmooth import (
    EstimationState,
    KickSeries,
    MeasurementSpec,
    NutritionSchedule,
    ObservationSeries,
    WeightSchedule,
    default_initial_state,
    density_estimate,
    effective_gaps,
    estimate,
    eval_L2,
    fd_check,
    icu_fit_params,
    load_observations,
    nominal_params,
    simulate,
    subsample,
)
from mcsmooth.kernels import log_time_weight
from mcsmooth.cli import run_command
from mcsmooth.optimizer import read_states_csv
from mcsmooth.timeseries import read_columns
from mcsmooth.ultradian import read_trace
from conftest import (
    ONE_HOT,
    TRUE_A,
    TRUE_B,
    TRUE_OMEGA,
    _rhs,
    make_cycle_series,
    make_random_fixture,
    read_objective_trace,
    tables_for,
    to_polar,
)


def report(num, name, ok, detail):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def dense_truth_result():
    """Criterion 3's fixture and full default-config estimation (shared by 5)."""
    obs = make_cycle_series(n=200, spacing=5.0, noise=0.1 * TRUE_A, seed=42)
    t0 = time.time()
    result = estimate(obs)
    return obs, result, time.time() - t0


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        state, obs, tables = make_random_fixture(seed, n=16)
        for lam in ONE_HOT:
            err = fd_check(state, tables, WeightSchedule(*lam), step=1e-6)
            worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    report(1, "gradient correctness", ok, f"max rel err {worst:.3g}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_criterion_2_L2_exactness_and_sign():
    t0 = time.time()
    worst_exact = 0.0
    for seed in range(50):
        for with_kicks in (False, True):
            state, obs, tables = make_random_fixture(seed, with_kicks=with_kicks)
            at_data = EstimationState(obs.values.copy(), state.z, state.params,
                                      state.priors, state.noise)
            worst_exact = max(worst_exact, abs(eval_L2(at_data, tables)))
    worst_sign = -np.inf
    rng = np.random.default_rng(2024)
    for seed in range(50):
        state, obs, _ = make_random_fixture(1000 + seed, with_kicks=False)
        tables = tables_for(obs, KickSeries.empty(), 0.0, T_s=140.0, T_l=1e9)
        perturbed = EstimationState(obs.values + rng.normal(0, 10, obs.n), state.z,
                                    state.params, state.priors, state.noise)
        worst_sign = max(worst_sign, eval_L2(perturbed, tables))
    elapsed = time.time() - t0
    ok = worst_exact <= 1e-14 and worst_sign <= 1e-12 and elapsed < 10.0
    report(2, "L2 exactness and sign", ok,
           f"|L2(x=y)| max {worst_exact:.2g}, uniform-limit max {worst_sign:.2g}, {elapsed:.1f}s")
    assert worst_exact <= 1e-14
    assert worst_sign <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_self_consistency_dense(dense_truth_result):
    obs, result, elapsed = dense_truth_result
    p = result.state.params
    err_b = abs(p.b.mean() - TRUE_B) / TRUE_B
    err_a = abs(p.a.mean() - TRUE_A) / TRUE_A
    err_om = abs(p.omega.mean() - TRUE_OMEGA) / TRUE_OMEGA
    ok = err_b < 0.05 and err_a < 0.20 and err_om < 0.10 and elapsed < 120.0
    report(3, "self-consistency recovery (dense)", ok,
           f"b {100*err_b:.2f}%, a {100*err_a:.1f}%, omega {100*err_om:.2f}%, {elapsed:.1f}s")
    assert err_b < 0.05
    assert err_a < 0.20
    assert err_om < 0.10
    assert elapsed < 120.0


def test_criterion_4_qualitative_dynamics_sparse():
    t0 = time.time()
    dense = make_cycle_series(n=200, spacing=5.0, noise=0.1 * TRUE_A, seed=42)
    sparse = subsample(dense, MeasurementSpec(kind="h2", rng_seed=7))
    result = estimate(sparse)
    st = result.state

    # time-mean of the estimated radius over a 1-min grid
    t = sparse.times
    grid = np.arange(t[0], t[-1] + 0.5, 1.0)
    radii = np.empty(grid.size)
    for i, g in enumerate(grid):
        j = int(np.searchsorted(t, g, side="right")) - 1
        pol = to_polar(st.x[j], st.z[j], st.params.b[j])
        if g == t[j] or j == t.size - 1:
            radii[i] = pol.r
            continue
        d_s = math.exp(-(g - t[j]) / result.tables.T_s)
        radii[i] = (1 - d_s) * st.params.a[j + 1] + d_s * pol.r
    mean_radius = radii.mean()

    mid = 0.5 * (t[0] + t[-1])
    h = result.tables.h
    vgrid = np.linspace(sparse.values.min() - 3 * h, sparse.values.max() + 3 * h, 201)
    rho_x = density_estimate(st.x, t, result.tables.h, result.tables.T_l, mid, vgrid)
    rho_y = density_estimate(sparse.values, t, result.tables.h, result.tables.T_l, mid, vgrid)
    sup_frac = float(np.max(np.abs(rho_x - rho_y)) / rho_y.max())

    elapsed = time.time() - t0
    ok = mean_radius >= 0.5 * TRUE_A and sup_frac <= 0.20 and elapsed < 120.0
    report(4, "qualitative dynamics preserved (sparse)", ok,
           f"mean r {mean_radius:.1f} vs floor {0.5*TRUE_A:.1f}, "
           f"density sup {100*sup_frac:.1f}% of peak, n={sparse.n}, {elapsed:.1f}s")
    assert mean_radius >= 0.5 * TRUE_A
    assert sup_frac <= 0.20
    assert elapsed < 120.0


def test_criterion_5_stage_monotonicity(dense_truth_result):
    _, result, _ = dense_truth_result
    violations = 0
    for trace in result.traces:
        violations += int(np.sum(np.diff(trace.objective) < 0))
    report(5, "stage monotonicity", violations == 0,
           f"{violations} violations across {sum(t.iterations for t in result.traces)} iterations")
    assert violations == 0


def test_criterion_6_kick_decoupling():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 12
        t = np.cumsum(rng.uniform(20, 90, n))
        t -= t[0]
        obs = ObservationSeries(t, rng.normal(120, 15, n))
        T_s, T_l = 100.0, 400.0
        j = rng.integers(1, n)
        k_time = rng.uniform(t[j - 1], t[j])
        intensity = rng.uniform(0.5, 3.0)
        kicks = KickSeries([k_time], [intensity])
        alpha = kicks.alpha_kick(T_s)

        every = slice(None)
        plain = log_time_weight(t, KickSeries.empty().intensity_before(t), 0.0, T_l, every, every)
        kicked = log_time_weight(t, kicks.intensity_before(t), alpha, T_l, every, every)
        gaps = effective_gaps(obs, kicks, alpha)
        ds_plain = np.exp(-effective_gaps(obs, KickSeries.empty(), 0.0).dt_relax / T_s)
        ds_kicked = np.exp(-gaps.dt_relax / T_s)
        # The kick lies in [t[j - 1], t[j]), the gap of transition j - 1 -> j.
        worst = max(worst, abs(ds_kicked[j - 1] / ds_plain[j - 1] - math.exp(-1.0)))
        assert np.all(kicked <= plain)
        assert np.array_equal(gaps.dt_phase, np.diff(t))
    ok = worst <= 1e-12
    report(6, "kick decoupling analytics", ok, f"max |ds ratio - 1/e| = {worst:.2g}")
    assert worst <= 1e-12


def _dominant_period(times, values):
    resid = values - values.mean()
    s = np.sign(resid)
    idx = np.nonzero(s)[0]
    cross = []
    for i, j in zip(idx[:-1], idx[1:]):
        if s[i] * s[j] < 0:
            cross.append(times[i] + (times[j] - times[i]) * resid[i] / (resid[i] - resid[j]))
    return 2.0 * float(np.mean(np.diff(cross)))


def test_criterion_7_ultradian_oscillation_and_convergence():
    t0 = time.time()
    p = nominal_params()
    sched = NutritionSchedule.constant(100.0, 6000.0)
    r1 = simulate(p, sched, default_initial_state(), t_end=5000.0, dt=0.2, discard=2000.0)
    r2 = simulate(p, sched, default_initial_state(), t_end=5000.0, dt=0.1, discard=2000.0)
    amp = r1.glucose.max() - r1.glucose.min()
    p1, p2 = _dominant_period(r1.times, r1.glucose), _dominant_period(r2.times, r2.glucose)
    period_shift = abs(p1 - p2) / p2

    runs = [simulate(p, sched, default_initial_state(), 800.0, dt=dt).glucose
            for dt in (0.5, 0.25, 0.125)]
    ratio = float(np.abs(runs[0] - runs[1]).max() / np.abs(runs[1] - runs[2]).max())

    elapsed = time.time() - t0
    ok = amp > 5.0 and period_shift <= 0.02 and ratio >= 12.0 and elapsed < 30.0
    report(7, "ultradian oscillation and RK4 convergence", ok,
           f"amp {amp:.1f} mg/dl, period {p1:.1f} min (shift {100*period_shift:.3f}%), "
           f"Richardson ratio {ratio:.1f}, {elapsed:.1f}s")
    assert amp > 5.0
    assert period_shift <= 0.02
    assert ratio >= 12.0
    assert elapsed < 30.0


def _zero_feed(y, p):
    return np.array(_rhs(tuple(y), p, 0.0))


def _jacobian(y, p):
    """Central-difference Jacobian of the zero-feed right-hand side, steps 1e-6 of each entry."""
    cols = []
    for i in range(y.size):
        step = 1e-6 * max(abs(y[i]), 1.0)
        e = np.zeros(y.size)
        e[i] = step
        cols.append((_zero_feed(y + e, p) - _zero_feed(y - e, p)) / (2.0 * step))
    return np.column_stack(cols)


def _zero_feed_fixed_point(p, start):
    """Newton's method on the zero-feed equations; returns the state and the Jacobian's eigenvalues."""
    y = np.asarray(start, dtype=float)
    for _ in range(50):
        dy = np.linalg.solve(_jacobian(y, p), -_zero_feed(y, p))
        y = y + dy
        if np.max(np.abs(dy) / np.abs(y)) < 1e-14:
            break
    else:
        raise AssertionError("Newton's method did not converge")
    return y, np.linalg.eigvals(_jacobian(y, p))


def _leading_pair(eigenvalues):
    lead = eigenvalues[np.argmax(eigenvalues.real)]
    assert np.min(np.abs(eigenvalues - np.conj(lead))) < 1e-12 * abs(lead)  # a complex pair
    return lead.real, abs(lead.imag)


def test_criterion_7_ultradian_zero_nutrition_steady_state():
    # With no feed the equations have one fixed point, an unstable focus
    # (a Hopf structure; Sturis et al. 1991), so glucose settles on a limit
    # cycle, not at the equilibrium. Asserted: the fixed point, its leading
    # eigenvalue pair, and a bounded orbit of steady amplitude and period.
    p = nominal_params()
    r = simulate(p, NutritionSchedule.empty(), default_initial_state(), t_end=6000.0, dt=0.5)
    tail = r.times >= 4000.0
    start = r.states[tail].mean(axis=0)
    y, eigenvalues = _zero_feed_fixed_point(p, start)
    oracle = fsolve(_zero_feed, start, args=(p,), xtol=1e-14)
    assert np.max(np.abs(y - oracle) / np.abs(oracle)) <= 1e-10
    g_star = y[2] / p.v_g * 0.1
    assert abs(g_star - 116.376) <= 5e-4
    growth, angular = _leading_pair(eigenvalues)
    assert abs(growth - 0.000376) <= 5e-7 and growth > 0.0
    assert abs(angular - 0.0438) <= 5e-5

    # A departure at the leading rate would grow by e^(0.000376 * 1000) = 1.46
    # per 1000 min; the orbit's amplitude holds within 5% instead.
    first = (r.times >= 4000.0) & (r.times < 5000.0)
    second = r.times >= 5000.0
    amplitudes = [float(np.ptp(r.glucose[w])) for w in (first, second)]
    assert all(11.0 <= a <= 13.0 for a in amplitudes)
    assert abs(amplitudes[1] / amplitudes[0] - 1.0) <= 0.05
    g, t = r.glucose[tail] - r.glucose[tail].mean(), r.times[tail]
    up = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
    crossings = t[up] - g[up] * (t[up + 1] - t[up]) / (g[up + 1] - g[up])
    periods = np.diff(crossings)
    ok = bool(np.all((periods >= 144.0) & (periods <= 147.0)))
    report(7, "ultradian zero-nutrition steady state", ok,
           f"unstable focus at G = {g_star:.3f} mg/dl ({growth:+.6f} +- {angular:.4f}i per min); "
           f"limit cycle amplitude {amplitudes[0]:.2f} then {amplitudes[1]:.2f} mg/dl, "
           f"periods {periods.min():.1f}-{periods.max():.1f} min")
    assert periods.size >= 10
    assert ok


def test_criterion_7_icu_zero_feed_fixed_point_is_an_unstable_focus():
    p = icu_fit_params()
    start = simulate(p, NutritionSchedule.empty(), default_initial_state(), t_end=3000.0, dt=0.5,
                     discard=2000.0).states.mean(axis=0)
    y, eigenvalues = _zero_feed_fixed_point(p, start)
    oracle = fsolve(_zero_feed, start, args=(p,), xtol=1e-14)
    assert np.max(np.abs(y - oracle) / np.abs(oracle)) <= 1e-10
    assert abs(y[2] / p.v_g * 0.1 - 147.405) <= 5e-4
    growth, angular = _leading_pair(eigenvalues)
    assert abs(growth - 0.00528) <= 5e-6 and growth > 0.0
    assert abs(angular - 0.0501) <= 5e-5


def test_criterion_8_pipeline_round_trip(tmp_path):
    t0 = time.time()
    d = tmp_path

    def run(args):
        assert run_command(args) == 0

    run(["simulate", "--params", "icu", "--constant-nutrition", "80",
         "--t-end", "12080", "--dt", "0.1", "--discard", "2000",
         "--out", str(d / "dense.csv")])
    read_trace(d / "dense.csv")  # re-parses through the owning module

    times_file = d / "h1_times.txt"
    times_file.write_text("\n".join(str(2000 + 120 * k) for k in range(84)))
    run(["subsample", "--in", str(d / "dense.csv"), "--spec", "h1",
         "--times-file", str(times_file), "--out", str(d / "h1.csv")])
    run(["subsample", "--in", str(d / "dense.csv"), "--spec", "h2",
         "--seed", "11", "--out", str(d / "h2.csv")])
    run(["subsample", "--in", str(d / "dense.csv"), "--spec", "h3",
         "--period", "5", "--out", str(d / "h3.csv")])

    # determinism of the measurement draw
    run(["subsample", "--in", str(d / "dense.csv"), "--spec", "h2",
         "--seed", "11", "--out", str(d / "h2_again.csv")])
    assert (d / "h2.csv").read_bytes() == (d / "h2_again.csv").read_bytes()

    for name in ("h1", "h2", "h3"):
        assert load_observations(d / f"{name}.csv").n >= 2

    reduced = ["--iters-stage1a", "20", "--iters-stage1b", "20",
               "--iters-stage2", "40", "--recon-step", "5"]
    run(["estimate", "--obs", str(d / "h1.csv"), "--out-dir", str(d / "est_h1")])
    run(["estimate", "--obs", str(d / "h2.csv"), "--out-dir", str(d / "est_h2")])
    run(["estimate", "--obs", str(d / "h3.csv"), "--out-dir", str(d / "est_h3")] + reduced)

    for sub in ("est_h1", "est_h2", "est_h3"):
        read_states_csv(d / sub / "states.csv")
        _, _, dashed = read_columns(d / sub / "reconstruction.csv", 3, "reconstruction")
        assert np.all((dashed == 0) | (dashed == 1))
        assert np.all(read_columns(d / sub / "densities.csv", 3, "densities")[1:] >= 0)
        read_objective_trace(d / sub / "trace.csv")

    # determinism of the estimation
    run(["estimate", "--obs", str(d / "h2.csv"), "--out-dir", str(d / "est_h2_again")])
    for name in ("states.csv", "reconstruction.csv", "densities.csv", "trace.csv"):
        assert (d / "est_h2" / name).read_bytes() == (d / "est_h2_again" / name).read_bytes()

    elapsed = time.time() - t0
    ok = elapsed < 300.0
    report(8, "pipeline round-trip", ok, f"{elapsed:.1f}s, all CSVs re-parsed, deterministic")
    assert elapsed < 300.0
