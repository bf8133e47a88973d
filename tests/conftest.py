"""Shared fixtures, canonical-truth generators, and the model oracles.

The smoother oracle restates the transition densities and the gap
reconstruction one transition or grid point at a time, apart from the
package's vectorised ``oscillator.propagate``, and the time kernel, L2 and
its gradient as whole n x n expressions, apart from the package's symmetric
blocks. ``initialize``'s amplitude window is restated as an all-pairs
comparison, apart from the package's banded one, and the tables' walk with
one exponent per kernel, apart from ``build_tables``' shared one. The
allocating forms restate the L2 value and gradient passes with a ``folded``
that also returns the difference, the periodogram with separate cos, sin and
product arrays and the reconstruction over the whole grid at once, apart
from the package's in-place and tiled forms, which must give their bits.
The simulator oracle restates the model equations with every parameter read
afresh (``f1``-``f4`` and the tuple ``_rhs``), apart from the package's
bound right-hand side, and the RK4 loop on numpy 6-vectors that
``ultradian.simulate`` unrolls into Python floats. Tests compare the package
against all of them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mcsmooth import (
    EstimationState,
    HyperConfig,
    KickSeries,
    ModelNoise,
    ObservationSeries,
    ParamPriors,
    ParamTrajectory,
    PolarState,
    build_tables,
    time_products,
    to_polar,
)
from mcsmooth.kernels import kernel_peak, row_tiles, square_blocks, weighted_column_sums
from mcsmooth.optimizer import PERIOD_BAND
from mcsmooth.oscillator import propagate
from mcsmooth.ultradian import (
    BlowUpError,
    NutritionSchedule,
    SimulationResult,
    default_initial_state,
    icu_fit_params,
    nutrition_rate,
    simulate,
)

TRUE_B, TRUE_A, TRUE_PERIOD = 140.0, 30.0, 140.0
# Added time per unit kick intensity in ``make_random_fixture``, at T_s = TRUE_PERIOD.
# Not T_s / mean intensity (about 112): there the central differences of the
# criterion-1 gradient check truncate above its bound on some seeds.
FIXTURE_ALPHA = 50.0
TRUE_OMEGA = 2.0 * np.pi / TRUE_PERIOD
LOG_2PI = float(np.log(2.0 * np.pi))
# The seven one-hot weight schedules, one per objective component.
ONE_HOT = [tuple(1.0 if i == k else 0.0 for i in range(7)) for k in range(7)]


# --- oracle: scalar transition densities and the per-point reconstruction

def propagate_mean(prev: PolarState, a_next, omega_prev, dt_phase, dt_relax, T_s: float) -> PolarState:
    """Propagate (r, theta) across a gap.

    The amplitude relaxes toward a_next with weight exp(-dt_relax / T_s);
    the phase advances by omega_prev * dt_phase (raw gap, kicks excluded).
    """
    d_s = np.exp(-np.asarray(dt_relax) / T_s)
    r_plus = (1.0 - d_s) * a_next + d_s * prev.r
    theta_plus = prev.theta + np.asarray(omega_prev) * np.asarray(dt_phase)
    return PolarState(r_plus, theta_plus)


def _gauss_logpdf(x, mean, var):
    d = np.asarray(x) - mean
    return -0.5 * (LOG_2PI + np.log(var)) - (d * d) / (2.0 * var)


def transition_logpdfs(x_j, z_j, prev: PolarState, b_j, a_j, omega_prev, dt_phase, dt_relax,
                       sigma: float, T_s: float):
    """Log transition densities of (x_j, z_j) given the previous polar state.

    x_j is Normal about b_j + r_plus cos(theta_plus) and z_j about
    r_plus sin(theta_plus), both with variance sigma^2.
    """
    plus = propagate_mean(prev, a_j, omega_prev, dt_phase, dt_relax, T_s)
    mean_x = np.asarray(b_j, dtype=float) + plus.r * np.cos(plus.theta)
    mean_z = plus.r * np.sin(plus.theta)
    var = sigma * sigma
    return _gauss_logpdf(x_j, mean_x, var), _gauss_logpdf(z_j, mean_z, var)


def param_transition_logpdf(alpha_j, alpha_prev, alpha_tilde, sigma_l, dt_relax, T_l: float):
    """Log density of a parameter transition relaxing toward its prior.

    Normal with mean d_l alpha_prev + (1 - d_l) alpha_tilde and variance
    (1 - d_l) sigma_l^2 where d_l = exp(-dt_relax / T_l).
    """
    d_l = np.exp(-np.asarray(dt_relax, dtype=float) / T_l)
    mean = d_l * np.asarray(alpha_prev, dtype=float) + (1.0 - d_l) * alpha_tilde
    var = (1.0 - d_l) * sigma_l * sigma_l
    return _gauss_logpdf(alpha_j, mean, var)


def reconstruct_loop(result, grid):
    """``reconstruct_trajectory`` one grid point at a time, in scalar arithmetic."""
    grid = np.asarray(grid, dtype=float)
    t = result.obs.times
    state = result.state
    b, a, om = state.params.b, state.params.a, state.params.omega
    T_s = result.tables.T_s
    thr = result.config.dashed_gap_threshold
    kicks = result.kicks
    alpha = kicks.alpha_kick(T_s)
    values = np.empty(grid.size)
    dashed = np.zeros(grid.size, dtype=bool)
    for i, g in enumerate(grid):
        j = int(np.searchsorted(t, g, side="right")) - 1
        if g == t[j]:
            values[i] = state.x[j]
            continue
        dt_phase = g - t[j]
        dt_relax = dt_phase + alpha * float(kicks.intensity_before(g) - kicks.intensity_before(t[j]))
        pol = to_polar(state.x[j], state.z[j], b[j])
        d_s = math.exp(-dt_relax / T_s)
        r_plus = (1.0 - d_s) * a[j + 1] + d_s * pol.r
        values[i] = b[j + 1] + r_plus * math.cos(pol.theta + om[j] * dt_phase)
        dashed[i] = (t[j + 1] - t[j]) > thr
    return values, dashed


# --- oracle: the time kernel, L2 and its x-gradient as whole-array expressions

def kernel_expression(u, v, h):
    """The Gaussian kernel in the form exp(-(d*d) / (2 h^2)) / (sqrt(2 pi) h), negating d*d."""
    d = np.asarray(v) - np.asarray(u)
    return np.exp(-(d * d) / (2.0 * h * h)) / (np.sqrt(2.0 * np.pi) * h)


def _time_kernel_expression(t, before, alpha, T_l):
    dist = np.abs(t[:, None] - t[None, :]) + alpha * np.abs(before[:, None] - before[None, :])
    return kernel_expression(0.0, dist, T_l)


def time_kernel(t, kicks, alpha, T_l):
    """The n x n Gaussian kernel over kick-adjusted time distances, bandwidth T_l."""
    t = np.asarray(t, dtype=float)
    return _time_kernel_expression(t, kicks.intensity_before(t), alpha, T_l)


def dense_weights(tables):
    """The L2 weight W[i, j] = Kt[i, j] / s_j + Kt[i, j] / s_i, s the row sums of the time kernel Kt."""
    Kt = _time_kernel_expression(tables.t, tables.before, tables.alpha, tables.T_l)
    s = Kt.sum(axis=1)
    return Kt / s[None, :] + Kt / s[:, None]


def l2_oracle(x, y, tables):
    """-(sum W (Kxx - 2 Kyx) + sum W Ky) / 2n over whole n x n arrays."""
    W = dense_weights(tables)
    Kxx = kernel_expression(x[:, None], x[None, :], tables.h)
    Kyx = kernel_expression(y[:, None], x[None, :], tables.h)
    Ky = kernel_expression(y[:, None], y[None, :], tables.h)
    return -((W * (Kxx - 2.0 * Kyx)).sum() + (W * Ky).sum()) / (2.0 * x.size)


def l2_grad_oracle(x, y, tables):
    h = tables.h
    Kxx = kernel_expression(x[:, None], x[None, :], h)
    Kyx = kernel_expression(y[:, None], x[None, :], h)
    T = (x[:, None] - x[None, :]) * Kxx - (y[:, None] - x[None, :]) * Kyx
    return -(dense_weights(tables) * T).sum(axis=0) / (x.size * h * h)


# --- oracle: initialize's amplitude window and the tables' walk in their all-pairs and two-exp forms

def windowed_max_all_pairs(times, values, window):
    """For each time, the max of the values less than ``window`` away, testing every pair."""
    in_window = np.abs(times[:, None] - times[None, :]) < window
    return np.where(in_window, values[None, :], -np.inf).max(axis=1)


def _folded_expression(log_w, u, v, h):
    d = u[:, None] - v[None, :]
    e = d * d
    e /= -2.0 * h * h
    e += log_w
    return np.exp(e)


def tables_two_exp_walk(tables):
    """rho0 and wky of the tables, each block's Ky and Kw formed from its own exponent.

    Ky takes a log weight of 0.0 and Kw the block's log time weight, built
    from |t_i - t_j| as the absolute value even without kicks.
    """
    t, before, alpha, T_l = tables.t, tables.before, tables.alpha, tables.T_l
    y, h, inv_s, n = tables.y, tables.h, tables.inv_s, tables.y.size
    ky_sums = np.zeros(n)
    wky = 0.0
    for I, J in square_blocks(n):
        d = np.abs(t[I, None] - t[None, J])
        if alpha:
            d += alpha * np.abs(before[I, None] - before[None, J])
        d *= d
        d /= -2.0 * T_l * T_l
        Ky = _folded_expression(0.0, y[I], y[J], h)
        Kw = _folded_expression(d, y[I], y[J], h)
        ky_sums[I] += Ky.sum(axis=1)
        sums = inv_s[I] @ Kw + inv_s[J] * Kw.sum(axis=0)
        if I == J:
            wky += sums.sum()
        else:
            ky_sums[J] += Ky.sum(axis=0)
            wky += 2.0 * sums.sum()
    c_h = 1.0 / (np.sqrt(2.0 * np.pi) * h)
    return ky_sums * (c_h / n), c_h * wky


# --- oracle: the allocating forms of the L2 passes, the periodogram and the reconstruction

def _folded_with_difference(log_w, u, v, h):
    return _folded_expression(log_w, u, v, h), u[:, None] - v[None, :]


def l2_blocks_allocating(state, tables):
    """``objective._L2_blocks`` with each kernel's difference block kept alive beside it."""
    x, y, h, inv_s = state.x, tables.y, tables.h, tables.inv_s
    total = 0.0
    for I, J, log_w in tables.blocks():
        Kxx, _ = _folded_with_difference(log_w, x[I], x[J], h)
        Kyx, _ = _folded_with_difference(log_w, y[I], x[J], h)
        if I == J:
            Kyx *= 2.0
            Kxx -= Kyx
            total += weighted_column_sums(Kxx, inv_s[I], inv_s[J]).sum()
        else:
            Kxy, _ = _folded_with_difference(log_w, x[I], y[J], h)
            Kxx -= Kyx
            Kxx -= Kxy
            total += 2.0 * weighted_column_sums(Kxx, inv_s[I], inv_s[J]).sum()
    return -(kernel_peak(h) * total + tables.wky) / (2.0 * state.n)


def grad_l2_blocks_allocating(state, tables):
    """``gradients._grad_L2_blocks`` scaling each kernel by the difference ``folded`` returned."""
    x, y, h, inv_s = state.x, tables.y, tables.h, tables.inv_s
    g = np.zeros_like(x)
    for I, J, log_w in tables.blocks():
        Kxx, dxx = _folded_with_difference(log_w, x[I], x[J], h)
        Kxx *= dxx
        Kyx, dyx = _folded_with_difference(log_w, y[I], x[J], h)
        Kyx *= dyx
        np.subtract(Kxx, Kyx, out=Kyx)
        g[J] += weighted_column_sums(Kyx, inv_s[I], inv_s[J])
        if I != J:
            Kxy, dxy = _folded_with_difference(log_w, x[I], y[J], h)
            Kxy *= dxy
            Kxy -= Kxx
            g[I] += weighted_column_sums(Kxy.T, inv_s[J], inv_s[I])
    return -kernel_peak(h) * g / (state.n * h * h)


def in_longdouble(state, tables):
    """The state and tables with every array that the L2 passes read in extended precision."""
    def ld(a):
        return np.asarray(a, dtype=np.longdouble)
    return (EstimationState(ld(state.x), state.z, state.params, state.priors, state.noise),
            replace(tables, y=ld(tables.y), t=ld(tables.t), before=ld(tables.before), inv_s=ld(tables.inv_s)))


def same_bits(got, want) -> bool:
    """Whether two arrays hold the same bits; of a longdouble, the value bits only.

    x87 extended precision fills 10 of its 16 bytes, and the rest is padding
    that no operation defines, so there the values and their signs are compared.
    """
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype == np.longdouble:
        return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    return got.tobytes() == want.tobytes()


def periodogram_allocating(times, resid):
    """``optimizer._periodogram`` with its phases, cosines, sines and products in separate arrays."""
    shortest, longest = PERIOD_BAND
    span = times[-1] - times[0]
    grid = np.arange(2.0 * np.pi / longest, 2.0 * np.pi / shortest, 2.0 * np.pi / (5.0 * span))
    power = np.empty(grid.size)
    for k in row_tiles(grid.size, times.size):
        phase = grid[k, None] * times[None, :]
        c, s = np.cos(phase), np.sin(phase)
        cr, sr = c @ resid, s @ resid
        cc, cs = (c * c).sum(axis=1), (c * s).sum(axis=1)
        ss = times.size - cc
        det = cc * ss - cs * cs
        power[k] = np.divide(ss * cr * cr - 2.0 * cs * cr * sr + cc * sr * sr, det,
                             out=(cr * cr + sr * sr) / times.size, where=det > 1e-9 * cc * ss)
    return grid, power


def reconstruct_whole_grid(result, grid):
    """``reconstruct_trajectory`` with every temporary spanning the whole grid."""
    grid = np.asarray(grid, dtype=float)
    t, state, tables, kicks = result.obs.times, result.state, result.tables, result.kicks
    p = state.params
    j = np.searchsorted(t, grid, side="right") - 1
    values = state.x[j]
    inside = grid != t[j]
    g, j = grid[inside], j[inside]
    dt_phase = g - t[j]
    dt_relax = dt_phase + tables.alpha * (kicks.intensity_before(g) - kicks.intensity_before(t[j]))
    q = propagate(state.x[j], state.z[j], p.b[j], p.b[j + 1], p.a[j + 1], p.omega[j],
                  dt_phase, dt_relax, tables.T_s)
    values[inside] = q.mean_x
    dashed = np.zeros(grid.size, dtype=bool)
    dashed[inside] = tables.gaps.dt_phase[j + 1] > result.config.dashed_gap_threshold
    return values, dashed


def relative_error(got, want):
    """max |got - want| over max |want|: agreement relative to the oracle's scale.

    Exact agreement is 0.0, also where both are all zeros (e.g. every kernel
    underflows) and the quotient would be 0/0.
    """
    got, want = np.asarray(got), np.asarray(want)
    if np.array_equal(got, want):
        return 0.0
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# --- oracle: the model equations with every field read afresh, and the RK4
# integrator on numpy 6-vectors

def f1(g: float, p) -> float:
    """Insulin secretion as a function of glucose mass."""
    return p.r_m / (1.0 + math.exp(-g / (p.v_g * p.c_1) + p.a_1))


def f2(g: float, p) -> float:
    """Insulin-independent glucose utilization."""
    return p.u_b * (1.0 - math.exp(-g / (p.c_2 * p.v_g)))


def f3(i_i: float, p) -> float:
    """Insulin-dependent glucose utilization rate per unit glucose mass.

    Where (kappa i_i)^(-beta) is +inf, f3 reduces to its floor u_0 term:
    for i_i <= 0 and for an i_i so small that the power overflows.
    """
    if i_i <= 0.0:
        damping = math.inf
    else:
        try:
            damping = (p.kappa * i_i) ** (-p.beta)
        except (OverflowError, ZeroDivisionError):
            damping = math.inf
    return (p.u_0 + (p.u_m - p.u_0) / (1.0 + damping)) / (p.c_3 * p.v_g)


def f4(h3: float, p) -> float:
    """Delayed insulin-dependent glucose production."""
    return p.r_g / (1.0 + math.exp(p.alpha * (h3 / (p.c_5 * p.v_p) - 1.0)))


def _rhs(y: tuple, p, i_g: float) -> tuple:
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


def _rhs_vector(y, p, i_g):
    i_p, i_i, g, h1, h2, h3 = y
    exchange = p.e * (i_p / p.v_p - i_i / p.v_i)
    return np.array(
        [
            f1(g, p) - exchange - i_p / p.t_p,
            exchange - i_i / p.t_i,
            f4(h3, p) + i_g - f2(g, p) - f3(i_i, p) * g,
            (i_p - h1) / p.t_d,
            (h1 - h2) / p.t_d,
            (h2 - h3) / p.t_d,
        ]
    )


def simulate_oracle(params, schedule, initial, t_end, dt=0.1, discard=0.0):
    """``ultradian.simulate`` as a numpy 6-vector RK4 loop, one list entry per minute."""
    if dt <= 0 or t_end <= 0:
        raise ValueError("simulate: dt and t_end must be positive")
    steps_per_min = round(1.0 / dt)
    if steps_per_min < 1 or abs(steps_per_min * dt - 1.0) > 1e-9:
        raise ValueError("simulate: dt must divide one minute exactly")

    n_min = int(math.floor(t_end + 1e-9))
    y = initial.as_array().astype(float)
    times, glucose, states = [], [], []

    def record(minute: int, vec: np.ndarray):
        if minute >= discard:
            times.append(float(minute))
            glucose.append(vec[2] / params.v_g * 0.1)
            states.append(vec.copy())

    record(0, y)
    h = 1.0 / steps_per_min
    with np.errstate(over="ignore", invalid="ignore"):
        for minute in range(n_min):
            for s in range(steps_per_min):
                t = minute + s * h
                try:
                    k1 = _rhs_vector(y, params, nutrition_rate(t, schedule))
                    k2 = _rhs_vector(y + 0.5 * h * k1, params, nutrition_rate(t + 0.5 * h, schedule))
                    k3 = _rhs_vector(y + 0.5 * h * k2, params, nutrition_rate(t + 0.5 * h, schedule))
                    k4 = _rhs_vector(y + h * k3, params, nutrition_rate(t + h, schedule))
                except (OverflowError, ValueError) as exc:
                    raise BlowUpError(f"simulate: state blew up near t = {t:.3f} min") from exc
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise BlowUpError(f"simulate: non-finite state at t = {minute + 1} min")
            record(minute + 1, y)

    if not times:
        raise ValueError("simulate: discard removed every output sample")
    return SimulationResult(np.asarray(times), np.asarray(glucose), np.asarray(states))


# --- fixtures

# The criterion-8 h1 schedule on the ICU week: every 120 min, where the
# periodogram's 105.2, 139.7 and 64.6-min alias peaks differ by about 7e-13.
H1_TIMES = tuple(2000.0 + 120.0 * k for k in range(84))


def icu_week(schedule):
    """The ICU patient simulated for one week after a 2000-min transient, as observations."""
    r = simulate(icu_fit_params(), schedule, default_initial_state(),
                 t_end=12080.0, dt=0.1, discard=2000.0)
    return ObservationSeries(r.times, r.glucose)


@pytest.fixture(scope="session")
def constant_feed():
    """The ICU week on a constant 80 mg/min tube feed."""
    return icu_week(NutritionSchedule.constant(80.0, 12081.0))



def make_cycle_series(n=200, spacing=5.0, noise=0.1 * TRUE_A, seed=42):
    """Canonical-model truth: the relaxed oscillation observed with iid noise."""
    rng = np.random.default_rng(seed)
    times = spacing * np.arange(n)
    y = TRUE_B + TRUE_A * np.cos(TRUE_OMEGA * times) + rng.normal(0.0, noise, n)
    return ObservationSeries(times, y)


def make_random_series(seed, n=16, with_kicks=None):
    """The observations and kicks of ``make_random_fixture``, and its generator after drawing them."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(30.0, 90.0, n))
    t -= t[0]
    y = TRUE_B + TRUE_A * np.sin(TRUE_OMEGA * t) + rng.normal(0.0, 3.0, n)
    obs = ObservationSeries(t, y)
    if with_kicks is None:
        with_kicks = bool(seed % 2)
    if with_kicks:
        kicks = KickSeries(np.sort(rng.uniform(t[0] + 1.0, t[-1] - 1.0, 3)), rng.uniform(0.5, 2.0, 3))
    else:
        kicks = KickSeries.empty()
    return rng, obs, kicks


def tables_for(obs, kicks, alpha, T_s, T_l, epsilon=0.1):
    """``build_tables`` on the time kernel's row sums."""
    S = time_products(obs.times, kicks, alpha, T_l, np.ones((obs.n, 1)))[:, 0]
    return build_tables(obs, kicks, alpha, S, T_s, T_l, epsilon)


def make_random_fixture(seed, n=16, with_kicks=None):
    """A well-conditioned random estimation state over an irregular grid.

    Latents are bounded away from zero so the polar radius never degenerates,
    and value scales match the model noise so finite-difference checks stay
    well conditioned.
    """
    rng, obs, kicks = make_random_series(seed, n, with_kicks)
    y = obs.values
    tables = tables_for(obs, kicks, FIXTURE_ALPHA, T_s=TRUE_PERIOD, T_l=4.0 * TRUE_PERIOD)
    state = EstimationState(
        x=y + rng.normal(0.0, 5.0, n),
        z=rng.uniform(15.0, 45.0, n) * rng.choice([-1.0, 1.0], n),
        params=ParamTrajectory(
            TRUE_B + rng.normal(0.0, 8.0, n),
            rng.uniform(15.0, 45.0, n),
            TRUE_OMEGA * rng.uniform(0.7, 1.4, n),
        ),
        priors=ParamPriors(TRUE_B, TRUE_A, TRUE_OMEGA, 5.0, 5.0, 0.02),
        noise=ModelNoise(30.0),
    )
    return state, obs, tables


@pytest.fixture
def cycle_series():
    return make_cycle_series()


@pytest.fixture
def quick_config():
    """Reduced iteration caps for unit tests that only need a short descent."""
    return HyperConfig(max_iter_stage1a=30, max_iter_stage1b=30, max_iter_stage2=80)
