"""Staged gradient-ascent estimation, trajectory reconstruction, densities.

The procedure initializes surrogates at the data and parameters from kernel
regressions, then ascends the objective in three stages: first the model
component for x over the latents only, then both model components over the
latents, and finally the full weighted objective over everything. Stage one
runs with a doubled transition standard deviation so that the uninformative
initial latents do not sit in the far tails; stage two resets it.

Backtracking line search keeps the objective trace nondecreasing within every
stage; the step size is shared across coordinate blocks and adapts by
doubling after success and halving on backtracks. Runs are deterministic
functions of their inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .gradients import grad_total
from .kernels import KernelTables, build_tables, gaussian_kernel, row_tiles, time_products
from .objective import Components, EstimationState, WeightSchedule, eval_components
from .oscillator import ModelNoise, ParamPriors, ParamTrajectory, propagate
from .timeseries import KickSeries, ObservationSeries, read_columns, repr_rows, write_csv_rows

__all__ = [
    "HyperConfig",
    "StageTrace",
    "EstimationResult",
    "FrequencyEstimationError",
    "StalledError",
    "resolve_time_scales",
    "initialize",
    "run_stage",
    "estimate",
    "reconstruct_trajectory",
    "density_estimate",
]

STAGE1A_LAMBDAS = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
STAGE1B_LAMBDAS = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)
STAGE2_LAMBDAS = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

# y - mean(y) within this fraction of max(1, max|y|) counts as constant to round-off.
CONSTANT_TOLERANCE = 1e-9

# Prior band of the period in minutes; ultradian periods are about 80-180 min (Sturis et al. 1991).
PERIOD_BAND = (60.0, 400.0)

# The line search. First trial step: the gradient itself; the expansion finds the scale from there.
STEP_START = 1.0
# Step factor per backtrack; the expansion multiplies by its inverse.
BACKTRACK_FACTOR = 0.5
# Trials per direction: a range of 2^20 either way around the last accepted step.
MAX_BACKTRACKS = 20
# A stage has converged when an accepted step gains less than this, relative to 1 + |L|.
TOLERANCE = 1e-8


class FrequencyEstimationError(ValueError):
    """Raised when y is constant to round-off, so omega cannot be estimated."""


class StalledError(RuntimeError):
    """Raised when line search cannot find any nondecreasing step repeatedly."""


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether the value is an instance of the numeric kind; JSON's true and false are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class HyperConfig:
    """Tunables for initialization and the staged descent.

    Unset, T_s, T_l and ``omega_tilde`` are estimated by ``resolve_time_scales``.
    """

    T_s: float | None = None
    T_l: float | None = None
    epsilon: float = 0.1
    max_iter_stage1a: int = 200
    max_iter_stage1b: int = 200
    max_iter_stage2: int = 2000
    a_tilde_zero: bool = False
    omega_tilde: float | None = None
    weights_stage1a: tuple[float, ...] = STAGE1A_LAMBDAS
    weights_stage1b: tuple[float, ...] = STAGE1B_LAMBDAS
    weights_stage2: tuple[float, ...] = STAGE2_LAMBDAS
    dashed_gap_threshold: float = 120.0

    def __post_init__(self):
        for name in ("T_s", "T_l", "omega_tilde"):
            value = getattr(self, name)
            if value is not None and not (_is_number(value) and value > 0):
                raise ValueError(f"HyperConfig: {name} must be positive")
        if self.T_l is not None and self.T_s is not None and self.T_l < self.T_s:
            raise ValueError("HyperConfig: T_l must be at least T_s")
        for name in ("max_iter_stage1a", "max_iter_stage1b", "max_iter_stage2"):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Integral) and value >= 1):
                raise ValueError(f"HyperConfig: {name}: iteration caps must be integers of at least 1")
        if not (_is_number(self.epsilon) and 0.0 <= self.epsilon < 1.0):
            raise ValueError("HyperConfig: epsilon must lie in [0, 1)")
        # +-inf flag every gap or none; NaN would silently flag none.
        if not (_is_number(self.dashed_gap_threshold) and not math.isnan(self.dashed_gap_threshold)):
            raise ValueError("HyperConfig: dashed_gap_threshold must be a number")
        if not isinstance(self.a_tilde_zero, bool):
            raise ValueError("HyperConfig: a_tilde_zero must be true or false")
        for stage in ("stage1a", "stage1b", "stage2"):
            lams = getattr(self, f"weights_{stage}")
            if not (isinstance(lams, (tuple, list)) and len(lams) == 7
                    and all(_is_number(v) and math.isfinite(v) and v >= 0 for v in lams)):
                raise ValueError(f"HyperConfig: weights_{stage} must hold 7 finite nonnegative weights")
            object.__setattr__(self, f"weights_{stage}", tuple(float(v) for v in lams))


@dataclass
class StageTrace:
    """Objective and component rows of one descent stage: its start state, then each accepted step."""

    name: str
    objective: list[float] = field(default_factory=list)
    components: list[Components] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objective) - 1


@dataclass(frozen=True)
class EstimationResult:
    """The final state, the config as given, and the tables, which hold the resolved T_s and T_l."""

    state: EstimationState
    config: HyperConfig
    tables: KernelTables
    obs: ObservationSeries
    kicks: KickSeries
    traces: tuple[StageTrace, ...]

    @property
    def components(self) -> Components:
        """The components of the final state: the last row of the last stage's trace."""
        return self.traces[-1].components[-1]

    @property
    def iterations(self) -> int:
        return sum(t.iterations for t in self.traces)


def _windowed_max(times: np.ndarray, values: np.ndarray, window: float) -> np.ndarray:
    """For each time, the maximum of the values at times less than a positive ``window`` away.

    Rounding is monotone and ``window`` a double, so a computed
    |t_i - t_j| < window implies the exact inequality, hence
    fl(t_i - window) <= t_j <= fl(t_i + window). For a tile of rows of
    increasing times, ``searchsorted`` on the first row's lower and the last
    row's upper rounding bounds a band of columns holding every pair that the
    predicate accepts over all n; the predicate itself picks them within it.
    """
    out = np.empty(times.size)
    for r in row_tiles(times.size):
        lo = np.searchsorted(times, times[r.start] - window, side="left")
        hi = np.searchsorted(times, times[r.stop - 1] + window, side="right")
        in_window = np.abs(times[r, None] - times[None, lo:hi]) < window
        out[r] = np.where(in_window, values[None, lo:hi], -np.inf).max(axis=1)
    return out


def _periodogram(times: np.ndarray, resid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angular frequencies spanning ``PERIOD_BAND`` and the residual's power at each.

    The power is the sum of squares explained by a least-squares fit of
    cos(omega t) and sin(omega t): Lomb-Scargle (Lomb 1976; Scargle 1982)
    without the tau shift. The grid steps by a fifth of the resolution
    2 pi / span and is evaluated in chunks of about ``TILE_ELEMENTS`` elements,
    two chunk arrays at a time: the sines, then the cosines in the phases'
    array, and the products c s and c c in the sines' array once their
    sums with the residual are taken.
    """
    shortest, longest = PERIOD_BAND
    span = times[-1] - times[0]
    grid = np.arange(2.0 * np.pi / longest, 2.0 * np.pi / shortest, 2.0 * np.pi / (5.0 * span))
    power = np.empty(grid.size)
    for k in row_tiles(grid.size, times.size):
        c = grid[k, None] * times[None, :]
        s = np.sin(c)
        np.cos(c, out=c)
        cr, sr = c @ resid, s @ resid
        s *= c
        cs = s.sum(axis=1)
        np.multiply(c, c, out=s)
        cc = s.sum(axis=1)
        del c, s  # freed before the next tile's phases form
        ss = times.size - cc
        det = cc * ss - cs * cs
        # Where cos and sin are collinear on the samples, the fit has one column.
        power[k] = np.divide(ss * cr * cr - 2.0 * cs * cr * sr + cc * sr * sr, det,
                             out=(cr * cr + sr * sr) / times.size, where=det > 1e-9 * cc * ss)
    return grid, power


def resolve_time_scales(obs: ObservationSeries, config: HyperConfig) -> tuple[float, float, float]:
    """omega_tilde, T_s and T_l of a series: the config's pinned values, else estimates.

    omega_tilde is the periodogram peak of y - mean(y) over the prior band of
    periods of 60-400 min (``PERIOD_BAND``). Samples exactly every 120 min
    cannot tell a 140-min period from its aliases at 105 or 64.6 min. T_s and
    T_l default to one and four periods 2 pi / omega_tilde.
    """
    if obs.n < 4:
        raise ValueError("resolve_time_scales: need at least 4 observations")
    if config.omega_tilde is not None:
        omega_tilde = float(config.omega_tilde)
    else:
        resid = obs.values - float(obs.values.mean())
        if np.max(np.abs(resid)) <= CONSTANT_TOLERANCE * max(1.0, float(np.max(np.abs(obs.values)))):
            raise FrequencyEstimationError("resolve_time_scales: y is constant to round-off; "
                                           "supply omega_tilde")
        grid, power = _periodogram(obs.times, resid)
        omega_tilde = float(grid[np.argmax(power)])
    T_s = config.T_s if config.T_s is not None else 2.0 * np.pi / omega_tilde
    T_l = config.T_l if config.T_l is not None else 4.0 * 2.0 * np.pi / omega_tilde
    return omega_tilde, float(T_s), float(T_l)


def initialize(
    obs: ObservationSeries,
    kicks: KickSeries | None = None,
    config: HyperConfig | None = None,
) -> tuple[EstimationState, KernelTables]:
    """Initial state and kernel tables; the tables hold T_s and T_l (``resolve_time_scales``).

    Surrogates start at the data, latents at zero and the frequency at omega_tilde. The
    local mean and amplitude are regressions of y and of maxima of |y - b| within T_s
    on the kick-adjusted time kernel, whose row sums also go into the tables. The
    kernel and the tables' gaps share one kick scale, ``kicks.alpha_kick(T_s)``.
    """
    kicks = kicks if kicks is not None else KickSeries.empty()
    cfg = config if config is not None else HyperConfig()
    omega_tilde, T_s, T_l = resolve_time_scales(obs, cfg)
    t, y = obs.times, obs.values
    b_tilde = float(y.mean())
    sigma_b = float(y.std())

    alpha = kicks.alpha_kick(T_s)
    S, Ey = time_products(t, kicks, alpha, T_l, np.column_stack((np.ones(obs.n), y))).T
    b = Ey / S
    a_hat = _windowed_max(t, np.abs(y - b), T_s)
    a = time_products(t, kicks, alpha, T_l, a_hat[:, None])[:, 0] / S
    tables = build_tables(obs, kicks, alpha, S, T_s, T_l, cfg.epsilon)

    a_tilde = 0.0 if cfg.a_tilde_zero else float(a_hat.mean())
    a_bar = float(a.mean())
    if a_bar <= 0:
        raise ValueError("initialize: zero mean amplitude; data carry no oscillation")

    state = EstimationState(
        x=y.copy(),
        z=np.zeros(obs.n),
        params=ParamTrajectory(b, a, np.full(obs.n, omega_tilde)),
        priors=ParamPriors(b_tilde, a_tilde, omega_tilde, sigma_b, sigma_b, omega_tilde),
        noise=ModelNoise(a_bar),
    )
    return state, tables


def _apply_step(
    state: EstimationState,
    grad,
    eta: float,
    mask: frozenset,
    floors: tuple[float, float],
) -> EstimationState:
    changes = {}
    if "x" in mask:
        changes["x"] = state.x + eta * grad.d_x
    if "z" in mask:
        changes["z"] = state.z + eta * grad.d_z
    if "params" in mask:
        floor_a, floor_omega = floors
        changes["params"] = ParamTrajectory(
            state.params.b + eta * grad.d_b,
            np.maximum(state.params.a + eta * grad.d_a, floor_a),
            np.maximum(state.params.omega + eta * grad.d_omega, floor_omega),
        )
    return replace(state, **changes)


def run_stage(
    state: EstimationState,
    tables: KernelTables,
    schedule: WeightSchedule,
    mask,
    iters: int,
    name: str = "stage",
) -> tuple[EstimationState, StageTrace]:
    """Gradient-ascend the schedule's objective over the masked blocks.

    Only blocks named in ``mask`` (subset of x, z, params) are updated; the
    others are reused bit-identically. The step size is shared across blocks
    and set by the module's line-search constants (``STEP_START``,
    ``BACKTRACK_FACTOR``, ``MAX_BACKTRACKS``). Steps of a and omega are
    clipped at 1e-6 times the start state's mean a and its prior
    omega_tilde. Stops at the iteration cap or when an accepted
    step improves the objective by less than ``TOLERANCE``. Raises
    StalledError after three consecutive iterations in which no backtracked
    step was nondecreasing.

    Every line-search trial is scored by its components, and its objective
    is their schedule-weighted sum. Components that depend on no masked
    block (L1/L2 when x is fixed, the parameter components when the params
    are fixed) are carried over from the stage's first row. The accepted
    trial's components become its trace row, so no state is evaluated twice.
    """
    mask = frozenset(mask)
    if not mask <= {"x", "z", "params"}:
        raise ValueError(f"run_stage: unknown blocks in mask {sorted(mask)}")
    # a and omega stay positive: floors at 1e-6 of the start's mean a and of omega_tilde.
    floors = (1e-6 * float(np.mean(state.params.a)), 1e-6 * state.priors.omega_tilde)

    trace = StageTrace(name=name)
    first = eval_components(state, tables)
    L = schedule.total(first)
    trace.objective.append(L)
    trace.components.append(first)

    def attempt(step):
        """The trial state at this step size, its components and its objective."""
        trial = _apply_step(state, grad, step, mask, floors)
        comps = eval_components(trial, tables, first, mask)
        return trial, comps, schedule.total(comps)

    eta = 0.5 * STEP_START
    fails_in_row = 0
    grow = 1.0 / BACKTRACK_FACTOR
    for _ in range(iters):
        grad = grad_total(state, tables, schedule)
        eta_try = 2.0 * eta
        accepted = False
        trial, comps, L_new = attempt(eta_try)
        if math.isfinite(L_new) and L_new >= L:
            accepted = True
            # The base step may be far below the problem's scale: expand
            # while the objective keeps strictly improving.
            for _ in range(MAX_BACKTRACKS):
                eta_next = grow * eta_try
                candidate, c_cand, L_cand = attempt(eta_next)
                if not (math.isfinite(L_cand) and L_cand > L_new):
                    break
                trial, comps, L_new, eta_try = candidate, c_cand, L_cand, eta_next
        else:
            for _ in range(MAX_BACKTRACKS):
                eta_try *= BACKTRACK_FACTOR
                trial, comps, L_new = attempt(eta_try)
                if math.isfinite(L_new) and L_new >= L:
                    accepted = True
                    break
        eta = eta_try
        if not accepted:
            fails_in_row += 1
            if fails_in_row >= 3:
                raise StalledError(
                    "run_stage: line search exhausted for 3 consecutive iterations"
                )
            continue
        fails_in_row = 0
        dL = L_new - L
        state, L = trial, L_new
        trace.objective.append(L)
        trace.components.append(comps)
        if abs(dL) < TOLERANCE * (1.0 + abs(L)):
            break
    return state, trace


def estimate(
    obs: ObservationSeries,
    kicks: KickSeries | None = None,
    config: HyperConfig | None = None,
) -> EstimationResult:
    """Full staged estimation of a series: initialize, stage 1a/1b, stage 2."""
    kicks = kicks if kicks is not None else KickSeries.empty()
    cfg = config if config is not None else HyperConfig()
    state, tables = initialize(obs, kicks, cfg)
    a_bar = state.noise.sigma

    w1a = WeightSchedule.from_lambdas(cfg.weights_stage1a)
    w1b = WeightSchedule.from_lambdas(cfg.weights_stage1b)
    w2 = WeightSchedule.from_lambdas(cfg.weights_stage2)

    # Stage 1: latents only, doubled transition noise.
    state = replace(state, noise=ModelNoise(2.0 * a_bar))
    state, tr1a = run_stage(state, tables, w1a, {"z"}, cfg.max_iter_stage1a, name="stage1a")
    state, tr1b = run_stage(state, tables, w1b, {"z"}, cfg.max_iter_stage1b, name="stage1b")

    # Stage 2: full objective over everything, noise reset.
    state = replace(state, noise=ModelNoise(a_bar))
    state, tr2 = run_stage(state, tables, w2, {"x", "z", "params"}, cfg.max_iter_stage2, name="stage2")

    return EstimationResult(
        state=state, config=cfg, tables=tables, obs=obs, kicks=kicks, traces=(tr1a, tr1b, tr2)
    )


def reconstruct_trajectory(result: EstimationResult, grid) -> tuple[np.ndarray, np.ndarray]:
    """Model-mean values on a time grid, with flags for long data gaps.

    At observation times the estimated surrogate is returned exactly; inside
    a gap the mean is propagated from the gap's left state with the
    transition's parameter convention (successor mean and amplitude, source
    frequency). Grid points inside gaps longer than the dashed threshold are
    flagged. Every step is elementwise, so the grid is evaluated in tiles of
    1638 points (``row_tiles`` of width 20: the twenty or so temporaries of a
    tile add up to about one ``TILE_ELEMENTS`` block), and no temporary spans
    the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    t = result.obs.times
    if grid.size and (grid.min() < t[0] or grid.max() > t[-1]):
        raise ValueError("reconstruct_trajectory: grid time outside the observation span")
    values = np.empty(grid.size)
    dashed = np.empty(grid.size, dtype=bool)
    for r in row_tiles(grid.size, 20):
        values[r], dashed[r] = _reconstruct_tile(result, grid[r])
    return values, dashed


def _reconstruct_tile(result: EstimationResult, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``reconstruct_trajectory`` on a grid inside the span; its temporaries are freed on return."""
    t = result.obs.times
    state = result.state
    p = state.params
    tables, kicks = result.tables, result.kicks
    j = np.searchsorted(t, grid, side="right") - 1
    values = state.x[j]
    inside = grid != t[j]
    g, j = grid[inside], j[inside]
    dt_phase = g - t[j]
    dt_relax = dt_phase + tables.alpha * (kicks.intensity_before(g) - kicks.intensity_before(t[j]))
    q = propagate(
        state.x[j], state.z[j], p.b[j], p.b[j + 1], p.a[j + 1], p.omega[j],
        dt_phase, dt_relax, tables.T_s,
    )
    values[inside] = q.mean_x
    dashed = np.zeros(grid.size, dtype=bool)
    dashed[inside] = tables.gaps.dt_phase[j + 1] > result.config.dashed_gap_threshold
    return values, dashed


def density_estimate(values, times, h: float, T_l: float, at_time: float, grid) -> np.ndarray:
    """Time-weighted kernel density of the values, evaluated on a value grid.

    h is the value bandwidth and T_l that of the time weights about ``at_time``.
    Serves both the surrogate density (values = x) and the data density (values = y).
    The grid is evaluated in ``row_tiles``, so no grid x n kernel matrix
    exists. A grid of one tile gives the bits of the whole-matrix product
    ``gaussian_kernel(values, grid[:, None], h) @ weights``; where the grid
    spans several tiles, BLAS groups the sums differently and a value may
    differ from it in the last bits.
    """
    if T_l <= 0:
        raise ValueError("density_estimate: T_l must be positive")
    if not math.isfinite(at_time):
        raise ValueError("density_estimate: at_time must be finite")
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    grid = np.asarray(grid, dtype=float)
    d = at_time - times
    wt = np.exp(-(d * d) / (2.0 * T_l ** 2))
    s = wt.sum()
    wt = np.full(times.size, 1.0 / times.size) if s == 0.0 else wt / s
    out = np.empty(grid.size)
    for r in row_tiles(grid.size, values.size):
        out[r] = gaussian_kernel(values[None, :], grid[r, None], h) @ wt
    return out


# ---------------------------------------------------------------------------
# CSV output formats owned by this module (and their re-parsers).

def _floats(*columns):
    return [np.asarray(c, dtype=float) for c in columns]


def write_states_csv(result: EstimationResult, path) -> None:
    """Estimated states as "t,x,z,b,a,omega" rows."""
    s, p = result.state, result.state.params
    write_csv_rows(path, repr_rows(*_floats(result.obs.times, s.x, s.z, p.b, p.a, p.omega)))


def read_states_csv(path) -> dict[str, np.ndarray]:
    keys = ("t", "x", "z", "b", "a", "omega")
    out = dict(zip(keys, read_columns(path, 6, "read_states")))
    if not np.all(out["t"][1:] > out["t"][:-1]):
        raise ValueError("read_states: times must be strictly increasing")
    return out


def write_reconstruction_csv(times, values, dashed, path) -> None:
    """Reconstructed trajectory as "t,value,dashed" rows (dashed is 0/1)."""
    write_csv_rows(path, repr_rows(*_floats(times, values), np.asarray(dashed, dtype=int)))


def read_reconstruction_csv(path) -> dict[str, np.ndarray]:
    t, value, dashed = read_columns(path, 3, "read_reconstruction")
    if not np.all((dashed == 0) | (dashed == 1)):
        raise ValueError("read_reconstruction: dashed flags must be 0 or 1")
    return {"t": t, "value": value, "dashed": dashed == 1}


def write_densities_csv(grid, rho_x, rho_y, path) -> None:
    """Density grids as "value,rho_x,rho_y" rows."""
    write_csv_rows(path, repr_rows(*_floats(grid, rho_x, rho_y)))


def read_densities_csv(path) -> dict[str, np.ndarray]:
    value, rho_x, rho_y = read_columns(path, 3, "read_densities")
    if np.any(rho_x < 0) or np.any(rho_y < 0):
        raise ValueError("read_densities: densities must be nonnegative")
    return {"value": value, "rho_x": rho_x, "rho_y": rho_y}


def write_trace_csv(traces, path) -> None:
    """Objective traces as "stage,iter,L,L1,L2,L3,L4,Lb,La,Lomega" rows."""
    def rows():
        for trace in traces:
            for it, (L, comps) in enumerate(zip(trace.objective, trace.components)):
                yield (trace.name, str(it), repr(float(L))) + tuple(
                    repr(float(c)) for c in comps
                )
    write_csv_rows(path, rows())


def read_trace_csv(path) -> dict[str, np.ndarray]:
    (stage,) = read_columns(path, 10, "read_trace_csv", usecols=(0,), dtype=str)
    numbers = read_columns(path, 10, "read_trace_csv", usecols=range(1, 10))
    if not np.array_equal(numbers[0], np.trunc(numbers[0])):
        raise ValueError("read_trace_csv: iteration numbers must be integers")
    return {"stage": stage, "iter": numbers[0].astype(int), "values": numbers[1:].T}
