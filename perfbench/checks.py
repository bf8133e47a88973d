"""Output checks and reference computations, made apart from the program.

Every check reads the files the program wrote and either compares them with
a computation written here or tests a property the method must have. A check
raises CheckFailed with the reason; it never repairs an output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# HyperConfig defaults the checks rely on (README "Configuration notes").
EPSILON = 0.1
DENSITY_POINTS = 201
DENSITY_PAD_H = 3.0
STAGE_WEIGHTS = {
    "stage1a": (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    "stage1b": (0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0),
    "stage2": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
}
# Mass of a Gaussian kernel beyond 3 bandwidths on both sides: the most a
# density on a grid padded by 3h can miss.
TAIL_MASS = math.erfc(DENSITY_PAD_H / math.sqrt(2.0))
ROUNDING = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_rows(path: Path, ncols: int) -> list[list[str]]:
    """Rows of a headerless CSV, each with exactly ``ncols`` fields."""
    require(path.is_file(), f"{path.name}: missing")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows, f"{path.name}: empty")
    bad = [i for i, row in enumerate(rows) if len(row) != ncols]
    require(not bad, f"{path.name}: row {bad[0] if bad else 0} does not have {ncols} columns")
    return rows


def read_floats(path: Path, ncols: int) -> np.ndarray:
    try:
        data = np.array(read_rows(path, ncols), dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: unparsable number ({exc})") from None
    require(np.all(np.isfinite(data)), f"{path.name}: non-finite value")
    return data


def read_trace(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Simulation trace "t,G,Ip,Ii,h1,h2,h3": minute times and glucose."""
    data = read_floats(path, 7)
    require(np.all(np.diff(data[:, 0]) == 1.0), f"{path.name}: times are not consecutive minutes")
    return data[:, 0], data[:, 1]


# ---------------------------------------------------------------------------
# Estimate records (sparse_h2, dense_h3)

def gauss(d, h):
    return np.exp(-0.5 * (d / h) ** 2) / (math.sqrt(2.0 * math.pi) * h)


def recompute_l1(x: np.ndarray, y: np.ndarray) -> float:
    """Mollified point-wise term from the method's definition.

    Rule-of-thumb bandwidth h = std(y) / n^(1/5), reference density rho0 the
    row mean of Ky, mollification weight epsilon.
    """
    h = float(np.std(y)) / y.size ** 0.2
    rho0 = gauss(y[:, None] - y[None, :], h).mean(axis=1)
    ky = gauss(y - x, h)
    return float(np.mean(np.log((1.0 - EPSILON) * ky + EPSILON * rho0)))


def check_estimate(obs_path: Path, out: Path, caps: tuple[int, int, int], step: float = 1.0):
    """Check one estimate record; returns the reconstruction grid and values."""
    obs = read_floats(obs_path, 2)
    t, y = obs[:, 0], obs[:, 1]

    states = read_floats(out / "states.csv", 6)
    require(states.shape[0] == t.size, "states.csv: one row per observation expected")
    require(np.array_equal(states[:, 0], t), "states.csv: times differ from the observations")
    x = states[:, 1]

    recon = read_floats(out / "reconstruction.csv", 3)
    n_grid = int(math.floor((t[-1] - t[0]) / step)) + 1
    grid = t[0] + step * np.arange(n_grid)
    require(recon.shape[0] == n_grid, f"reconstruction.csv: {recon.shape[0]} rows, expected {n_grid}")
    require(np.array_equal(recon[:, 0], grid), "reconstruction.csv: times are not the reconstruction grid")
    require(np.all((recon[:, 2] == 0) | (recon[:, 2] == 1)), "reconstruction.csv: dashed flag not 0/1")
    at_obs = np.rint((t - t[0]) / step).astype(int)
    require(np.array_equal(grid[at_obs], t), "reconstruction grid misses an observation time")
    require(
        np.array_equal(recon[at_obs, 1], x),
        "reconstruction.csv: value differs from the states x at an observation time",
    )

    dens = read_floats(out / "densities.csv", 3)
    require(dens.shape[0] == DENSITY_POINTS, f"densities.csv: {dens.shape[0]} rows, expected {DENSITY_POINTS}")
    require(np.all(np.diff(dens[:, 0]) > 0), "densities.csv: value grid not increasing")
    require(np.all(dens[:, 1:] >= 0), "densities.csv: negative density")
    for col, label in ((1, "rho_x"), (2, "rho_y")):
        mass = float(np.trapezoid(dens[:, col], dens[:, 0]))
        require(
            1.0 - TAIL_MASS - 1e-6 <= mass <= 1.0 + 1e-6,
            f"densities.csv: {label} integrates to {mass!r}, not 1 within the tail mass",
        )

    check_objective_trace(out / "trace.csv", caps, recompute_l1(x, y))
    return grid, recon[:, 1]


def check_objective_trace(path: Path, caps: tuple[int, int, int], l1_final: float) -> None:
    rows = read_rows(path, 10)
    stages = [r[0] for r in rows]
    try:
        iters = np.array([int(r[1]) for r in rows])
        values = np.array([[float(v) for v in r[2:]] for r in rows])
    except ValueError as exc:
        raise CheckFailed(f"trace.csv: unparsable field ({exc})") from None
    seen = [s for i, s in enumerate(stages) if i == 0 or stages[i - 1] != s]
    require(seen == list(STAGE_WEIGHTS), f"trace.csv: stages {seen}, expected {list(STAGE_WEIGHTS)}")
    for stage, cap in zip(STAGE_WEIGHTS, caps):
        rows_of = np.array([s == stage for s in stages])
        L = values[rows_of, 0]
        require(rows_of.sum() <= cap + 1, f"trace.csv: {stage} has more rows than its cap allows")
        require(
            np.array_equal(iters[rows_of], np.arange(rows_of.sum())),
            f"trace.csv: {stage} iteration numbers are not 0, 1, 2, ...",
        )
        require(np.all(np.diff(L) >= 0), f"trace.csv: objective decreases within {stage}")
        weighted = values[rows_of, 1:] @ np.array(STAGE_WEIGHTS[stage])
        scale = 1.0 + np.abs(values[rows_of, 1:]).sum(axis=1)
        require(
            np.all(np.abs(L - weighted) <= ROUNDING * scale),
            f"trace.csv: L differs from the weighted sum of its components in {stage}",
        )
    l1 = values[-1, 1]
    require(
        abs(l1 - l1_final) <= ROUNDING * (1.0 + abs(l1_final)),
        f"trace.csv: final L1 {l1!r} differs from the recomputed {l1_final!r}",
    )


# ---------------------------------------------------------------------------
# Reference figures

def rmse(a, b) -> float:
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(math.sqrt(np.mean(d * d)))


def truth_at(truth_t: np.ndarray, truth_g: np.ndarray, minutes: np.ndarray) -> np.ndarray:
    idx = np.rint(minutes - truth_t[0]).astype(int)
    require(
        idx.min() >= 0 and idx.max() < truth_t.size and np.array_equal(truth_t[idx], minutes),
        "reconstruction minute outside the dense truth",
    )
    return truth_g[idx]


def mean_period(times: np.ndarray, values: np.ndarray) -> float:
    """Mean spacing of the upward crossings of the series through its mean."""
    r = values - values.mean()
    up = np.nonzero((r[:-1] < 0) & (r[1:] >= 0))[0]
    cross = times[up] + (times[up + 1] - times[up]) * r[up] / (r[up] - r[up + 1])
    require(cross.size >= 2, "dense truth has fewer than two upward mean crossings")
    return float((cross[-1] - cross[0]) / (cross.size - 1))


# ---------------------------------------------------------------------------
# Synthetic cohort records

def check_sampled(obs_path: Path, trace_t: np.ndarray, trace_g: np.ndarray, kind: str):
    """h2 gaps in [60, 90] min or h3 every 5 min, every value read off the trace."""
    obs = read_floats(obs_path, 2)
    t = obs[:, 0]
    gaps = np.diff(t)
    if kind == "h2":
        require(t[0] == trace_t[0], "h2: first sample is not the trace's first minute")
        require(np.all((gaps >= 60.0) & (gaps <= 90.0)), "h2: a gap lies outside [60, 90] min")
        require(trace_t[-1] - t[-1] < 90.0, "h2: sampling stops more than one gap before the end")
    else:
        require(np.all(gaps == 5.0), "h3: samples are not exactly 5 min apart")
        require(t[0] == trace_t[0] and trace_t[-1] - t[-1] < 5.0, "h3: samples do not cover the trace")
    require(
        np.array_equal(truth_at(trace_t, trace_g, t), obs[:, 1]),
        f"{kind}: a sampled value differs from the trace at that minute",
    )
    return t, obs[:, 1]


# Ultradian model constants, written here independently of the program:
# nominal values, and the ICU fit that moves t_p, a_1 and r_g.
NOMINAL = dict(
    v_p=3.0, v_i=11.0, v_g=10.0, e=0.2, t_p=6.0, t_i=100.0, t_d=12.0,
    r_m=209.0, a_1=6.6, c_1=300.0, c_2=144.0, c_3=100.0, c_4=80.0, c_5=26.0,
    u_b=72.0, u_0=4.0, u_m=94.0, r_g=180.0, alpha=7.5, beta=1.772,
)
PARAMS = {"nominal": NOMINAL, "icu": dict(NOMINAL, t_p=5.5, a_1=7.5, r_g=225.0)}
INITIAL = (40.0, 40.0, 10000.0, 40.0, 40.0, 40.0)  # Ip, Ii, G (mg), h1, h2, h3
WINDOW_TOLERANCE = 1e-8


def ultradian_rhs(_t, s, p, feed):
    ip, ii, g, h1, h2, h3 = s
    kappa = (1.0 / p["v_i"] - 1.0 / (p["e"] * p["t_i"])) / p["c_4"]
    exchange = p["e"] * (ip / p["v_p"] - ii / p["v_i"])
    secretion = p["r_m"] / (1.0 + math.exp(p["a_1"] - g / (p["v_g"] * p["c_1"])))
    independent = p["u_b"] * (1.0 - math.exp(-g / (p["c_2"] * p["v_g"])))
    dependent = (p["u_0"] + (p["u_m"] - p["u_0"]) / (1.0 + (kappa * ii) ** -p["beta"])) / (p["c_3"] * p["v_g"])
    production = p["r_g"] / (1.0 + math.exp(p["alpha"] * (h3 / (p["c_5"] * p["v_p"]) - 1.0)))
    return [
        secretion - exchange - ip / p["t_p"],
        exchange - ii / p["t_i"],
        production + feed - independent - dependent * g,
        (ip - h1) / p["t_d"],
        (h1 - h2) / p["t_d"],
        (h2 - h3) / p["t_d"],
    ]


def check_window(trace_path: Path, params: str, feed: float) -> None:
    """A short simulate trace against scipy's DOP853 at tight tolerance."""
    from scipy.integrate import solve_ivp

    data = read_floats(trace_path, 7)
    p = PARAMS[params]
    sol = solve_ivp(
        ultradian_rhs, (0.0, data[-1, 0]), INITIAL, method="DOP853",
        rtol=1e-12, atol=1e-9, t_eval=data[:, 0], args=(p, feed),
    )
    require(sol.success, f"DOP853 reference failed: {sol.message}")
    ip, ii, g, h1, h2, h3 = sol.y
    ref = np.column_stack([sol.t, g / p["v_g"] * 0.1, ip, ii, h1, h2, h3])
    err = np.abs(data - ref).max(axis=0) / np.abs(ref).max(axis=0)
    require(
        np.all(err <= WINDOW_TOLERANCE),
        f"simulate differs from DOP853 by {err.max():.3g} (relative) on the short window",
    )
