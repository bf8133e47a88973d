"""Command-line pipeline: simulate, subsample, estimate, densities.

A single JSON config file can supply defaults for any command; explicit
flags win. The default output directory comes from the MCSMOOTH_OUTDIR
environment variable (falling back to the working directory). All commands
emit plot-ready CSVs only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import __version__
from .kernels import bandwidth_rule_of_thumb
from .optimizer import (
    HyperConfig,
    density_estimate,
    estimate,
    read_states_csv,
    reconstruct_trajectory,
    resolve_time_scales,
    write_densities_csv,
    write_reconstruction_csv,
    write_states_csv,
    write_trace_csv,
)
from .timeseries import (
    KickSeries,
    MeasurementSpec,
    _is_number,
    load_kicks,
    load_observations,
    read_columns,
    subsample,
    write_observations,
)
from .ultradian import (
    NutritionSchedule,
    default_initial_state,
    icu_fit_params,
    nominal_params,
    simulate,
    write_trace,
)

__all__ = ["run_command", "main"]

# The keys a config file may set, per section; "hyper" takes the HyperConfig fields.
_CONFIG_KEYS = {
    "paths": {"out_dir", "nutrition", "observations", "kicks"},
    "measurement": {"kind", "explicit_times", "gap_min", "gap_max", "period", "seed"},
    "hyper": {f.name for f in dataclass_fields(HyperConfig)},
}
_BASIC_STATES = ("oscillatory", "non-oscillatory")
DENSITY_GRID_POINTS = 201
DENSITY_GRID_PAD = 3.0


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"run_command: config file not found: {p}")
    with p.open(encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("run_command: config file must hold a JSON object")
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"run_command: unknown config keys: {sorted(unknown)}")
    for section, keys in _CONFIG_KEYS.items():
        if not isinstance(cfg.get(section, {}), dict):
            raise ValueError(f'run_command: config section "{section}" must hold a JSON object')
        unknown = set(cfg.get(section, {})) - keys
        if unknown:
            raise ValueError(f"run_command: unknown {section} config keys: {sorted(unknown)}")
    for key, value in cfg.get("paths", {}).items():
        if value is not None and not isinstance(value, str):  # null leaves the path unset
            raise ValueError(f"run_command: paths.{key} must be a string")
    return cfg


def _hyper_from_config(cfg: dict, args) -> HyperConfig:
    """HyperConfig from the config file's "hyper" section; a given flag wins over it.

    A flag whose dest is a HyperConfig field sets that field; ``--basic-state``
    sets ``a_tilde_zero``.
    """
    given = {key: value for key, value in vars(args).items() if value is not None}
    if "basic_state" in given:
        given["a_tilde_zero"] = given["basic_state"] == "non-oscillatory"
    hyper = dict(cfg.get("hyper", {}))
    hyper.update((key, value) for key, value in given.items() if key in _CONFIG_KEYS["hyper"])
    return HyperConfig(**hyper)


def _out_dir(arg: str | None, cfg: dict) -> Path:
    d = arg or cfg.get("paths", {}).get("out_dir") or os.environ.get("MCSMOOTH_OUTDIR") or "."
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_float_list(text: str, what: str) -> list[float]:
    """The numbers of a comma- or semicolon-separated list; errors name ``what``."""
    try:
        return [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _measurement_value(flag, meas: dict, key: str, default, kind=numbers.Real):
    """The flag's value if given, else the config's ``measurement.key``, checked to be of the numeric kind."""
    if flag is not None:
        return flag
    value = meas.get(key, default)
    if not _is_number(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"subsample: measurement.{key} must be {what}")
    return value


def _measurement_spec(args, cfg: dict) -> MeasurementSpec:
    meas = cfg.get("measurement", {})
    kind = args.spec or meas.get("kind")
    if kind is None:
        raise ValueError("subsample: measurement kind required (--spec or config)")
    explicit = None
    if args.times is not None:
        explicit = tuple(_parse_float_list(args.times, "subsample --times"))
    elif args.times_file is not None:
        explicit = tuple(read_columns(args.times_file, 1, "subsample")[0].tolist())
    elif "explicit_times" in meas:
        times = meas["explicit_times"]
        if not (isinstance(times, list) and all(_is_number(v) for v in times)):
            raise ValueError("subsample: measurement.explicit_times must be a list of numbers")
        explicit = tuple(float(v) for v in times)
    # A dataclass keeps each field's default as a class attribute.
    lo, hi = MeasurementSpec.gap_bounds
    return MeasurementSpec(
        kind=kind,
        explicit_times=explicit,
        gap_bounds=(float(_measurement_value(args.gap_min, meas, "gap_min", lo)),
                    float(_measurement_value(args.gap_max, meas, "gap_max", hi))),
        period=float(_measurement_value(args.period, meas, "period", MeasurementSpec.period)),
        rng_seed=int(_measurement_value(args.seed, meas, "seed", MeasurementSpec.rng_seed, numbers.Integral)),
    )


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    params = icu_fit_params() if args.params == "icu" else nominal_params()
    nutrition_path = args.nutrition or cfg.get("paths", {}).get("nutrition")
    if args.constant_nutrition is not None:
        schedule = NutritionSchedule.constant(args.constant_nutrition, math.inf)
    elif nutrition_path:
        schedule = NutritionSchedule.from_csv(nutrition_path)
    else:
        schedule = NutritionSchedule.empty()
    result = simulate(
        params,
        schedule,
        default_initial_state(),
        t_end=args.t_end,
        dt=args.dt,
        discard=args.discard,
    )
    out = Path(args.out) if args.out else _out_dir(args.out_dir, cfg) / "simulation.csv"
    write_trace(result, out)
    print(f"wrote {out} ({result.times.size} samples)")
    return 0


def _load_series(path):
    """Observations from a 2-column CSV or a 7-column trace, by the first nonblank line's width."""
    first = ""
    if Path(path).is_file():
        with Path(path).open(encoding="utf-8") as fh:
            first = next((line for line in fh if line != "\n"), "")
    if first.count(",") + 1 == 7:
        from .ultradian import read_trace

        return read_trace(path)
    return load_observations(path)


def _cmd_subsample(args) -> int:
    cfg = _load_config(args.config)
    dense = _load_series(args.dense)
    spec = _measurement_spec(args, cfg)
    series = subsample(dense, spec)
    out = Path(args.out) if args.out else _out_dir(args.out_dir, cfg) / f"obs_{spec.kind}.csv"
    write_observations(series, out)
    print(f"wrote {out} ({series.n} samples)")
    return 0


def _cmd_estimate(args) -> int:
    step = args.recon_step
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"estimate: --recon-step must be finite and positive, got {step!r}")
    if args.density_time is not None and not math.isfinite(args.density_time):
        raise ValueError(f"estimate: --density-time must be finite, got {args.density_time!r}")
    cfg = _load_config(args.config)
    obs_path = args.obs or cfg.get("paths", {}).get("observations")
    if not obs_path:
        raise ValueError("estimate: observations path required (--obs or config)")
    obs = load_observations(obs_path)

    kicks_path = args.kicks or cfg.get("paths", {}).get("kicks")
    hyper = _hyper_from_config(cfg, args)
    kicks = KickSeries.empty()
    if kicks_path:
        kicks = load_kicks(kicks_path)

    result = estimate(obs, kicks, hyper)
    out = _out_dir(args.out_dir, cfg)

    write_states_csv(result, out / "states.csv")

    t0, t1 = obs.span
    grid = np.arange(t0, t1 + 0.5 * step, step)
    grid = grid[grid <= t1]
    values, dashed = reconstruct_trajectory(result, grid)
    write_reconstruction_csv(grid, values, dashed, out / "reconstruction.csv")

    at_time = args.density_time if args.density_time is not None else 0.5 * (t0 + t1)
    _write_densities(result.state.x, obs, result.tables.h, result.tables.T_l, at_time, out / "densities.csv")

    write_trace_csv(result.traces, out / "trace.csv")

    L = result.traces[-1].objective[-1]
    stops = ", ".join(f"{trace.name} {trace.stop_reason}" for trace in result.traces)
    print(
        f"wrote states, reconstruction, densities, trace to {out} "
        f"(n={obs.n}, iterations={result.iterations}, L={L:.6g}; stopped: {stops})"
    )
    return 0


def _write_densities(x, obs, h: float, T_l: float, at_time: float, path) -> None:
    """Write rho_x of the states x and rho_y of the data at one time to ``path``.

    Both share one value grid: the range of x and the data, padded by DENSITY_GRID_PAD bandwidths h.
    """
    pad = DENSITY_GRID_PAD * h
    lo, hi = min(x.min(), obs.values.min()) - pad, max(x.max(), obs.values.max()) + pad
    grid = np.linspace(lo, hi, DENSITY_GRID_POINTS)
    rho_x = density_estimate(x, obs.times, h, T_l, at_time, grid)
    rho_y = density_estimate(obs.values, obs.times, h, T_l, at_time, grid)
    write_densities_csv(grid, rho_x, rho_y, path)


def _cmd_densities(args) -> int:
    at_times = _parse_float_list(args.at_times, "densities --at-times") if args.at_times is not None else None
    if at_times == []:
        raise ValueError(f"densities --at-times: no times given, got {args.at_times!r}")
    if at_times is not None and not all(math.isfinite(at) for at in at_times):
        raise ValueError(f"densities --at-times: times must be finite, got {args.at_times!r}")
    stem = Path(args.out).stem if args.out else "densities"
    names = [f"{stem}_t{at:g}.csv" for at in at_times or ()]
    for name in names:
        if names.count(name) > 1:
            clash = [at for at, other in zip(at_times, names) if other == name]
            raise ValueError(f"densities --at-times: times {clash} all map to one file, {name}")
    cfg = _load_config(args.config)
    obs = load_observations(args.obs)
    hyper = _hyper_from_config(cfg, args)
    T_l = hyper.T_l if hyper.T_l is not None else resolve_time_scales(obs, hyper)[2]
    h = bandwidth_rule_of_thumb(obs.values)

    if args.states:
        states = read_states_csv(args.states)
        if not np.array_equal(states["t"], obs.times):
            raise ValueError("densities: the states file's times are not the observations' times")
        x = states["x"]
    else:
        x = obs.values

    t0, t1 = obs.span
    if at_times is None:
        at_times = [0.5 * (t0 + t1)]

    out_dir = Path(args.out).parent if args.out else _out_dir(args.out_dir, cfg)
    for at in at_times:
        out = Path(args.out) if args.out and len(at_times) == 1 else out_dir / f"{stem}_t{at:g}.csv"
        _write_densities(x, obs, h, T_l, at, out)
        print(f"wrote {out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and then shared by every call in the process.

    A parser tree is a reference cycle that only the cyclic collector frees, and the
    numeric code gives that collector little reason to run, so one tree per
    ``run_command`` would pile up in the resident memory of an in-process caller.
    Parsing leaves the parser unchanged, and each handler looks its module's names up
    when it runs, so a shared parser behaves like a fresh one.
    """
    parser = argparse.ArgumentParser(
        prog="mcsmooth",
        description="Multicomponent smoother for sparse oscillatory time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the glucose-insulin model")
    p.add_argument("--params", choices=["nominal", "icu"], default="nominal")
    p.add_argument("--nutrition", help="nutrition schedule CSV: t_start,t_end,rate_mg_per_min")
    p.add_argument("--constant-nutrition", type=float, help="constant rate mg/min over the run")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--discard", type=float, default=0.0, help="transient minutes to drop")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("subsample", help="apply a measurement function to a dense series")
    p.add_argument("--in", dest="dense", required=True, help="dense observations CSV")
    p.add_argument("--spec", choices=["h1", "h2", "h3"])
    p.add_argument("--seed", type=int)
    p.add_argument("--period", type=float)
    p.add_argument("--gap-min", type=float)
    p.add_argument("--gap-max", type=float)
    p.add_argument("--times", help="comma-separated explicit times for h1")
    p.add_argument("--times-file", help="file of explicit times for h1, one per line")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_subsample)

    p = sub.add_parser("estimate", help="run the staged estimation")
    p.add_argument("--obs")
    p.add_argument("--kicks")
    p.add_argument("--config")
    p.add_argument("--out-dir")
    p.add_argument("--t-s", dest="T_s", type=float)
    p.add_argument("--t-l", dest="T_l", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--omega-tilde", type=float)
    p.add_argument("--iters-stage1a", dest="max_iter_stage1a", type=int)
    p.add_argument("--iters-stage1b", dest="max_iter_stage1b", type=int)
    p.add_argument("--iters-stage2", dest="max_iter_stage2", type=int)
    p.add_argument("--dashed-threshold", dest="dashed_gap_threshold", type=float)
    p.add_argument("--basic-state", choices=_BASIC_STATES)
    p.add_argument("--recon-step", type=float, default=1.0)
    p.add_argument("--density-time", type=float)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("densities", help="kernel density grids at requested times")
    p.add_argument("--obs", required=True)
    p.add_argument("--states", help="states CSV from estimate (x column used)")
    p.add_argument("--at-times", help="comma-separated times; default window midpoint")
    p.add_argument("--t-l", dest="T_l", type=float)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_densities)

    p = sub.add_parser("version", help="print the package version")
    p.set_defaults(func=lambda args: (print(f"mcsmooth {__version__}"), 0)[1])

    return parser


def run_command(argv) -> int:
    """Run one CLI command; returns the process exit code (2 = usage error)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
