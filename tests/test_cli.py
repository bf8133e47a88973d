import gc
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mcsmooth.cli
import mcsmooth.optimizer
from mcsmooth import (
    MeasurementSpec,
    ObservationSeries,
    initialize,
    load_observations,
    subsample,
    write_observations,
)
from mcsmooth.cli import run_command
from mcsmooth.optimizer import HyperConfig, read_states_csv
from mcsmooth.timeseries import read_columns
from mcsmooth.ultradian import NutritionSchedule, default_initial_state, icu_fit_params, simulate
from conftest import read_objective_trace


@pytest.fixture
def dense_csv(tmp_path):
    """A short dense oscillatory series from the simulator."""
    sched = NutritionSchedule.constant(80.0, 3200.0)
    r = simulate(icu_fit_params(), sched, default_initial_state(),
                 t_end=3100.0, dt=0.5, discard=2000.0)
    path = tmp_path / "dense.csv"
    with path.open("w", encoding="utf-8") as fh:
        for t, g in zip(r.times, r.glucose):
            fh.write(f"{float(t)!r},{float(g)!r}\n")
    return path


def test_version_exits_zero(capsys):
    assert run_command(["version"]) == 0
    assert "mcsmooth" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert run_command([]) == 2
    assert run_command(["simulate"]) == 2  # missing required --t-end


def test_simulate_happy_path(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = run_command([
        "simulate", "--params", "nominal", "--constant-nutrition", "90",
        "--t-end", "60", "--dt", "0.5", "--out", str(out),
    ])
    assert code == 0
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (61, 7)
    assert np.all(np.isfinite(data))


def test_simulate_with_nutrition_file(tmp_path):
    sched = tmp_path / "n.csv"
    sched.write_text("0,30,100\n", encoding="utf-8")
    out = tmp_path / "g.csv"
    code = run_command(["simulate", "--nutrition", str(sched), "--t-end", "40",
                        "--dt", "0.5", "--out", str(out)])
    assert code == 0
    assert np.loadtxt(out, delimiter=",").shape == (41, 7)


def test_estimate_missing_observations(tmp_path, capsys):
    code = run_command(["estimate", "--obs", str(tmp_path / "missing.csv"),
                        "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "load_observations: file not found" in err


@pytest.mark.parametrize("text, message", [
    ("0,100\n5,101\nabc,102\n15,103\n", "load_observations: line 3: parse failure"),
    ("0,100\n5,101\n5,102\n15,103\n", "load_observations: ObservationSeries: times must be strictly increasing"),
    ("\n0,1,2,3,4,5,6\n5,1,2,3,4,5,6\nabc,1,2,3,4,5,6\n", "read_trace: line 4: parse failure"),
    (None, "load_observations: file not found"),
])
def test_subsample_reports_the_fault_of_the_files_own_format(tmp_path, capsys, text, message):
    # The first nonblank line's width picks the reader: 7 fields a trace, else observations.
    path = tmp_path / "in.csv"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = run_command(["subsample", "--in", str(path), "--spec", "h3",
                        "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_subsample_deterministic(dense_csv, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h2",
                            "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    gaps = np.diff(load_observations(out1).times)
    assert gaps.min() >= 60.0 and gaps.max() <= 90.0


def test_subsample_h3_and_h1(dense_csv, tmp_path):
    out = tmp_path / "h3.csv"
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                        "--period", "5", "--out", str(out)]) == 0
    assert np.allclose(np.diff(load_observations(out).times), 5.0)

    out1 = tmp_path / "h1.csv"
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h1",
                        "--times", "2000,2100,2222.4", "--out", str(out1)]) == 0
    assert load_observations(out1).n == 3


@pytest.mark.parametrize("kind", ["h2", "h3"])
def test_subsample_defaults_are_the_measurement_spec_defaults(dense_csv, tmp_path, kind):
    # With no gap, period or seed given, the CLI writes what the library does.
    out, want = tmp_path / "cli.csv", tmp_path / "library.csv"
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", kind, "--out", str(out)]) == 0
    write_observations(subsample(load_observations(dense_csv), MeasurementSpec(kind)), want)
    assert out.read_bytes() == want.read_bytes()


def test_subsample_times_file_is_parsed_strictly(dense_csv, tmp_path, capsys):
    times, out = tmp_path / "times.txt", tmp_path / "h1.csv"
    times.write_text("2000\n2100", encoding="utf-8")  # no trailing newline
    args = ["subsample", "--in", str(dense_csv), "--spec", "h1",
            "--times-file", str(times), "--out", str(out)]
    assert run_command(args) == 0
    assert load_observations(out).n == 2
    capsys.readouterr()
    times.write_text("2000\n2100\nlate\n", encoding="utf-8")
    assert run_command(args) == 1
    assert "subsample: line 3" in capsys.readouterr().err


def test_estimate_writes_all_outputs(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h2",
                        "--seed", "3", "--out", str(obs_path)]) == 0
    out_dir = tmp_path / "run"
    code = run_command([
        "estimate", "--obs", str(obs_path), "--out-dir", str(out_dir),
        "--iters-stage1a", "20", "--iters-stage1b", "20", "--iters-stage2", "40",
    ])
    assert code == 0
    states = read_states_csv(out_dir / "states.csv")
    _, _, dashed = read_columns(out_dir / "reconstruction.csv", 3, "reconstruction")
    dens = read_columns(out_dir / "densities.csv", 3, "densities")
    trace = read_objective_trace(out_dir / "trace.csv")
    obs = load_observations(obs_path)
    assert states["t"].size == obs.n
    assert np.all((dashed == 0) | (dashed == 1))
    assert dens.shape == (3, 201) and np.all(dens[1:] >= 0)
    assert set(trace["stage"]) == {"stage1a", "stage1b", "stage2"}


def test_estimate_summary_names_why_each_stage_stopped(dense_csv, tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                        "--period", "20", "--out", str(obs_path)]) == 0
    # Stage 1a converges in 11 steps, stage 1b is cut at 5, and stage 2's L3
    # weight puts every ascent step below 2^-20 of the first trial.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hyper": {"weights_stage2": [1, 1, 1e30, 1, 1, 1, 1]}}),
                        encoding="utf-8")
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert run_command(["estimate", "--obs", str(obs_path), "--config", str(cfg_path),
                        "--out-dir", str(out_dir), "--iters-stage1a", "20",
                        "--iters-stage1b", "5"]) == 0
    summary = capsys.readouterr().out
    assert summary.count("\n") == 1
    assert summary.endswith("; stopped: stage1a tolerance, stage1b cap, stage2 stall)\n")
    # The stalled stage passes its start state on: its trace holds that one row.
    trace = read_objective_trace(out_dir / "trace.csv")
    assert Counter(trace["stage"]) == {"stage1a": 12, "stage1b": 6, "stage2": 1}


def test_config_file_with_flag_override(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "20", "--out", str(obs_path)])
    cfg = {
        "hyper": {"max_iter_stage1a": 5, "max_iter_stage1b": 5, "max_iter_stage2": 10,
                  "weights_stage2": [1, 1, 1, 1, 1, 1, 1]},
        "paths": {"out_dir": str(tmp_path / "from_config")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    # flag overrides the config's out_dir
    out_dir = tmp_path / "from_flag"
    code = run_command(["estimate", "--obs", str(obs_path), "--config", str(cfg_path),
                        "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "states.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_unknown_hyper_key_rejected(dense_csv, tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "30", "--out", str(obs_path)])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hyper": {"not_a_field": 1}}), encoding="utf-8")
    code = run_command(["estimate", "--obs", str(obs_path), "--config", str(cfg_path),
                        "--out-dir", str(tmp_path)])
    assert code == 1
    assert "unknown hyper config keys" in capsys.readouterr().err


def test_densities_command(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "10", "--out", str(obs_path)])
    out = tmp_path / "dens.csv"
    code = run_command(["densities", "--obs", str(obs_path), "--out", str(out),
                        "--at-times", "2500"])
    assert code == 0
    _, rho_x, rho_y = read_columns(out, 3, "densities")
    assert np.array_equal(rho_x, rho_y)  # no states file: x = y


def test_densities_multiple_times_and_states(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "10", "--out", str(obs_path)])
    est_dir = tmp_path / "est"
    run_command(["estimate", "--obs", str(obs_path), "--out-dir", str(est_dir),
                 "--iters-stage1a", "5", "--iters-stage1b", "5", "--iters-stage2", "10"])
    code = run_command(["densities", "--obs", str(obs_path),
                        "--states", str(est_dir / "states.csv"),
                        "--at-times", "2200,2800", "--out-dir", str(tmp_path)])
    assert code == 0
    for at in ("2200", "2800"):
        assert read_columns(tmp_path / f"densities_t{at}.csv", 3, "densities")[0].size > 0


def test_densities_at_several_times_write_beside_out(dense_csv, tmp_path, monkeypatch):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "10", "--out", str(obs_path)])
    (tmp_path / "run").mkdir()
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    code = run_command(["densities", "--obs", str(obs_path), "--out", str(tmp_path / "run" / "dens.csv"),
                        "--at-times", "2200,2800"])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["dens_t2200.csv", "dens_t2800.csv"]
    assert list((tmp_path / "cwd").iterdir()) == []


def test_densities_times_that_share_a_file_name_rejected(dense_csv, tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "10", "--out", str(obs_path)])
    out_dir = tmp_path / "dens"
    code = run_command(["densities", "--obs", str(obs_path), "--out-dir", str(out_dir),
                        "--at-times", "2200,2500.001,2500.004,2500.0041"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: densities --at-times: times [2500.001, 2500.004, 2500.0041] all map to one file, "
        "densities_t2500.csv\n"
    )
    assert not out_dir.exists()


def test_densities_without_t_l_use_the_t_l_initialize_resolves(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h2",
                 "--seed", "3", "--out", str(obs_path)])
    T_l = initialize(load_observations(obs_path))[1].T_l
    resolved, pinned = tmp_path / "resolved.csv", tmp_path / "pinned.csv"
    assert run_command(["densities", "--obs", str(obs_path), "--out", str(resolved)]) == 0
    assert run_command(["densities", "--obs", str(obs_path), "--out", str(pinned),
                        "--t-l", repr(T_l)]) == 0
    assert resolved.read_bytes() == pinned.read_bytes()
    # No density reads T_s, so densities takes no --t-s.
    assert run_command(["densities", "--obs", str(obs_path), "--out", str(pinned),
                        "--t-s", "100"]) == 2


@pytest.mark.parametrize("t_l", [None, "560"])
def test_densities_hold_no_pair_array(tmp_path, t_l):
    n = 1500
    t = 5.0 * np.arange(n)
    y = 100.0 + 10.0 * np.sin(2.0 * np.pi * t / 140.0) + np.random.default_rng(0).normal(0.0, 2.0, n)
    obs_path = tmp_path / "obs.csv"
    write_observations(ObservationSeries(t, y), obs_path)
    argv = ["densities", "--obs", str(obs_path), "--out", str(tmp_path / "dens.csv")]
    if t_l is not None:
        argv += ["--t-l", t_l]
    assert run_command(argv) == 0  # a first run does the imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_command(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n * 8


def counted_calls(monkeypatch, module, name):
    """The argument tuples of every call to ``module.name`` from now on."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_tables_built_once_per_estimate_and_never_for_densities(dense_csv, tmp_path, monkeypatch):
    # One pass for the row sums and the mean, one for the amplitude, and one set of tables.
    products = counted_calls(monkeypatch, mcsmooth.optimizer, "time_products")
    tables = counted_calls(monkeypatch, mcsmooth.optimizer, "build_tables")
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "10", "--out", str(obs_path)])
    kicks_path = tmp_path / "kicks.csv"
    kicks_path.write_text("2400,1.5\n2700,0.5\n", encoding="utf-8")
    for kicks in ([], ["--kicks", str(kicks_path)]):
        products.clear()
        tables.clear()
        assert run_command(["estimate", "--obs", str(obs_path), *kicks, "--out-dir", str(tmp_path),
                            "--iters-stage1a", "2", "--iters-stage1b", "2", "--iters-stage2", "2"]) == 0
        assert (len(products), len(tables)) == (2, 1)
    for t_l in ([], ["--t-l", "560"]):
        products.clear()
        tables.clear()
        assert run_command(["densities", "--obs", str(obs_path), *t_l,
                            "--out", str(tmp_path / "dens.csv")]) == 0
        assert products == [] and tables == []


@pytest.fixture
def short_obs_csv(tmp_path):
    """Eight oscillating observations: enough to start an estimate."""
    path = tmp_path / "obs.csv"
    write_observations(ObservationSeries(70.0 * np.arange(8), 100.0 + 20.0 * np.sin(np.arange(8))), path)
    return path


@pytest.mark.parametrize("fault, message", [
    ("nan_x", "read_states: non-finite entry"),
    ("shifted_t", "densities: the states file's times are not the observations' times"),
    ("one_row_short", "densities: the states file's times are not the observations' times"),
])
def test_densities_rejects_states_of_other_observations(short_obs_csv, tmp_path, capsys, fault, message):
    # The states must be an estimate on --obs itself: the x of other times, or
    # a NaN x, would be weighted at the observations' times without a word.
    obs = load_observations(short_obs_csv)
    t, x = obs.times.copy(), obs.values.copy()
    if fault == "nan_x":
        x[3] = np.nan
    elif fault == "shifted_t":
        t += 5000.0
    else:
        t, x = t[:-1], x[:-1]
    states = tmp_path / "states.csv"
    rows = (f"{ti!r},{xi!r},0.0,100.0,20.0,0.05\n" for ti, xi in zip(t.tolist(), x.tolist()))
    states.write_text("".join(rows), encoding="utf-8")
    out = tmp_path / "dens.csv"
    code = run_command(["densities", "--obs", str(short_obs_csv), "--states", str(states), "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--omega-tilde", "0"], "HyperConfig: omega_tilde must be positive"),
    (["--omega-tilde", "-0.05"], "HyperConfig: omega_tilde must be positive"),
    (["--t-l", "-5"], "HyperConfig: T_l must be positive"),
    (["--t-s", "inf"], "HyperConfig: T_s must be positive and finite"),
    (["--t-l", "inf"], "HyperConfig: T_l must be positive and finite"),
    (["--omega-tilde", "inf"], "HyperConfig: omega_tilde must be positive and finite"),
])
def test_bad_time_scales_rejected_before_any_work(tmp_path, short_obs_csv, capsys, monkeypatch, flags,
                                                  message):
    def no_work(*args, **kwargs):
        raise AssertionError("time scales resolved from a bad config")

    monkeypatch.setattr(mcsmooth.optimizer, "resolve_time_scales", no_work)
    assert run_command(["estimate", "--obs", str(short_obs_csv), *flags, "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--t-l", "10"], ["--t-s", "1000"], ["--omega-tilde", "1e-6", "--t-l", "100"],
                                   ["--t-s", "100", "--t-l", "10"]])
def test_t_l_below_the_resolved_t_s_rejected(dense_csv, tmp_path, capsys, flags):
    # The h2 record resolves T_s to about 140 min and T_l to about 560 min.
    obs_path = tmp_path / "obs.csv"
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h2", "--out", str(obs_path)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert run_command(["estimate", "--obs", str(obs_path), *flags, "--out-dir", str(out_dir)]) == 1
    assert "error: resolve_time_scales: T_l must be at least T_s" in capsys.readouterr().err
    assert not out_dir.exists()


BEYOND_FLOATS = 10**400  # JSON reads it as an int, which no float can hold


@pytest.mark.parametrize("flags, config, message", [
    (["--epsilon", "1.5"], {}, "HyperConfig: epsilon must lie in [0, 1)"),
    ([], {"hyper": {"weights_stage2": [1, 1, 1]}}, "HyperConfig: weights_stage2 must hold 7 finite nonnegative"),
    ([], {"hyper": {"weights_stage2": [0, 0, 1, -1, 0, 0, 0]}}, "HyperConfig: weights_stage2 must hold 7 finite"),
    ([], {"hyper": {"weights_stage2": 5}}, "HyperConfig: weights_stage2 must hold 7 finite"),
    ([], {"hyper": {"T_s": "abc"}}, "HyperConfig: T_s must be positive"),
    ([], {"hyper": [1, 2]}, 'run_command: config section "hyper" must hold a JSON object'),
    ([], {"paths": "run"}, 'run_command: config section "paths" must hold a JSON object'),
    ([], [1, 2], "run_command: config file must hold a JSON object"),
    ([], {"hyper": {"epsilon": None}}, "HyperConfig: epsilon must lie in [0, 1)"),
    ([], {"hyper": {"max_iter_stage2": 2.5}}, "HyperConfig: max_iter_stage2: iteration caps must"),
    ([], {"hyper": {"max_iter_stage1a": True}}, "HyperConfig: max_iter_stage1a: iteration caps must"),
    ([], {"hyper": {"omega_tilde": float("nan")}}, "HyperConfig: omega_tilde must be positive"),
    ([], {"hyper": {"dashed_gap_threshold": "120"}}, "HyperConfig: dashed_gap_threshold must be a number"),
    (["--dashed-threshold", "nan"], {}, "HyperConfig: dashed_gap_threshold must be a number"),
    ([], {"hyper": {"dashed_gap_threshold": float("nan")}}, "HyperConfig: dashed_gap_threshold must be a number"),
    ([], {"hyper": {"a_tilde_zero": 1}}, "HyperConfig: a_tilde_zero must be true or false"),
    ([], {"hyper": {"weights_stage2": "1111111"}}, "HyperConfig: weights_stage2 must hold 7 finite"),
    # JSON reads an integer of any size; a real must fit a float.
    ([], {"hyper": {"T_s": BEYOND_FLOATS}}, "HyperConfig: T_s must be positive and finite"),
    ([], {"hyper": {"omega_tilde": BEYOND_FLOATS}}, "HyperConfig: omega_tilde must be positive and finite"),
    ([], {"hyper": {"dashed_gap_threshold": BEYOND_FLOATS}}, "HyperConfig: dashed_gap_threshold must be a number"),
    ([], {"hyper": {"weights_stage2": [BEYOND_FLOATS] + [1] * 6}}, "HyperConfig: weights_stage2 must hold 7 finite"),
])
def test_bad_epsilon_or_weights_rejected_before_any_work(tmp_path, short_obs_csv, capsys, monkeypatch, flags,
                                                          config, message):
    calls = counted_calls(monkeypatch, mcsmooth.optimizer, "time_products")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_command(["estimate", "--obs", str(short_obs_csv), "--config", str(config_path), *flags,
                        "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key", ["eta", "backtrack_factor", "max_backtracks", "tolerance"])
def test_line_search_settings_are_unknown_hyper_keys(tmp_path, short_obs_csv, capsys, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"hyper": {key: 0.5}}), encoding="utf-8")
    assert run_command(["estimate", "--obs", str(short_obs_csv), "--config", str(config_path),
                        "--out-dir", str(tmp_path)]) == 1
    assert f"unknown hyper config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eta", "--tolerance"])
def test_line_search_flags_are_gone(tmp_path, short_obs_csv, flag):
    argv = ["estimate", "--obs", str(short_obs_csv), flag, "0.5", "--out-dir", str(tmp_path)]
    assert run_command(argv) == 2


@pytest.mark.parametrize("step", ["0", "-1", "nan"])
def test_bad_recon_step_rejected_before_any_work(tmp_path, short_obs_csv, capsys, monkeypatch, step):
    loads = counted_calls(monkeypatch, mcsmooth.cli, "load_observations")
    assert run_command(["estimate", "--obs", str(short_obs_csv), "--recon-step", step,
                        "--out-dir", str(tmp_path / "run")]) == 1
    assert "estimate: --recon-step must be finite and positive" in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--density-time", "nan"], "estimate: --density-time must be finite, got nan"),
    (["estimate", "--density-time", "inf"], "estimate: --density-time must be finite, got inf"),
    (["estimate", "--density-time=-inf"], "estimate: --density-time must be finite, got -inf"),
    (["densities", "--at-times", "100,nan"], "densities --at-times: times must be finite, got '100,nan'"),
    (["densities", "--at-times", "inf"], "densities --at-times: times must be finite, got 'inf'"),
    (["densities", "--at-times", ","], "densities --at-times: no times given, got ','"),
    (["densities", "--at-times", ";"], "densities --at-times: no times given, got ';'"),
])
def test_nonfinite_density_times_rejected_before_any_work(tmp_path, short_obs_csv, capsys, monkeypatch, argv,
                                                          message):
    loads = counted_calls(monkeypatch, mcsmooth.cli, "load_observations")
    assert run_command([*argv, "--obs", str(short_obs_csv), "--out-dir", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "run").exists()


BAD_GAPS = "MeasurementSpec: gap_bounds must be finite and satisfy 0 < low < high"
BAD_PERIOD = "MeasurementSpec: period must be finite and positive"


@pytest.mark.parametrize("measurement, message", [
    ({"kind": "h2", "gap_min": "x"}, "subsample: measurement.gap_min must be a number"),
    ({"kind": "h2", "gap_max": True}, "subsample: measurement.gap_max must be a number"),
    ({"kind": "h2", "gap_max": float("inf")}, BAD_GAPS),
    ({"kind": "h3", "period": None}, "subsample: measurement.period must be a number"),
    ({"kind": "h2", "seed": 1.5}, "subsample: measurement.seed must be an integer"),
    ({"kind": "h2", "seed": "3"}, "subsample: measurement.seed must be an integer"),
    ({"kind": "h1", "explicit_times": "70,140"}, "subsample: measurement.explicit_times must be a list of numbers"),
    ({"kind": "h1", "explicit_times": [70, "140"]}, "subsample: measurement.explicit_times must be a list of"),
    ({"kind": "h1", "explicit_times": [70, False]}, "subsample: measurement.explicit_times must be a list of"),
    ({"seed": 3}, "subsample: measurement kind required (--spec or config)"),
    ({"kind": "h2", "gap_min": BEYOND_FLOATS}, "subsample: measurement.gap_min must be a number"),
    ({"kind": "h3", "period": BEYOND_FLOATS}, "subsample: measurement.period must be a number"),
    ({"kind": "h1", "explicit_times": [BEYOND_FLOATS]}, "subsample: measurement.explicit_times must be a list of"),
])
def test_bad_measurement_values_name_their_key(tmp_path, short_obs_csv, capsys, measurement, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"measurement": measurement}), encoding="utf-8")
    out = tmp_path / "sub.csv"
    assert run_command(["subsample", "--in", str(short_obs_csv), "--config", str(config_path),
                        "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--spec", "h2", "--gap-max", "inf"], BAD_GAPS),
    (["--spec", "h2", "--gap-min=-inf"], BAD_GAPS),
    (["--spec", "h2", "--gap-min=-5", "--gap-max", "3"], BAD_GAPS),
    (["--spec", "h3", "--period", "nan"], BAD_PERIOD),
    (["--spec", "h3", "--period", "inf"], BAD_PERIOD),
    (["--spec", "h2", "--seed", "-1"], "MeasurementSpec: rng_seed must be a nonnegative integer"),
    # the observations are 70 min apart: every such gap snaps back to t = 0
    (["--spec", "h2", "--gap-min", "0.2", "--gap-max", "0.4"],
     "subsample: a gap of 0.2-0.4 min snaps back to the sample at t=0.0"),
    (["--spec", "h3", "--period", "10"], "subsample: period 10.0 asks for more targets than the 8 dense samples"),
])
def test_bad_measurement_specs_rejected(tmp_path, short_obs_csv, capsys, flags, message):
    out = tmp_path / "sub.csv"
    assert run_command(["subsample", "--in", str(short_obs_csv), *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["subsample", "--in", "{obs}", "--spec", "h1", "--times", "1,abc"],
                                  ["densities", "--obs", "{obs}", "--at-times", "abc"]])
def test_float_list_errors_name_the_command_and_flag(tmp_path, short_obs_csv, capsys, argv):
    argv = [a.format(obs=short_obs_csv) for a in argv]
    assert run_command([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    assert f"error: {argv[0]} {argv[-2]}: could not convert string to float: 'abc'" in capsys.readouterr().err


def test_estimate_with_kicks_file(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h2",
                 "--seed", "5", "--out", str(obs_path)])
    kicks_path = tmp_path / "kicks.csv"
    kicks_path.write_text("2400,1.5\n2700,0.5\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    code = run_command(["estimate", "--obs", str(obs_path), "--kicks", str(kicks_path),
                        "--out-dir", str(out_dir),
                        "--iters-stage1a", "10", "--iters-stage1b", "10",
                        "--iters-stage2", "20"])
    assert code == 0
    assert read_states_csv(out_dir / "states.csv")["t"].size > 0


@pytest.mark.parametrize("text", ["nan,1.0\n", "100,1.0\ninf,1.0\n", "100,inf\n"])
def test_estimate_rejects_a_non_finite_kick(short_obs_csv, tmp_path, capsys, text):
    kicks_path = tmp_path / "kicks.csv"
    kicks_path.write_text(text, encoding="utf-8")
    code = run_command(["estimate", "--obs", str(short_obs_csv), "--kicks", str(kicks_path),
                        "--out-dir", str(tmp_path / "run")])
    assert code == 1
    assert "load_kicks: KickSeries: non-finite entry" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_outdir_env_default(dense_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("MCSMOOTH_OUTDIR", str(tmp_path / "envout"))
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                        "--period", "10"]) == 0
    assert (tmp_path / "envout" / "obs_h3.csv").exists()


@pytest.mark.parametrize("command, config, message", [
    ("estimate", {"hyperr": {"T_s": 140}, "weigths": {}}, "run_command: unknown config keys: ['hyperr', 'weigths']"),
    ("estimate", {"paths": {"observation": "obs.csv"}}, "run_command: unknown paths config keys: ['observation']"),
    # hyper.weights_stage2 and hyper.a_tilde_zero have one spelling each; the stage-1 weights are constants.
    ("estimate", {"weights": {"stage2": [1] * 7}}, "run_command: unknown config keys: ['weights']"),
    ("estimate", {"basic_state": "oscillatory", "hyper": {"a_tilde_zero": True}},
     "run_command: unknown config keys: ['basic_state']"),
    ("estimate", {"hyper": {"weights_stage1a": [0, 0, 1, 0, 0, 0, 0]}},
     "run_command: unknown hyper config keys: ['weights_stage1a']"),
    ("estimate", {"hyper": {"weights_stage1b": [0, 0, 1, 1, 0, 0, 0]}},
     "run_command: unknown hyper config keys: ['weights_stage1b']"),
    ("subsample", {"measurement": {"kind": "h2", "gap_mn": 200, "gap_max": 250}},
     "run_command: unknown measurement config keys: ['gap_mn']"),
    ("subsample", {"hyper": {"eta": 0.5}}, "run_command: unknown hyper config keys: ['eta']"),
])
def test_misspelled_config_keys_rejected_before_any_work(tmp_path, short_obs_csv, capsys, monkeypatch, command,
                                                         config, message):
    loads = counted_calls(monkeypatch, mcsmooth.cli, "load_observations")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    flag = "--obs" if command == "estimate" else "--in"
    assert run_command([command, flag, str(short_obs_csv), "--config", str(config_path),
                        "--out-dir", str(tmp_path / "run")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, config, a_tilde_zero", [
    ([], {}, False),
    (["--basic-state", "non-oscillatory"], {}, True),
    (["--basic-state", "oscillatory"], {}, False),
    ([], {"hyper": {"a_tilde_zero": True}}, True),
    (["--basic-state", "oscillatory"], {"hyper": {"a_tilde_zero": True}}, False),
])
def test_basic_state_flag_and_hyper_key(tmp_path, short_obs_csv, monkeypatch, flags, config, a_tilde_zero):
    calls = counted_calls(monkeypatch, mcsmooth.cli, "estimate")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_command(["estimate", "--obs", str(short_obs_csv), "--config", str(config_path), *flags,
                        "--iters-stage1a", "2", "--iters-stage1b", "2", "--iters-stage2", "2",
                        "--out-dir", str(tmp_path / "run")]) == 0
    ((_, _, hyper),) = calls
    assert hyper.a_tilde_zero is a_tilde_zero


def test_each_hyper_flag_sets_its_field_over_the_config(tmp_path, short_obs_csv, monkeypatch):
    calls = counted_calls(monkeypatch, mcsmooth.cli, "estimate")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"hyper": {"T_s": 90.0, "epsilon": 0.3, "max_iter_stage2": 7,
                                                 "weights_stage2": [1, 1, 1, 1, 0, 0, 0]}}),
                           encoding="utf-8")
    flags = ["--t-s", "100", "--t-l", "400", "--epsilon", "0.2", "--omega-tilde", "0.05",
             "--iters-stage1a", "2", "--iters-stage1b", "3", "--iters-stage2", "4",
             "--dashed-threshold", "150", "--basic-state", "non-oscillatory"]
    assert run_command(["estimate", "--obs", str(short_obs_csv), "--config", str(config_path), *flags,
                        "--out-dir", str(tmp_path / "run")]) == 0
    ((_, _, hyper),) = calls
    assert hyper == HyperConfig(T_s=100.0, T_l=400.0, epsilon=0.2, omega_tilde=0.05, max_iter_stage1a=2,
                                max_iter_stage1b=3, max_iter_stage2=4, dashed_gap_threshold=150.0,
                                a_tilde_zero=True, weights_stage2=(1, 1, 1, 1, 0, 0, 0))


@pytest.mark.parametrize("source", ["flag", "file", "config"])
def test_nonfinite_explicit_times_rejected_before_any_output(tmp_path, short_obs_csv, capsys, source):
    argv = ["subsample", "--in", str(short_obs_csv), "--spec", "h1"]
    if source == "flag":
        argv += ["--times", "nan,210"]
    elif source == "file":
        (tmp_path / "times.txt").write_text("70\nnan\n210\n", encoding="utf-8")
        argv += ["--times-file", str(tmp_path / "times.txt")]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"measurement": {"explicit_times": [70, float("nan")]}}),
                                              encoding="utf-8")
        argv += ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "sub.csv"
    assert run_command([*argv, "--out", str(out)]) == 1
    assert "error: MeasurementSpec: explicit_times must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--t-end", "inf"], "simulate: t_end must be finite and positive, got inf"),
    (["--t-end", "inf", "--constant-nutrition", "80"], "simulate: t_end must be finite and positive, got inf"),
    (["--t-end", "nan"], "simulate: t_end must be finite and positive, got nan"),
    (["--t-end", "nan", "--constant-nutrition", "80"], "simulate: t_end must be finite and positive, got nan"),
    (["--t-end=-5", "--constant-nutrition", "80"], "simulate: t_end must be finite and positive, got -5.0"),
    (["--t-end", "0"], "simulate: t_end must be finite and positive, got 0.0"),
    (["--t-end", "60", "--dt", "nan"], "simulate: dt must be finite and positive, got nan"),
    (["--t-end", "60", "--dt", "inf"], "simulate: dt must be finite and positive, got inf"),
    (["--t-end", "60", "--dt=-0.5"], "simulate: dt must be finite and positive, got -0.5"),
    (["--t-end", "60", "--discard", "nan"], "simulate: discard must be finite, got nan"),
    (["--t-end", "60", "--discard=-inf"], "simulate: discard must be finite, got -inf"),
])
def test_nonfinite_simulation_inputs_rejected(tmp_path, capsys, flags, message):
    out = tmp_path / "sim.csv"
    assert run_command(["simulate", *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["nan", "inf", "csv"])
def test_nonfinite_nutrition_rate_rejected_before_integrating(tmp_path, capsys, monkeypatch, source):
    calls = []
    monkeypatch.setattr(NutritionSchedule, "segment", lambda self, t: calls.append(t))
    if source == "csv":
        (tmp_path / "feed.csv").write_text("0,100,80\n100,200,nan\n", encoding="utf-8")
        feed, rate = ["--nutrition", str(tmp_path / "feed.csv")], "nan"
    else:
        feed, rate = ["--constant-nutrition", source], source
    out = tmp_path / "sim.csv"
    assert run_command(["simulate", "--t-end", "60", *feed, "--out", str(out)]) == 1
    assert f"error: NutritionSchedule: rate must be finite, got {rate}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


COMMAND_IN_FRESH_INTERPRETER = """
import argparse
import gc
import sys
import mcsmooth.cli

def loaded(what):
    # "parser": whether any argparse parser exists; anything else names a module.
    if what == "parser":
        return any(isinstance(obj, argparse.ArgumentParser) for obj in gc.get_objects())
    return what in sys.modules

what = sys.argv[1]
if loaded(what):
    print("loaded by import")
    sys.exit(0)
code = mcsmooth.cli.run_command(sys.argv[2:])
assert code == 0, code
print("loaded" if loaded(what) else "not loaded")
"""

# Each command on the 8-sample record; each 60-90 min h2 gap snaps forward on its 70-min grid.
COMMANDS = {
    "simulate": ["simulate", "--t-end", "30", "--constant-nutrition", "80", "--out", "{out}/sim.csv"],
    "subsample_h1": ["subsample", "--in", "{obs}", "--spec", "h1", "--times", "140,70,70,300",
                     "--out", "{out}/sub.csv"],
    "subsample_h2": ["subsample", "--in", "{obs}", "--spec", "h2", "--seed", "11", "--out", "{out}/sub.csv"],
    "subsample_h3": ["subsample", "--in", "{obs}", "--spec", "h3", "--period", "70", "--out", "{out}/sub.csv"],
    "estimate": ["estimate", "--obs", "{obs}", "--iters-stage1a", "2", "--iters-stage1b", "2",
                 "--iters-stage2", "2", "--out-dir", "{out}"],
    "densities": ["densities", "--obs", "{obs}", "--out", "{out}/dens.csv"],
}


def command_argv(command, obs, out):
    return [arg.format(obs=obs, out=out) for arg in COMMANDS[command]]


def in_fresh_interpreter(what, argv):
    """Import mcsmooth.cli and run ``argv`` in a new interpreter; say whether ``what`` was loaded."""
    src = Path(mcsmooth.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", COMMAND_IN_FRESH_INTERPRETER, what, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


# np.unique imports numpy.ma on its first call: 1 MB and 12-18 ms per CLI process. numpy.random
# loads secrets and hmac with it: more than 2 MB.
@pytest.mark.parametrize("module", ["numpy.ma", "numpy.random"])
@pytest.mark.parametrize("command", COMMANDS)
def test_command_never_imports(tmp_path, short_obs_csv, command, module):
    verdict = in_fresh_interpreter(module, command_argv(command, short_obs_csv, tmp_path))
    if verdict == "loaded by import":
        pytest.skip(f"importing mcsmooth.cli already loads {module}")
    assert verdict == "not loaded"


def test_importing_the_cli_builds_no_parser():
    # Import time is part of every benchmark workload's setup_s; the first call builds the parser.
    assert in_fresh_interpreter("parser", ["version"]) == "loaded"


@pytest.mark.parametrize("command", [*COMMANDS, "version"])
def test_a_command_leaves_no_reference_cycles(tmp_path, short_obs_csv, command):
    # Only the cyclic collector frees a cycle, and the numeric code rarely sets it off, so
    # cycles left per call pile up in an in-process caller: a parser built per call leaves 363 objects.
    argv = command_argv(command, short_obs_csv, tmp_path) if command in COMMANDS else [command]
    assert run_command(argv) == 0  # a first run does the imports and builds the parser
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_command(argv) == 0
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    gc.garbage.clear()
    assert found == 0, kinds.most_common(5)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_reused_parser_runs_a_command_as_a_fresh_one_does(tmp_path, short_obs_csv, capsys, command):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    in_fresh_interpreter("parser", command_argv(command, short_obs_csv, fresh))
    name = COMMANDS[command][0]
    assert run_command([name, "--config"]) == 2  # the subcommand's own usage error
    assert capsys.readouterr().err.startswith(f"usage: mcsmooth {name} ")
    assert run_command(command_argv(command, short_obs_csv, reused)) == 0
    assert files_under(reused) == files_under(fresh) != []
    for path in files_under(fresh):
        assert (reused / path).read_bytes() == (fresh / path).read_bytes(), path


def files_under(root):
    return sorted(path.relative_to(root) for path in Path(root).rglob("*"))


@pytest.mark.parametrize("command, key, value", [
    ("estimate", "observations", 5),
    ("estimate", "kicks", ["kicks.csv"]),
    ("estimate", "out_dir", 1.5),
    ("subsample", "out_dir", ["a"]),
    ("simulate", "nutrition", {"file": "n.csv"}),
    ("simulate", "out_dir", True),
])
def test_a_non_string_config_path_is_rejected(tmp_path, short_obs_csv, capsys, monkeypatch, command, key, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MCSMOOTH_OUTDIR", raising=False)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"paths": {key: value}}), encoding="utf-8")
    argv = {
        "estimate": ["estimate", "--config", str(config_path)]
                    + (["--obs", str(short_obs_csv)] if key != "observations" else []),
        "subsample": ["subsample", "--in", str(short_obs_csv), "--spec", "h3", "--config", str(config_path)],
        "simulate": ["simulate", "--t-end", "5", "--config", str(config_path)],
    }[command]
    before = files_under(tmp_path)
    assert run_command(argv) == 1
    assert f"error: run_command: paths.{key} must be a string" in capsys.readouterr().err
    assert files_under(tmp_path) == before


def test_a_null_config_path_is_unset(tmp_path, short_obs_csv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"paths": {"out_dir": None, "kicks": None}}), encoding="utf-8")
    argv = ["subsample", "--in", str(short_obs_csv), "--spec", "h3", "--period", "70",
            "--config", str(config_path), "--out-dir", str(tmp_path / "run")]
    assert run_command(argv) == 0
    assert (tmp_path / "run" / "obs_h3.csv").is_file()


@pytest.mark.parametrize("argv, config, message", [
    (["estimate", "--obs", "{obs}", "--config", "{tmp}/absent.json"], None, "run_command: config file not found"),
    (["estimate", "--config", "{tmp}/config.json"], {"paths": {"kicks": None}},
     "estimate: observations path required (--obs or config)"),
])
def test_a_run_without_its_inputs_is_rejected(tmp_path, short_obs_csv, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    before = files_under(tmp_path)
    assert run_command([arg.format(obs=short_obs_csv, tmp=tmp_path) for arg in argv]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert files_under(tmp_path) == before
