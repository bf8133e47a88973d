import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mcsmooth.cli
import mcsmooth.optimizer
from mcsmooth import ObservationSeries, initialize, load_observations, write_observations
from mcsmooth.cli import run_command
from mcsmooth.optimizer import (
    read_densities_csv,
    read_reconstruction_csv,
    read_states_csv,
    read_trace_csv,
)
from mcsmooth.ultradian import NutritionSchedule, default_initial_state, icu_fit_params, simulate


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
    recon = read_reconstruction_csv(out_dir / "reconstruction.csv")
    dens = read_densities_csv(out_dir / "densities.csv")
    trace = read_trace_csv(out_dir / "trace.csv")
    obs = load_observations(obs_path)
    assert states["t"].size == obs.n
    assert np.array_equal(np.unique(recon["dashed"]), np.unique(recon["dashed"]))
    assert dens["value"].size == 201
    assert set(trace["stage"]) == {"stage1a", "stage1b", "stage2"}


def test_config_file_with_flag_override(dense_csv, tmp_path):
    obs_path = tmp_path / "obs.csv"
    run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                 "--period", "20", "--out", str(obs_path)])
    cfg = {
        "hyper": {"max_iter_stage1a": 5, "max_iter_stage1b": 5, "max_iter_stage2": 10},
        "weights": {"stage2": [1, 1, 1, 1, 1, 1, 1]},
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
    back = read_densities_csv(out)
    assert np.array_equal(back["rho_x"], back["rho_y"])  # no states file: x = y


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
        assert read_densities_csv(tmp_path / f"densities_t{at}.csv")["value"].size > 0


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


@pytest.mark.parametrize("flags, message", [
    (["--omega-tilde", "0"], "HyperConfig: omega_tilde must be positive"),
    (["--omega-tilde", "-0.05"], "HyperConfig: omega_tilde must be positive"),
    (["--t-l", "-5"], "HyperConfig: T_l must be positive"),
])
def test_bad_time_scales_rejected_before_any_work(tmp_path, short_obs_csv, capsys, monkeypatch, flags,
                                                  message):
    def no_work(*args, **kwargs):
        raise AssertionError("time scales resolved from a bad config")

    monkeypatch.setattr(mcsmooth.optimizer, "resolve_time_scales", no_work)
    assert run_command(["estimate", "--obs", str(short_obs_csv), *flags, "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, config, message", [
    (["--epsilon", "1.5"], {}, "HyperConfig: epsilon must lie in [0, 1)"),
    ([], {"weights": {"stage2": [1, 1, 1]}}, "HyperConfig: weights_stage2 must hold 7 finite nonnegative"),
    ([], {"weights": {"stage1b": [0, 0, 1, -1, 0, 0, 0]}}, "HyperConfig: weights_stage1b must hold 7 finite"),
    ([], {"weights": {"stage1a": 5}}, "HyperConfig: weights_stage1a must hold 7 finite"),
    ([], {"hyper": {"T_s": "abc"}}, "HyperConfig: T_s must be positive"),
    ([], {"hyper": [1, 2]}, 'run_command: config section "hyper" must hold a JSON object'),
    ([], {"paths": "run"}, 'run_command: config section "paths" must hold a JSON object'),
    ([], {"hyper": {"epsilon": None}}, "HyperConfig: epsilon must lie in [0, 1)"),
    ([], {"hyper": {"max_iter_stage2": 2.5}}, "HyperConfig: max_iter_stage2: iteration caps must"),
    ([], {"hyper": {"max_iter_stage1a": True}}, "HyperConfig: max_iter_stage1a: iteration caps must"),
    ([], {"hyper": {"omega_tilde": float("nan")}}, "HyperConfig: omega_tilde must be positive"),
    ([], {"hyper": {"dashed_gap_threshold": "120"}}, "HyperConfig: dashed_gap_threshold must be a number"),
    (["--dashed-threshold", "nan"], {}, "HyperConfig: dashed_gap_threshold must be a number"),
    ([], {"hyper": {"dashed_gap_threshold": float("nan")}}, "HyperConfig: dashed_gap_threshold must be a number"),
    ([], {"hyper": {"a_tilde_zero": 1}}, "HyperConfig: a_tilde_zero must be true or false"),
    ([], {"weights": {"stage2": "1111111"}}, "HyperConfig: weights_stage2 must hold 7 finite"),
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


def test_outdir_env_default(dense_csv, tmp_path, monkeypatch):
    monkeypatch.setenv("MCSMOOTH_OUTDIR", str(tmp_path / "envout"))
    assert run_command(["subsample", "--in", str(dense_csv), "--spec", "h3",
                        "--period", "10"]) == 0
    assert (tmp_path / "envout" / "obs_h3.csv").exists()


@pytest.mark.parametrize("command, config, message", [
    ("estimate", {"hyperr": {"T_s": 140}, "weigths": {}}, "run_command: unknown config keys: ['hyperr', 'weigths']"),
    ("estimate", {"paths": {"observation": "obs.csv"}}, "run_command: unknown paths config keys: ['observation']"),
    ("estimate", {"weights": {"stage3": [1] * 7}}, "run_command: unknown weights config keys: ['stage3']"),
    ("estimate", {"basic_state": "nonoscillatory"},
     "run_command: basic_state must be one of ['oscillatory', 'non-oscillatory'], got 'nonoscillatory'"),
    ("estimate", {"basic_state": None}, "run_command: basic_state must be one of"),
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


@pytest.mark.parametrize("basic_state", ["oscillatory", "non-oscillatory"])
def test_known_basic_states_accepted(tmp_path, short_obs_csv, basic_state):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"basic_state": basic_state}), encoding="utf-8")
    assert run_command(["estimate", "--obs", str(short_obs_csv), "--config", str(config_path),
                        "--iters-stage1a", "2", "--iters-stage1b", "2", "--iters-stage2", "2",
                        "--out-dir", str(tmp_path / "run")]) == 0


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


SUBSAMPLE_IN_FRESH_INTERPRETER = """
import sys
import mcsmooth.cli
if "numpy.ma" in sys.modules:
    print("loaded by import")
    sys.exit(0)
for argv in (["--spec", "h1", "--times", "140,70,70,300"], ["--spec", "h3", "--period", "70"]):
    code = mcsmooth.cli.run_command(["subsample", "--in", sys.argv[1], *argv, "--out", sys.argv[2]])
    assert code == 0, code
print("numpy.ma loaded" if "numpy.ma" in sys.modules else "numpy.ma not loaded")
"""


def test_subsample_never_imports_numpy_ma(tmp_path, short_obs_csv):
    # np.unique imports numpy.ma on its first call: 1 MB and 12-18 ms per CLI process.
    src = Path(mcsmooth.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", SUBSAMPLE_IN_FRESH_INTERPRETER, str(short_obs_csv),
                           str(tmp_path / "sub.csv")], env=env, capture_output=True, text=True, check=True)
    verdict = done.stdout.splitlines()[-1]
    if verdict == "loaded by import":
        pytest.skip("importing mcsmooth.cli already loads numpy.ma")
    assert verdict == "numpy.ma not loaded"
