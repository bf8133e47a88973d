import json
import tracemalloc

import numpy as np
import pytest

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


@pytest.mark.parametrize("flags, message", [
    (["--omega-tilde", "0"], "HyperConfig: omega_tilde must be positive"),
    (["--omega-tilde", "-0.05"], "HyperConfig: omega_tilde must be positive"),
    (["--t-l", "-5"], "HyperConfig: T_l must be positive"),
])
def test_bad_time_scales_rejected_before_any_work(tmp_path, capsys, monkeypatch, flags, message):
    def no_work(*args, **kwargs):
        raise AssertionError("time scales resolved from a bad config")

    monkeypatch.setattr(mcsmooth.optimizer, "resolve_time_scales", no_work)
    obs_path = tmp_path / "obs.csv"
    write_observations(ObservationSeries(70.0 * np.arange(8), 100.0 + 20.0 * np.sin(np.arange(8))), obs_path)
    assert run_command(["estimate", "--obs", str(obs_path), *flags, "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, weights, message", [
    (["--epsilon", "1.5"], {}, "HyperConfig: epsilon must lie in [0, 1)"),
    ([], {"stage2": [1, 1, 1]}, "HyperConfig: weights_stage2 must hold 7 finite nonnegative"),
    ([], {"stage1b": [0, 0, 1, -1, 0, 0, 0]}, "HyperConfig: weights_stage1b must hold 7 finite"),
])
def test_bad_epsilon_or_weights_rejected_before_any_work(tmp_path, capsys, monkeypatch, flags, weights,
                                                          message):
    calls = counted_calls(monkeypatch, mcsmooth.optimizer, "time_products")
    obs_path = tmp_path / "obs.csv"
    write_observations(ObservationSeries(70.0 * np.arange(8), 100.0 + 20.0 * np.sin(np.arange(8))), obs_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"weights": weights}), encoding="utf-8")
    assert run_command(["estimate", "--obs", str(obs_path), "--config", str(config_path), *flags,
                        "--out-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert calls == []


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
