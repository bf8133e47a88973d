import json

import numpy as np
import pytest

from mcsmooth import load_observations
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
