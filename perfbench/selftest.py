"""Tests of the benchmark's own code, on tiny inputs.

Run from the repository root (not collected by a plain ``pytest``):

    python3 -m pytest -q perfbench/selftest.py

Each output check must pass on the program's real outputs and reject a
deliberately corrupted copy; the traced mode must yield every per-layer
metric.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

TINY_TRUTH = ("--params", "icu", "--constant-nutrition", "80",
              "--t-end", "2600", "--dt", "0.1", "--discard", "2000")
TINY_CAPS = (5, 5, 5)
TINY_WEEK = ("--t-end", "700", "--dt", "0.1", "--discard", "100")


def tiny_estimate():
    return workloads.EstimateWorkload({"h3": ("--spec", "h3")}, caps=TINY_CAPS,
                                      truth=TINY_TRUTH, nominal_pass_s=1.0)


def tiny_cohort():
    return workloads.CohortWorkload((("icu", 80.0),), week=TINY_WEEK, window_min=60,
                                    nominal_pass_s=1.0)


def run_records(workload, run_dir: Path):
    workload.setup(run_dir, seed=7)
    records = workload.records()
    for rec in records:
        for argv in rec.commands:
            workloads.run(argv)
    return records


@pytest.fixture(scope="module")
def estimate_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("estimate")
    workload = tiny_estimate()
    (record,) = run_records(workload, run_dir)
    return workload, record, run_dir


@pytest.fixture(scope="module")
def cohort_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("cohort")
    workload = tiny_cohort()
    (record,) = run_records(workload, run_dir)
    return workload, record, run_dir


@pytest.fixture
def corrupt_estimate(estimate_run, tmp_path):
    """A copy of the estimate outputs to corrupt, and a runner of its checks."""
    workload, record, run_dir = estimate_run
    shutil.copy(run_dir / "h3.csv", tmp_path / "h3.csv")
    shutil.copytree(run_dir / record.name, tmp_path / "out")

    def check():
        checks.check_estimate(tmp_path / "h3.csv", tmp_path / "out", TINY_CAPS)

    return tmp_path / "out", check


def edit_rows(path: Path, edit) -> None:
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows))


def test_estimate_checks_pass_on_real_outputs(estimate_run):
    workload, record, _ = estimate_run
    figures = workload.check(record)
    assert figures["recon_rmse_mgdl"] > 0
    assert workload.iterations(record)["stage1a"] >= 1


def test_perturbed_state_x_rejected(corrupt_estimate):
    out, check = corrupt_estimate
    edit_rows(out / "states.csv", lambda rows: rows[3].__setitem__(1, repr(float(rows[3][1]) + 1e-9)))
    with pytest.raises(CheckFailed, match="states x"):
        check()


def test_missing_reconstruction_row_rejected(corrupt_estimate):
    out, check = corrupt_estimate
    edit_rows(out / "reconstruction.csv", lambda rows: rows.pop(10))
    with pytest.raises(CheckFailed, match="rows, expected"):
        check()


def test_dropped_states_column_rejected(corrupt_estimate):
    out, check = corrupt_estimate
    edit_rows(out / "states.csv", lambda rows: [r.pop() for r in rows])
    with pytest.raises(CheckFailed, match="6 columns"):
        check()


def test_swapped_trace_rows_rejected(corrupt_estimate):
    out, check = corrupt_estimate

    def swap(rows):
        rows[1], rows[2] = rows[2], rows[1]

    edit_rows(out / "trace.csv", swap)
    with pytest.raises(CheckFailed, match="iteration numbers"):
        check()


def test_decreasing_objective_rejected(corrupt_estimate):
    """Lower one stage-1a row's L and L3 together, so only monotonicity breaks."""
    out, check = corrupt_estimate

    def lower(rows):
        for col in (2, 5):  # L and L3; stage 1a weighs L3 alone
            rows[2][col] = repr(float(rows[2][col]) - 1.0)

    edit_rows(out / "trace.csv", lower)
    with pytest.raises(CheckFailed, match="decreases within stage1a"):
        check()


def test_weighted_sum_mismatch_rejected(corrupt_estimate):
    out, check = corrupt_estimate
    edit_rows(out / "trace.csv", lambda rows: rows[0].__setitem__(5, repr(float(rows[0][5]) + 1e-3)))
    with pytest.raises(CheckFailed, match="weighted sum"):
        check()


def test_final_l1_mismatch_rejected(corrupt_estimate):
    """Shift the last row's L1 and L together, so only the recomputed L1 differs."""
    out, check = corrupt_estimate

    def shift(rows):
        for col in (2, 3):
            rows[-1][col] = repr(float(rows[-1][col]) + 1e-6)

    edit_rows(out / "trace.csv", shift)
    with pytest.raises(CheckFailed, match="recomputed"):
        check()


@pytest.mark.parametrize("scale, match", [(-1.0, "negative density"), (1.01, "integrates to")])
def test_bad_density_rejected(corrupt_estimate, scale, match):
    out, check = corrupt_estimate
    edit_rows(out / "densities.csv", lambda rows: [r.__setitem__(1, repr(scale * float(r[1]))) for r in rows])
    with pytest.raises(CheckFailed, match=match):
        check()


def test_changed_bytes_between_passes_rejected(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    calls = []

    def fake_run(argv):
        calls.append(argv)
        out.write_text(f"{len(calls)}\n")

    monkeypatch.setattr(workloads, "run", fake_run)
    rec = workloads.Record("r", [["estimate"]], [out])
    digests, failed, mismatched = {}, set(), set()
    rng = workloads.random.Random(0)
    for label in range(2):
        workloads.run_pass([rec], rng, digests, failed, mismatched, label)
    assert mismatched == {(1, "r")} and not failed


@pytest.fixture
def cohort_copy(cohort_run, tmp_path):
    workload, record, run_dir = cohort_run
    shutil.copytree(run_dir / record.name, tmp_path / "p")
    return tmp_path / "p", checks.read_trace(run_dir / record.name / "trace.csv")


def test_cohort_checks_pass_on_real_outputs(cohort_run):
    workload, record, _ = cohort_run
    assert workload.check(record)["recon_rmse_mgdl"] > 0


def test_shifted_h2_time_rejected(cohort_copy):
    d, (t, g) = cohort_copy
    edit_rows(d / "h2.csv", lambda rows: rows[2].__setitem__(0, repr(float(rows[2][0]) - 40.0)))
    with pytest.raises(CheckFailed, match=r"\[60, 90\]"):
        checks.check_sampled(d / "h2.csv", t, g, "h2")


def test_perturbed_h2_value_rejected(cohort_copy):
    d, (t, g) = cohort_copy
    edit_rows(d / "h2.csv", lambda rows: rows[2].__setitem__(1, repr(float(rows[2][1]) + 1e-9)))
    with pytest.raises(CheckFailed, match="differs from the trace"):
        checks.check_sampled(d / "h2.csv", t, g, "h2")


def test_dropped_h3_sample_rejected(cohort_copy):
    d, (t, g) = cohort_copy
    edit_rows(d / "h3.csv", lambda rows: rows.pop(4))
    with pytest.raises(CheckFailed, match="5 min apart"):
        checks.check_sampled(d / "h3.csv", t, g, "h3")


def test_simulation_window_against_dop853(tmp_path):
    window = tmp_path / "window.csv"
    workloads.run(["simulate", "--params", "icu", "--constant-nutrition", "80",
                   "--t-end", "60", "--dt", "0.1", "--out", str(window)])
    checks.check_window(window, "icu", 80.0)
    with pytest.raises(CheckFailed, match="DOP853"):
        checks.check_window(window, "nominal", 80.0)
    edit_rows(window, lambda rows: rows[30].__setitem__(1, repr(float(rows[30][1]) * (1 + 1e-6))))
    with pytest.raises(CheckFailed, match="DOP853"):
        checks.check_window(window, "icu", 80.0)


@pytest.mark.parametrize("make", [tiny_estimate, tiny_cohort])
def test_traced_mode_yields_every_per_layer_metric(make, tmp_path):
    result = workloads.run_workload("tiny", make(), seed=3, seconds=1, trace=True,
                                    import_s=0.0, run_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3  # two timed passes and the traced pass, one record
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert all(np.isfinite(m["value"]) for m in metrics.values())
    assert metrics["cli.run_command.s"]["value"] > 0
    assert metrics["ultradian.simulate.min_per_s"]["value"] > 0
    if make is tiny_estimate:
        for name in ("kernels.build_tables.s", "objective.eval_L2.calls", "gradients.grad_total.calls",
                     "optimizer.stage2.s", "optimizer.reconstruct_trajectory.s",
                     "optimizer.initialize.period_err_pct", "optimizer.evals_per_step"):
            assert metrics[name]["value"] > 0, name
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (("mcsmooth.cli", "no_such_function", "x"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["mcsmooth.cli.no_such_function"]


def test_self_time_subtracts_children():
    spans = [tracing.Span("a", "pass", None, 0.0, 10.0), tracing.Span("b", "pass", 0, 1.0, 4.0),
             tracing.Span("c", "pass", 1, 2.0, 3.0)]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]
