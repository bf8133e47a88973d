"""The workloads, and the runner that times them.

A record is one operation: a fixed list of ``mcsmooth.cli.run_command``
calls. A pass runs every record once, in an order drawn from the seed. The
number of passes follows from ``--seconds`` and the workload's nominal pass
time, so a run does a fixed amount of work and never stops on the clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import mcsmooth.cli
import numpy as np

import checks
import tracing
from checks import CheckFailed

# The ICU week of the paper: constant tube feed, 2000 min transient dropped.
WEEK = ("--t-end", "12080", "--dt", "0.1", "--discard", "2000")
TRUTH = ("--params", "icu", "--constant-nutrition", "80", *WEEK)
SETUPS = 3
MIN_PASSES = 2


@dataclass
class Record:
    name: str
    commands: list[list[str]]
    outputs: list[Path]


class EstimateWorkload:
    """Simulate the ICU week, subsample it, and estimate each subsample.

    Set-up writes the dense truth and one observation file per record; a
    record is one ``estimate`` call with the default 1-min reconstruction
    grid.
    """

    def __init__(self, specs, caps=(200, 200, 2000), truth=TRUTH, nominal_pass_s=4.0):
        self.specs = dict(specs)  # record name -> subsample arguments
        self.caps = tuple(caps)
        self.truth = tuple(truth)
        self.nominal_pass_s = nominal_pass_s
        self.dir = Path()

    def setup(self, run_dir: Path, seed: int) -> None:
        self.dir = run_dir
        run(["simulate", *self.truth, "--out", str(run_dir / "truth.csv")])
        for name, spec in self.specs.items():
            run(["subsample", "--in", str(run_dir / "truth.csv"), *spec,
                 "--out", str(run_dir / f"{name}.csv")])

    def records(self) -> list[Record]:
        caps = ("--iters-stage1a", "--iters-stage1b", "--iters-stage2")
        cap_args = [v for flag, cap in zip(caps, self.caps) for v in (flag, str(cap))]
        out = []
        for name in self.specs:
            d = self.dir / name
            out.append(Record(
                name,
                [["estimate", "--obs", str(self.dir / f"{name}.csv"), "--out-dir", str(d), *cap_args]],
                [d / f for f in ("states.csv", "reconstruction.csv", "densities.csv", "trace.csv")],
            ))
        return out

    def check(self, record: Record) -> dict[str, float]:
        """Output checks; returns the record's RMSE figures against the truth."""
        truth_t, truth_g = checks.read_trace(self.dir / "truth.csv")
        obs_path = self.dir / f"{record.name}.csv"
        grid, values = checks.check_estimate(obs_path, self.dir / record.name, self.caps)
        truth = checks.truth_at(truth_t, truth_g, grid)
        obs = checks.read_floats(obs_path, 2)
        return {
            "recon_rmse_mgdl": checks.rmse(values, truth),
            "linear_interp_rmse_mgdl": checks.rmse(np.interp(grid, obs[:, 0], obs[:, 1]), truth),
            "constant_mean_rmse_mgdl": checks.rmse(np.full(grid.size, obs[:, 1].mean()), truth),
        }

    def truth_period_min(self) -> float:
        return checks.mean_period(*checks.read_trace(self.dir / "truth.csv"))

    def iterations(self, record: Record) -> dict[str, int]:
        """Accepted steps per stage, read from the record's trace.csv."""
        stages = [row[0] for row in checks.read_rows(self.dir / record.name / "trace.csv", 10)]
        return {s: stages.count(s) - 1 for s in tracing.STAGES}


class CohortWorkload:
    """Virtual patients: simulate one week each, then subsample h2 and h3.

    Set-up simulates a short window per patient, the input of the DOP853
    check. The h2 draw of each patient comes from the workload seed. The
    estimator does not run. ``recon_rmse_mgdl`` here is the RMSE of the
    linear interpolation through the h3 samples against the written trace.
    """

    def __init__(self, patients, week=WEEK, window_min=600, nominal_pass_s=17.0):
        self.patients = tuple(patients)  # (parameter set, constant feed mg/min)
        self.week = tuple(week)
        self.window_min = window_min
        self.nominal_pass_s = nominal_pass_s
        self.dir = Path()
        self.h2_seeds: list[int] = []

    @staticmethod
    def name(params: str, feed: float) -> str:
        return f"{params}_{feed:g}"

    def setup(self, run_dir: Path, seed: int) -> None:
        self.dir = run_dir
        rng = np.random.default_rng(seed)
        self.h2_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.patients))]
        for params, feed in self.patients:
            d = run_dir / self.name(params, feed)
            d.mkdir(parents=True, exist_ok=True)
            run(["simulate", "--params", params, "--constant-nutrition", f"{feed:g}",
                 "--t-end", str(self.window_min), "--dt", "0.1", "--out", str(d / "window.csv")])

    def records(self) -> list[Record]:
        out = []
        for i, (params, feed) in enumerate(self.patients):
            d = self.dir / self.name(params, feed)
            trace = str(d / "trace.csv")
            out.append(Record(
                self.name(params, feed),
                [
                    ["simulate", "--params", params, "--constant-nutrition", f"{feed:g}",
                     *self.week, "--out", trace],
                    ["subsample", "--in", trace, "--spec", "h2", "--seed", str(self.h2_seeds[i]),
                     "--out", str(d / "h2.csv")],
                    ["subsample", "--in", trace, "--spec", "h3", "--out", str(d / "h3.csv")],
                ],
                [d / "trace.csv", d / "h2.csv", d / "h3.csv"],
            ))
        return out

    def check(self, record: Record) -> dict[str, float]:
        params, feed = {self.name(*p): p for p in self.patients}[record.name]
        d = self.dir / record.name
        trace_t, trace_g = checks.read_trace(d / "trace.csv")
        checks.check_sampled(d / "h2.csv", trace_t, trace_g, "h2")
        t3, g3 = checks.check_sampled(d / "h3.csv", trace_t, trace_g, "h3")
        checks.check_window(d / "window.csv", params, feed)
        inside = trace_t <= t3[-1]
        return {"recon_rmse_mgdl": checks.rmse(np.interp(trace_t[inside], t3, g3), trace_g[inside])}

    def truth_period_min(self) -> float | None:
        return None

    def iterations(self, record: Record) -> dict[str, int]:
        return {}


WORKLOADS = {
    # The paper's sparse regime: gaps of 60-90 min, n ~ 135, default caps.
    # Seeds 11-13 are the ROADMAP gate seeds.
    "sparse_h2": lambda: EstimateWorkload(
        {f"h2_s{s}": ("--spec", "h2", "--seed", str(s)) for s in range(11, 19)},
        nominal_pass_s=4.3,
    ),
    # The same week every 5 min (n = 2017), caps 20/20/40: the n x n layers.
    "dense_h3": lambda: EstimateWorkload(
        {"h3": ("--spec", "h3")}, caps=(20, 20, 40), nominal_pass_s=7.6,
    ),
    # The synthetic data pipeline: ICU-fit and nominal patients, several feeds.
    "synth_cohort": lambda: CohortWorkload(
        (("icu", 80.0), ("nominal", 60.0), ("icu", 40.0)), nominal_pass_s=17.0,
    ),
}


class CommandFailed(RuntimeError):
    pass


def run(argv: list[str]) -> None:
    # Looked up at call time, so the traced run's hook on run_command applies.
    code = mcsmooth.cli.run_command(argv)
    if code != 0:
        raise CommandFailed(f"mcsmooth {argv[0]} exited with {code}")


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def run_pass(records, rng, digests, failed, mismatched, label) -> dict[str, float]:
    """One pass over every record; returns each record's wall time."""
    order = list(records)
    rng.shuffle(order)
    times = {}
    for rec in order:
        start = perf_counter()
        try:
            for argv in rec.commands:
                run(argv)
        except Exception:  # a failed record is counted; the run goes on
            times[rec.name] = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            failed.add((label, rec.name))
            continue
        times[rec.name] = perf_counter() - start
        if digests.setdefault(rec.name, digest(rec.outputs)) != digest(rec.outputs):
            print(f"{rec.name}: pass {label} wrote different bytes", file=sys.stderr)
            mismatched.add((label, rec.name))
    return times


def run_workload(name, workload, seed: int, seconds: int, trace: bool,
                 import_s: float, run_dir: Path) -> dict:
    """Set up, time the passes, check the outputs; the benchmark's result line."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    passes = max(MIN_PASSES, math.ceil(seconds / workload.nominal_pass_s))
    tracer = tracing.Tracer() if trace else None
    devnull = open(os.devnull, "w")
    with devnull, contextlib.redirect_stdout(devnull):
        if tracer:
            tracer.install()
        setup_times = []
        for _ in range(1 if trace else SETUPS):
            start = perf_counter()
            workload.setup(run_dir, seed)
            setup_times.append(perf_counter() - start)
        if tracer:
            tracer.uninstall()

        records = workload.records()
        rng = random.Random(seed)
        digests, failed, mismatched = {}, set(), set()
        pass_s = [run_pass(records, rng, digests, failed, mismatched, p) for p in range(passes)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        labels = list(range(passes))
        if tracer:
            tracer.phase = "pass"
            tracer.install()
            traced = run_pass(records, rng, digests, failed, mismatched, "traced")
            tracer.uninstall()
            labels.append("traced")

        figures, bad_checks = {}, set()
        for rec in records:
            try:
                figures[rec.name] = workload.check(rec)
            except CheckFailed as exc:
                print(f"{rec.name}: check failed: {exc}", file=sys.stderr)
                bad_checks.add(rec.name)
        period = workload.truth_period_min()

    failed |= mismatched
    failed |= {(label, name) for label in labels for name in bad_checks}
    pass_means = [statistics.mean(t.values()) for t in pass_s]
    # The mean, not the median or the best pass: on a shared host the CPU
    # switches between a fast and a slow speed every few seconds, and the mean
    # moves smoothly with the share of fast passes where the others jump.
    record_s = statistics.mean(pass_means)
    summary = {
        key: statistics.mean(f[key] for f in figures.values())
        for key in next(iter(figures.values()), {})
    }
    if period is not None:
        summary["truth_period_min"] = period
    print(f"{name}: passes={passes} pass_s={pass_means} setup_s={setup_times} "
          f"reference={summary}", file=sys.stderr)
    if not figures:
        raise SystemExit(f"{name}: no record passed its checks")

    result = {
        "correct": not (mismatched or bad_checks),
        "attempted": len(labels) * len(records),
        "failed": len(failed),
    }
    if tracer:
        if tracer.missing:
            print(f"missing hooks: {sorted(set(tracer.missing))}", file=sys.stderr)
        tracer.write(run_dir / "spans.jsonl")
        ok = [r for r in records if r.name not in bad_checks]
        iterations = {
            s: statistics.mean(workload.iterations(r).get(s, 0) for r in ok)
            for s in tracing.STAGES
        }
        result["metrics"] = tracing.per_layer_metrics(
            tracer.spans, len(records), iterations, period, record_s, statistics.mean(traced.values()),
        )
    else:
        result["metrics"] = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "record_s": {"value": record_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "recon_rmse_mgdl": {"value": summary["recon_rmse_mgdl"], "unit": "mg/dl"},
        }
    return result
