"""Spans around the program's public functions, for the traced run.

The program has no tracing of its own. The traced run wraps public functions
from outside: each hook rebinds one function in the module that calls it, so
a call made through that module's globals opens a span. Spans (name, start,
end, parent) stay in memory and are written out once the run ends. A layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# (module that calls the function, attribute, span name). A span name of None
# means the name depends on the call; see _span_name.
HOOKS = (
    ("mcsmooth.cli", "run_command", "cli.run_command"),
    ("mcsmooth.cli", "simulate", "ultradian.simulate"),
    ("mcsmooth.cli", "write_trace", "ultradian.write_trace"),
    # cli imports read_trace lazily from mcsmooth.ultradian at each call.
    ("mcsmooth.ultradian", "read_trace", "ultradian.read_trace"),
    ("mcsmooth.cli", "subsample", "timeseries.subsample"),
    ("mcsmooth.cli", "load_observations", "timeseries.load_observations"),
    ("mcsmooth.cli", "write_observations", "timeseries.write_observations"),
    ("mcsmooth.optimizer", "initialize", "optimizer.initialize"),
    ("mcsmooth.optimizer", "build_tables", "kernels.build_tables"),
    ("mcsmooth.optimizer", "run_stage", None),
    ("mcsmooth.optimizer", "eval_total", "objective.eval_total"),
    ("mcsmooth.optimizer", "eval_components", "objective.eval_components"),
    ("mcsmooth.optimizer", "grad_total", "gradients.grad_total"),
    ("mcsmooth.objective", "eval_L1", "objective.eval_L1"),
    ("mcsmooth.objective", "eval_L2", "objective.eval_L2"),
    ("mcsmooth.objective", "eval_L3_L4", "objective.eval_L3_L4"),
    ("mcsmooth.objective", "eval_Lparams", "objective.eval_Lparams"),
    ("mcsmooth.objective", "transition_quantities", "oscillator.transition_quantities"),
    ("mcsmooth.gradients", "transition_quantities", "oscillator.transition_quantities"),
    ("mcsmooth.cli", "reconstruct_trajectory", "optimizer.reconstruct_trajectory"),
    ("mcsmooth.cli", "density_estimate", "optimizer.density_estimate"),
    ("mcsmooth.cli", "write_states_csv", "optimizer.write_csv"),
    ("mcsmooth.cli", "write_reconstruction_csv", "optimizer.write_csv"),
    ("mcsmooth.cli", "write_densities_csv", "optimizer.write_csv"),
    ("mcsmooth.cli", "write_trace_csv", "optimizer.write_csv"),
)

STAGES = ("stage1a", "stage1b", "stage2")

# Spans whose self time and call count are reported as "<name>.s" / ".calls".
TIMED = (
    "ultradian.simulate", "ultradian.write_trace", "ultradian.read_trace",
    "timeseries.subsample", "timeseries.load_observations", "timeseries.write_observations",
    "kernels.build_tables", "oscillator.transition_quantities",
    "objective.eval_total", "objective.eval_components", "objective.eval_L1",
    "objective.eval_L2", "objective.eval_L3_L4", "objective.eval_Lparams",
    "gradients.grad_total", "optimizer.initialize",
    *(f"optimizer.{s}" for s in STAGES),
    "optimizer.reconstruct_trajectory", "optimizer.density_estimate",
    "optimizer.write_csv", "cli.run_command",
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("ultradian.simulate.s", "s"),
    ("ultradian.simulate.min_per_s", "min/s"),
    ("ultradian.write_trace.s", "s"),
    ("ultradian.read_trace.s", "s"),
    ("timeseries.subsample.s", "s"),
    ("timeseries.load_observations.s", "s"),
    ("timeseries.write_observations.s", "s"),
    ("kernels.build_tables.s", "s"),
    ("kernels.tables_mb", "MB"),
    ("oscillator.transition_quantities.calls", "count"),
    ("oscillator.transition_quantities.s", "s"),
    ("objective.eval_total.calls", "count"),
    ("objective.eval_total.s", "s"),
    ("objective.eval_components.calls", "count"),
    ("objective.eval_components.s", "s"),
    ("objective.eval_L1.s", "s"),
    ("objective.eval_L2.calls", "count"),
    ("objective.eval_L2.s", "s"),
    ("objective.eval_L3_L4.s", "s"),
    ("objective.eval_Lparams.s", "s"),
    ("gradients.grad_total.calls", "count"),
    ("gradients.grad_total.s", "s"),
    ("optimizer.initialize.s", "s"),
    ("optimizer.initialize.period_err_pct", "%"),
    ("optimizer.stage1a.s", "s"),
    ("optimizer.stage1b.s", "s"),
    ("optimizer.stage2.s", "s"),
    ("optimizer.stage1a.iterations", "count"),
    ("optimizer.stage1b.iterations", "count"),
    ("optimizer.stage2.iterations", "count"),
    ("optimizer.evals_per_step", "evals/step"),
    ("optimizer.reconstruct_trajectory.s", "s"),
    ("optimizer.density_estimate.s", "s"),
    ("optimizer.write_csv.s", "s"),
    ("cli.run_command.s", "s"),
    ("cli.trace_overhead_pct", "%"),
)


@dataclass
class Span:
    name: str
    phase: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _span_name(default: str | None, args, kwargs) -> str:
    if default is not None:
        return default
    # run_stage(state, obs, tables, gaps, schedule, mask, iters, config, floors, name)
    return "optimizer." + str(kwargs.get("name", args[9] if len(args) > 9 else "stage"))


def _tables_bytes(tables) -> int:
    return sum(
        getattr(tables, f.name).nbytes
        for f in dataclasses.fields(tables)
        if isinstance(getattr(tables, f.name), np.ndarray)
    )


def _annotate(name: str, span: Span, kwargs, result) -> None:
    """Per-call facts the per-layer ratios need."""
    if name == "ultradian.simulate":
        span.info["minutes"] = float(kwargs["t_end"])
    elif name == "kernels.build_tables":
        span.info["bytes"] = _tables_bytes(result)
    elif name == "optimizer.initialize":
        span.info["period_min"] = 2.0 * math.pi / result[0].priors.omega_tilde


class Tracer:
    """Installs the hooks and keeps the spans of one run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, default_name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                _span_name(default_name, args, kwargs),
                tracer.phase,
                tracer._stack[-1] if tracer._stack else None,
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            _annotate(span.name, span, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every hook; a hook whose target is gone is reported as missing."""
        for module_name, attr, name in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def per_layer_metrics(
    spans: list[Span],
    n_records: int,
    iterations: dict[str, float],
    truth_period_min: float | None,
    record_s: float,
    traced_record_s: float,
) -> dict[str, dict]:
    """Per-layer metrics from the spans of one traced set-up and one traced pass.

    A layer that runs during the pass is reported per record; a layer that
    runs only during set-up (the truth simulation of the estimate workloads)
    is reported per set-up. A layer the workload never runs reads 0.
    ``iterations`` holds the mean accepted steps per record for each stage.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def pick(name):
        """Span indices of the phase the layer ran in, and the divisor."""
        idx = by_name.get(name, [])
        in_pass = [i for i in idx if spans[i].phase == "pass"]
        if in_pass:
            return in_pass, n_records
        return idx, 1

    values: dict[str, float] = {}
    for name in TIMED:
        idx, per = pick(name)
        values[f"{name}.s"] = sum(own[i] for i in idx) / per
        values[f"{name}.calls"] = len(idx) / per

    idx, _ = pick("ultradian.simulate")
    busy = sum(spans[i].end - spans[i].start for i in idx)
    values["ultradian.simulate.min_per_s"] = (
        sum(spans[i].info["minutes"] for i in idx) / busy if busy > 0 else 0.0
    )
    idx, _ = pick("kernels.build_tables")
    values["kernels.tables_mb"] = (
        sum(spans[i].info["bytes"] for i in idx) / len(idx) / 2**20 if idx else 0.0
    )
    idx, _ = pick("optimizer.initialize")
    values["optimizer.initialize.period_err_pct"] = (
        100.0 * sum(abs(spans[i].info["period_min"] / truth_period_min - 1.0) for i in idx) / len(idx)
        if idx and truth_period_min else 0.0
    )
    steps = 0.0
    for stage in STAGES:
        values[f"optimizer.{stage}.iterations"] = iterations.get(stage, 0.0)
        steps += iterations.get(stage, 0.0)
    values["optimizer.evals_per_step"] = (
        values["objective.eval_total.calls"] / steps if steps else 0.0
    )
    values["cli.trace_overhead_pct"] = 100.0 * (traced_record_s / record_s - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
