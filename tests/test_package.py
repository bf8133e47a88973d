import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import mcsmooth

LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(mcsmooth.__path__) if m.name != "cli")


def test_library_modules_found():
    assert "objective" in LIBRARY_MODULES and "cli" not in LIBRARY_MODULES


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_public_names_are_exported_by_the_package(module):
    names = importlib.import_module(f"mcsmooth.{module}").__all__
    assert [name for name in names if not hasattr(mcsmooth, name)] == []


def test_only_read_columns_parses_csv():
    # Every file the package reads goes through timeseries.read_columns.
    reader = inspect.getsource(mcsmooth.timeseries.read_columns)
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "import csv" not in source, path.name
        inside = reader.count("np.loadtxt") if path.name == "timeseries.py" else 0
        assert source.count("np.loadtxt") == inside, path.name


def test_only_write_columns_writes_csv():
    # Every file the package writes goes through timeseries.write_columns.
    writes = re.compile(r"""open\([^)]*["'](?:[wax]|r\+)[bt+]*["']|write_text|write_bytes|savetxt|tofile|np\.save""")
    writer = inspect.getsource(mcsmooth.timeseries.write_columns)
    assert len(writes.findall(writer)) == 1
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert writes.findall(source) == writes.findall(writer if path.name == "timeseries.py" else ""), path.name


def test_only_kick_series_reads_kicks():
    # How a kick adds time is written once: other modules see kicks only through
    # KickSeries.intensity_before and KickSeries.alpha_kick, the one division by
    # the mean intensity.
    reads = re.compile(r"\bkicks\.times\b|\.intensities\b")
    divides = re.compile(r"/[^/\n]*(intensit|mean)")
    owner = inspect.getsource(mcsmooth.timeseries.KickSeries.alpha_kick)
    assert len(divides.findall(owner)) == 1
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name != "timeseries.py":
            assert reads.findall(source) == [], path.name
        assert divides.findall(source) == divides.findall(owner if path.name == "timeseries.py" else ""), path.name


def test_gradients_restate_no_objective_term():
    # Each objective term is written once: the gradient reads the L1 mixture, the
    # transition and flex residuals from objective.py, and x - b, cos phi and
    # sin phi from oscillator.propagate, instead of forming them again.
    restated = re.compile(r"\bgaussian_kernel\(|\bnp\.(?:cos|sin|hypot|arctan2)\(|\(1\.0 - d_l\)|\bq\.mean_[xz]\b")
    assert restated.findall(inspect.getsource(mcsmooth.gradients)) == []
    objective = inspect.getsource(mcsmooth.objective)
    assert len(re.findall(r"\(1\.0 - d_l\)", objective)) == 2  # the relaxed mean and its variance
    assert len(re.findall(r"\bq\.mean_[xz]\b", objective)) == 2  # x+ - mean_x and z+ - mean_z


EVALUATORS = (
    "objective.eval_L1", "objective.eval_L2", "objective._L2_blocks", "objective.eval_L3_L4",
    "objective.eval_Lparams", "objective.eval_total", "objective.eval_components",
    "gradients._grad_L1", "gradients._grad_L2", "gradients._grad_L2_blocks",
    "gradients.grad_total", "gradients.fd_check", "optimizer.run_stage",
)


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_read_fixed_inputs_only_from_the_tables(name):
    # The data, its gaps and epsilon travel in KernelTables; no evaluator takes them apart.
    module, attr = name.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"mcsmooth.{module}"), attr)).parameters
    assert "tables" in params
    assert {"obs", "gaps", "epsilon"} & set(params) == set()
