import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import mcsmooth

LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(mcsmooth.__path__) if m.name != "cli")


def test_library_modules_found():
    assert "objective" in LIBRARY_MODULES and "cli" not in LIBRARY_MODULES


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_public_names_are_exported_by_the_package(module):
    # Each module's __all__ is the one list of its public names: the package
    # star-imports every module and names none itself, so a name in two lists
    # would be shadowed silently by the later import.
    source = importlib.import_module(f"mcsmooth.{module}")
    assert [name for name in source.__all__ if getattr(mcsmooth, name, None) is not getattr(source, name)] == []
    for other in LIBRARY_MODULES:
        if other != module:
            assert set(source.__all__).isdisjoint(importlib.import_module(f"mcsmooth.{other}").__all__), other
    tree = ast.parse(Path(mcsmooth.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]
               for node in imports)
    assert module in [node.module for node in imports]
    assert not hasattr(mcsmooth, "__all__")


def test_the_readme_library_block_runs(tmp_path, monkeypatch, constant_feed):
    # The block uses the package's exports as a reader would, so it cannot drift from them.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL).group(1)
    mcsmooth.write_observations(mcsmooth.subsample(constant_feed, mcsmooth.MeasurementSpec("h2", rng_seed=11)),
                                tmp_path / "obs.csv")
    (tmp_path / "kicks.csv").write_text("", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


def test_every_benchmark_hook_resolves_but_the_two_known_dead_ones():
    # The tracer skips a hook whose name no longer resolves, and its per-layer
    # metric then vanishes without a failure. HOOKS is read as source, so the
    # benchmark's tracer is neither imported nor changed here.
    tracing = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    hooks = next(ast.literal_eval(node.value) for node in ast.parse(tracing).body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"])
    dead = set()
    for module_name, attr, _ in hooks:
        if module_name.split(".")[0] == "mcsmooth":
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if not callable(getattr(module, attr, None)):
                dead.add(f"{module_name}.{attr}")
    assert dead <= {"mcsmooth.optimizer.eval_total", "mcsmooth.gradients.transition_quantities"}


def test_only_read_columns_parses_csv():
    # Every file the package reads goes through timeseries.read_columns.
    reader = inspect.getsource(mcsmooth.timeseries.read_columns)
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "import csv" not in source, path.name
        inside = reader.count("np.loadtxt") if path.name == "timeseries.py" else 0
        assert source.count("np.loadtxt") == inside, path.name


def test_only_named_puts_a_readers_op_on_a_value_fault():
    # A reader's container raises on a fault of the values read; timeseries._named
    # is the one place that puts the reader's op on it, the op its read_columns
    # call passes for a fault of the text.
    timeseries, ultradian = mcsmooth.timeseries, mcsmooth.ultradian
    prefixing = re.compile(r'except ValueError as (\w+):\s*raise ValueError\(f"[^"]*\{\1\}')
    assert len(prefixing.findall(inspect.getsource(timeseries._named))) == 1
    for module in (timeseries, ultradian):
        inside = 1 if module is timeseries else 0
        assert len(prefixing.findall(inspect.getsource(module))) == inside, module.__name__
    readers = (timeseries.load_observations, timeseries.load_kicks, ultradian.read_trace,
               ultradian.NutritionSchedule.from_csv)
    for reader in readers:
        source = inspect.getsource(reader)
        op = re.search(r'read_columns\(path, \d, "(\w+)"', source).group(1)
        assert f'_named("{op}", ' in source, reader.__qualname__


def test_the_package_reads_numbers_only():
    # The reconstruction, densities and objective trace are written but never read
    # back, so read_columns parses floats only and no source filters numpy's
    # warnings about text columns.
    assert list(inspect.signature(mcsmooth.timeseries.read_columns).parameters) == ["path", "ncols", "op", "usecols"]
    warnings_import = re.compile(r"^\s*(?:import|from)\s+warnings\b", re.MULTILINE)
    written_only = re.compile(r"\bread_(?:reconstruction|densities|trace_csv)")
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert warnings_import.findall(source) == [], path.name
        assert written_only.findall(source) == [], path.name


def test_only_timeseries_states_what_a_number_is():
    # timeseries._is_number is the one rule for a number from outside; a second
    # module reading the float range would state it again.
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert ("sys.float_info" in source) == (path.name == "timeseries.py"), path.name


def test_l2_block_expressions_are_stated_once():
    # wky and L2 sum their blocks through the same two functions, so L2 is -0.0 at
    # x = y without a block walk: the value exponent and the W-weighted block sum,
    # with its off-diagonal doubling, are written nowhere else.
    kernels = mcsmooth.kernels
    terms = {
        re.escape("-2.0 * h * h"): kernels.value_exponent,
        r"weighted_column_sums\([^\n]*\)\.sum\(\)": kernels.pair_sum,
        r"\b2\.0 \* (?:total\b|weighted_column_sums\b)": kernels.pair_sum,
    }
    for pattern, owner in terms.items():
        assert len(re.findall(pattern, inspect.getsource(owner))) == 1, pattern
        for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
            found = re.findall(pattern, path.read_text(encoding="utf-8"))
            assert len(found) == (path.name == "kernels.py"), (path.name, pattern)
    for caller in (kernels.build_tables, mcsmooth.objective._L2_blocks):
        assert "pair_sum(" in inspect.getsource(caller), caller.__name__


def test_the_package_calls_no_numpy_sort():
    # The first call of a numpy sort pages in about 0.25 MB of numpy code, which a
    # process's peak RSS counts; subsample snaps its times in order instead. Python's
    # sorted stays allowed.
    numpy_sorts = re.compile(r"\b(?:np|numpy)\.(?:sort|unique)\b|\b(?:arg|lex)sort\b|\.sort\(")
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        assert numpy_sorts.findall(path.read_text(encoding="utf-8")) == [], path.name


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


def test_only_simulate_states_the_model_equations():
    # The right-hand side is written once, in simulate's step; tests/conftest.py's
    # _rhs is its readable reference. The terms are those of f4, f3 and f1.
    terms = ("exp(alpha * (", "(kappa * ", "du / (1.0 + damping)", "/ vg_c1 + a_1)")
    owner = inspect.getsource(mcsmooth.ultradian.simulate)
    assert all(term in owner for term in terms)
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for term in terms:
            assert source.count(term) == (owner.count(term) if path.name == "ultradian.py" else 0), (path.name, term)


def test_transition_gaps_have_one_shape_and_one_owner():
    # Entry k of the gaps is the transition k -> k + 1: there is no dummy leading entry
    # for a consumer to slice off, and one function adds the kicks' time to a gap.
    obs = mcsmooth.ObservationSeries([0.0, 60.0, 150.0, 160.0], [1.0, 2.0, 3.0, 4.0])
    gaps = mcsmooth.effective_gaps(obs, mcsmooth.KickSeries([60.0], [2.0]), 30.0)
    assert [field.tolist() for field in gaps] == [[60.0, 90.0, 10.0], [60.0, 150.0, 10.0]]
    assert not hasattr(obs, "gaps")
    sliced = re.compile(r"\b(?:dt_phase|dt_relax)\[(?:1:|j \+ 1)\]")
    relaxes = re.compile(r"\+=? [\w.]*\balpha \*")  # dt + alpha * (intensity inside the gap)
    owner = inspect.getsource(mcsmooth.oscillator.relaxation_gap)
    assert len(relaxes.findall(owner)) == 1
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert sliced.findall(source) == [], path.name
        assert relaxes.findall(source) == relaxes.findall(owner if path.name == "oscillator.py" else ""), path.name


GRADIENTS = ("_grad_L1", "_grad_L2", "_grad_L2_blocks", "_grad_Lparam", "grad_total", "fd_check")


def test_gradients_restate_no_objective_term():
    # Each objective term is written once: the gradient reads the L1 mixture, the
    # transition and flex residuals beside their values, and x - b, cos phi and
    # sin phi from oscillator.propagate, instead of forming them again.
    restated = re.compile(r"\bgaussian_kernel\(|\bnp\.(?:cos|sin|hypot|arctan2)\(|\(1\.0 - d_l\)|\bq\.mean_[xz]\b")
    for name in GRADIENTS:
        assert restated.findall(inspect.getsource(getattr(mcsmooth.objective, name))) == [], name
    objective = inspect.getsource(mcsmooth.objective)
    assert len(re.findall(r"\(1\.0 - d_l\)", objective)) == 2  # the relaxed mean and its variance
    assert len(re.findall(r"\bq\.mean_[xz]\b", objective)) == 2  # x+ - mean_x and z+ - mean_z


def test_each_gradient_sits_beside_its_value():
    # One module holds the objective: a term's value and its gradient change together.
    assert importlib.util.find_spec("mcsmooth.gradients") is None
    imports = re.compile(r"^\s*(?:from|import)\s.*\bgradients\b", re.MULTILINE)
    for path in sorted(Path(mcsmooth.__file__).parent.glob("*.py")):
        assert imports.findall(path.read_text(encoding="utf-8")) == [], path.name
    beside_grad_total = mcsmooth.grad_total.__globals__
    for value, gradient in (("eval_L1", "_grad_L1"), ("eval_L2", "_grad_L2"), ("eval_Lparams", "_grad_Lparam"),
                            ("eval_components", "grad_total")):
        assert getattr(mcsmooth, value).__module__ == beside_grad_total[gradient].__module__, gradient


EVALUATORS = (
    "objective.eval_L1", "objective.eval_L2", "objective._L2_blocks", "objective.eval_L3_L4",
    "objective.eval_Lparams", "objective.eval_total", "objective.eval_components",
    "objective._grad_L1", "objective._grad_L2", "objective._grad_L2_blocks",
    "objective.grad_total", "objective.fd_check", "optimizer.run_stage",
)


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_read_fixed_inputs_only_from_the_tables(name):
    # The data, its gaps and epsilon travel in KernelTables; no evaluator takes them apart.
    module, attr = name.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"mcsmooth.{module}"), attr)).parameters
    assert "tables" in params
    assert {"obs", "gaps", "epsilon"} & set(params) == set()


def test_test_dependencies_are_declared():
    # A test module whose import fails is dropped from a --continue-on-collection-errors
    # run without a failure, so every third-party module the tests import must be declared.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    tests = Path(__file__).parent
    local = {"mcsmooth", *(path.stem for path in tests.glob("*.py"))}
    imported = set()
    for path in sorted(tests.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest", "hypothesis", "scipy"} <= third_party
    assert sorted(third_party - declared) == []
