"""Every file format the package writes or reads: round trips, and the shared rules of each reader."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsmooth import (
    NutritionSchedule,
    ObservationSeries,
    SimulationResult,
    load_kicks,
    load_observations,
    write_observations,
)
from mcsmooth.optimizer import (
    read_states_csv,
    write_densities_csv,
    write_reconstruction_csv,
    write_states_csv,
    write_trace_csv,
)
from mcsmooth.timeseries import read_columns
from mcsmooth.ultradian import read_trace, write_trace
from conftest import read_objective_trace

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
TIMES = st.lists(FLOATS, min_size=2, max_size=30, unique=True).map(sorted).map(np.array)


def same(a, b):
    """Equal arrays, with -0.0 told apart from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def column(n, draw):
    return np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)))


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), times=TIMES)
    def test_observations(self, tmp_path_factory, data, times):
        path = tmp_path_factory.mktemp("csv") / "obs.csv"
        obs = ObservationSeries(times, column(times.size, data.draw))
        write_observations(obs, path)
        back = load_observations(path)
        assert same(back.times, obs.times) and same(back.values, obs.values)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), times=TIMES)
    def test_simulation_trace(self, tmp_path_factory, data, times):
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        states = np.stack([column(times.size, data.draw) for _ in range(6)], axis=1)
        result = SimulationResult(times, column(times.size, data.draw), states)
        write_trace(result, path)
        back = read_trace(path)
        assert same(back.times, result.times) and same(back.values, result.glucose)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), times=TIMES)
    def test_states(self, tmp_path_factory, data, times):
        path = tmp_path_factory.mktemp("csv") / "states.csv"
        x, z, b, a, omega = (column(times.size, data.draw) for _ in range(5))
        result = SimpleNamespace(
            obs=SimpleNamespace(times=times),
            state=SimpleNamespace(x=x, z=z, params=SimpleNamespace(b=b, a=a, omega=omega)),
        )
        write_states_csv(result, path)
        back = read_states_csv(path)
        for key, want in zip(("t", "x", "z", "b", "a", "omega"), (times, x, z, b, a, omega)):
            assert same(back[key], want), key

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 30))
    def test_reconstruction(self, tmp_path_factory, data, n):
        path = tmp_path_factory.mktemp("csv") / "recon.csv"
        t, value = column(n, data.draw), column(n, data.draw)
        dashed = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        write_reconstruction_csv(t, value, dashed, path)
        back_t, back_value, back_dashed = read_columns(path, 3, "reconstruction")
        assert same(back_t, t) and same(back_value, value)
        assert same(back_dashed, dashed.astype(float))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(0, 30))
    def test_densities(self, tmp_path_factory, data, n):
        path = tmp_path_factory.mktemp("csv") / "dens.csv"
        grid = column(n, data.draw)
        rho_x, rho_y = (np.abs(column(n, data.draw)) for _ in range(2))
        rho_x[: n // 2] = -0.0  # not negative, so a density may be -0.0
        write_densities_csv(grid, rho_x, rho_y, path)
        back_grid, back_x, back_y = read_columns(path, 3, "densities")
        assert same(back_grid, grid)
        assert same(back_x, rho_x) and same(back_y, rho_y)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=3))
    def test_objective_trace(self, tmp_path_factory, data, lengths):
        path = tmp_path_factory.mktemp("csv") / "trace.csv"
        traces = [
            SimpleNamespace(
                name=name,
                objective=column(k, data.draw).tolist(),
                components=[column(7, data.draw).tolist() for _ in range(k)],
            )
            for name, k in zip(("stage1a", "stage1b", "stage2"), lengths)
        ]
        write_trace_csv(traces, path)
        back = read_objective_trace(path)
        rows = [[L, *c] for tr in traces for L, c in zip(tr.objective, tr.components)]
        assert back["stage"].tolist() == [tr.name for tr in traces for _ in tr.objective]
        assert back["iter"].tolist() == [i for tr in traces for i in range(len(tr.objective))]
        assert same(back["values"], np.array(rows).reshape(-1, 8))


def _times_file(path):
    return read_columns(path, 1, "subsample")[0]


# The reconstruction and densities, which the package writes but never reads
# back, are read as the tests read them: numbers only, through read_columns.
def _reconstruction_file(path):
    return read_columns(path, 3, "reconstruction")


def _densities_file(path):
    return read_columns(path, 3, "densities")


# Each reader: its message prefix, its width, its k-th valid line, and how to
# get the parsed columns from its result. ``empty`` is the message of the
# reader's own schema check on an empty file, or None if it accepts one.
READERS = {
    "observations": dict(read=load_observations, op="load_observations", ncols=2,
                         line="{k}.0,100.5", columns=lambda r: [r.times, r.values],
                         empty="at least 2 rows"),
    "kicks": dict(read=load_kicks, op="load_kicks", ncols=2,
                  line="{k}.0,1.5", columns=lambda r: [r.times, r.intensities], empty=None),
    "nutrition": dict(read=NutritionSchedule.from_csv, op="load_nutrition", ncols=3,
                      line="{k}0.0,{k}5.0,80.0", columns=lambda r: [np.array(r.intervals)],
                      empty=None),
    "times_file": dict(read=_times_file, op="subsample", ncols=1, line="{k}.0",
                       columns=lambda r: [r], empty=None),
    "simulation_trace": dict(read=read_trace, op="read_trace", ncols=7,
                             line="{k}.0,100.0,1.0,2.0,3.0,4.0,5.0",
                             columns=lambda r: [r.times, r.values], empty="empty series"),
    "states": dict(read=read_states_csv, op="read_states", ncols=6, line="{k}.0,1,2,3,4,5",
                   columns=lambda r: list(r.values()), empty=None),
    "reconstruction": dict(read=_reconstruction_file, op="reconstruction", ncols=3,
                           line="{k}.0,100.0,1", columns=list, empty=None),
    "densities": dict(read=_densities_file, op="densities", ncols=3,
                      line="{k}.0,0.25,0.5", columns=list, empty=None),
    "objective_trace": dict(read=read_objective_trace, op="read_objective_trace", ncols=10,
                            line="stage2,{k},1,2,3,4,5,6,7,8",
                            columns=lambda r: list(r.values()), empty=None),
}


@pytest.fixture(params=sorted(READERS))
def reader(request):
    return SimpleNamespace(**READERS[request.param])


def write_lines(tmp_path, lines):
    path = tmp_path / "file.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def good(reader, k):
    return reader.line.format(k=k)


class TestReadingRules:
    def test_a_line_of_another_width_is_named(self, tmp_path, reader):
        lines = [good(reader, k) for k in range(4)]
        lines[2] += ",7"
        with pytest.raises(ValueError, match=(
            f"{reader.op}: line 3: expected {reader.ncols} columns, got {reader.ncols + 1}"
        )):
            reader.read(write_lines(tmp_path, lines))

    @pytest.mark.parametrize("comment", ["# a comment", "# a comment{fill}"])
    def test_comment_lines_are_rejected(self, tmp_path, reader, comment):
        # The second form has the right number of commas.
        comment = comment.format(fill=",note" * (reader.ncols - 1))
        lines = [good(reader, 0), comment, good(reader, 1)]
        with pytest.raises(ValueError, match=f"{reader.op}: line 2: "):
            reader.read(write_lines(tmp_path, lines))

    @pytest.mark.parametrize("field", ["abc", '"1.0"', " "])
    def test_a_field_that_does_not_parse_is_named(self, tmp_path, reader, field):
        # The second field: a simulation trace parses only its first two.
        lines = [good(reader, k).split(",") for k in range(4)]
        lines[1][min(1, reader.ncols - 1)] = field
        lines = [",".join(fields) for fields in lines]
        with pytest.raises(ValueError, match=f"{reader.op}: line 2: parse failure"):
            reader.read(write_lines(tmp_path, lines))

    def test_blank_lines_are_skipped(self, tmp_path, reader):
        lines = [good(reader, k) for k in range(4)]
        plain = reader.columns(reader.read(write_lines(tmp_path, lines)))
        spaced = ["", lines[0], "", "", lines[1], lines[2], "", lines[3], ""]
        back = reader.columns(reader.read(write_lines(tmp_path, spaced)))
        assert len(back) == len(plain)
        assert all(np.array_equal(a, b) for a, b in zip(back, plain))

    @pytest.mark.parametrize("text", ["", "\n\n\n"])
    def test_an_empty_file_gives_empty_columns_and_no_warning(self, tmp_path, reader, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if reader.empty is not None:
                with pytest.raises(ValueError, match=reader.empty):
                    reader.read(path)
            else:
                assert all(np.size(c) == 0 for c in reader.columns(reader.read(path)))

    def test_a_missing_file_is_named(self, tmp_path, reader):
        with pytest.raises(FileNotFoundError, match=f"{reader.op}: file not found"):
            reader.read(tmp_path / "missing.csv")

    def test_a_path_that_is_not_a_file_is_named(self, tmp_path, reader):
        with pytest.raises(OSError, match=f"{reader.op}: not a file: "):
            reader.read(tmp_path)

    # Line 2; line 3001, past the first block text mode decodes; an encoded surrogate
    # among \r\n line ends; a sequence cut off at the end of the file.
    @pytest.mark.parametrize("bad_line, ending, bad", [
        (2, "\n", b"\xff\n"), (3001, "\n", b"\xff\n"), (3, "\r\n", b"\xed\xa0\x80\r\n"), (4, "\n", b"\xc3"),
    ])
    def test_a_byte_that_is_not_utf8_is_named_by_its_line(self, tmp_path, reader, bad_line, ending, bad):
        text = "".join(good(reader, k) + ending for k in range(bad_line - 1)) + good(reader, bad_line)
        path = tmp_path / "file.csv"
        path.write_bytes(text.encode("utf-8") + bad)
        with pytest.raises(ValueError, match=f"^{reader.op}: line {bad_line}: not UTF-8 text$"):
            reader.read(path)


class TestReadColumns:
    def test_returns_the_requested_columns_in_order(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2,3\n4,5,6\n", encoding="utf-8")
        assert read_columns(path, 3, "op").tolist() == [[1, 4], [2, 5], [3, 6]]
        assert read_columns(path, 3, "op", usecols=(2, 0)).tolist() == [[3, 6], [1, 4]]

    def test_unused_columns_are_not_parsed(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2,x\n4,5,y\n", encoding="utf-8")
        assert read_columns(path, 3, "op", usecols=(0, 1)).tolist() == [[1, 4], [2, 5]]

    def test_a_whitespace_line_is_not_blank(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1,2\n  \n3,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="op: line 2: expected 2 columns, got 1"):
            read_columns(path, 2, "op")

    def test_the_line_number_counts_skipped_blank_lines(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("\n1,2\n\n\n3,x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="op: line 5: parse failure"):
            read_columns(path, 2, "op")
