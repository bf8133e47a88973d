"""Write the package's reference outputs, to compare two checkouts byte for byte.

Usage, in each checkout:

    python tests/reference_outputs.py DIR

then ``diff -r DIR_A DIR_B``. A change that keeps every output the same
leaves the diff empty.

Everything goes through ``mcsmooth.cli.run_command``, as a user would run it,
with the package imported from this checkout's ``src``. DIR receives the ICU
week (``week.csv``); its h1 subsample at the criterion-8 times, its h2
subsamples for seeds 11-18 and its h3 subsample (``<record>.csv``); and each
record's estimate (``<record>/``), h3 at iteration caps 20/20/40.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mcsmooth.cli import run_command  # noqa: E402

WEEK = ["--params", "icu", "--constant-nutrition", "80", "--t-end", "12080", "--dt", "0.1", "--discard", "2000"]
H1_TIMES = ",".join(str(2000 + 120 * k) for k in range(84))
H3_CAPS = ["--iters-stage1a", "20", "--iters-stage1b", "20", "--iters-stage2", "40"]

# Each record: its subsample arguments and its extra estimate arguments.
RECORDS = {
    "h1": (["--spec", "h1", "--times", H1_TIMES], []),
    **{f"h2_seed{seed}": (["--spec", "h2", "--seed", str(seed)], []) for seed in range(11, 19)},
    "h3": (["--spec", "h3"], H3_CAPS),
}


def write_references(out_dir, records=tuple(RECORDS)) -> None:
    """Simulate the week, then subsample and estimate each named record, into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    week = out / "week.csv"

    def run(argv):
        if run_command(argv) != 0:
            raise SystemExit(f"reference_outputs: failed: {' '.join(argv)}")

    run(["simulate", *WEEK, "--out", str(week)])
    for name in records:
        spec, caps = RECORDS[name]
        run(["subsample", "--in", str(week), *spec, "--out", str(out / f"{name}.csv")])
        run(["estimate", "--obs", str(out / f"{name}.csv"), "--out-dir", str(out / name), *caps])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_references(sys.argv[1])
