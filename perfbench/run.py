"""Run one mcsmooth benchmark workload and print its metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_h2 --seed 1 --seconds 24 --trace 0

The program is imported from ./src, never from an installed copy. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Progress and reference figures go to standard error.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: no more threads than cores, and steadier timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

RUN_DIR = Path("perfbench") / ".runs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "mcsmooth" / "__init__.py").is_file():
        print("run.py: no ./src/mcsmooth; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mcsmooth.cli

    if Path(mcsmooth.cli.__file__).resolve().parent != (src / "mcsmooth").resolve():
        print(f"run.py: imported mcsmooth from {mcsmooth.cli.__file__}, not ./src", file=sys.stderr)
        return 2
    import_s = perf_counter() - START

    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, WORKLOADS[args.workload](), args.seed, args.seconds,
        bool(args.trace), import_s, RUN_DIR / args.workload,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
