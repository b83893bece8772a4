"""Benchmark entry point for the mvli engine.

    python3 perfbench/run.py --workload search-200 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The engine is imported from
`src/` of that checkout; nothing needs installing.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  `--trace 1` reports the per-layer metrics instead of the
end-to-end ones and also writes the span tree to `perfbench/out/`.
"""

from __future__ import annotations

import os

# OpenBLAS otherwise starts one thread per core, and on a small shared machine
# the thread count then decides the timings.  This must precede the first
# numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("search-200", "train-200", "eval-1000")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "mvli" / "__init__.py"
    if not package.is_file():
        print(f"error: engine sources not found at {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
