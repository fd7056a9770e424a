"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfledger/run.py --workload kv-waterfall --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a separate traced pass (and writes its spans under
``perfledger/out/``).  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2
without a result when the checkout has no simulator sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    # One thread everywhere: the loop is closed and single-threaded, and
    # BLAS/OpenMP pools would make host time depend on the core count.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import loop

    if args.workload not in loop.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"available: {', '.join(loop.WORKLOADS)}"
        )
    span_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
    # HiGHS prints its own notes to file descriptor 1.  Point it at
    # stderr while the benchmark runs, so the result stays the last line.
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    result, lines = loop.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        span_path=span_path,
    )
    with os.fdopen(result_fd, "w") as out:
        out.writelines(line + "\n" for line in lines)
        out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
