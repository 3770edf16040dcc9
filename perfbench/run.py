"""Benchmark entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 20 --trace 0

Workloads: toy_train, r50_eval, toy_infer. With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from
a traced run and writes the spans and a per-layer-path table under
``.bench_out/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The BLAS thread count is fixed here, before numpy is first imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("toy_train", "r50_eval", "toy_infer")
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "splatnet" / "__init__.py").is_file():
        print(f"error: no splatnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import runner

    record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        ROOT, threads)
    for line in runner.summary_lines(record):
        print(line)
    print(runner.result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
