"""Benchmark entry point of ``BENCHMARK.json``.

``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Exit code 0 means every correctness check
passed.  For all workloads at once, a readable table and the trajectory
file, use ``python -m benchmarks.suite run``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    from benchmarks.suite import runner, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = runner.run_traced(args.workload, args.seed)
    else:
        result = runner.run_untraced(args.workload, args.seed, args.seconds)
    for error in result["errors"]:
        print(error, file=sys.stderr)
    line = runner.contract_line(result, runner.load_spec(), bool(args.trace))
    if line is not None:
        print(line)
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
