"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-M --seed 0 --seconds 30 --trace 0

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the details: the
environment, sample counts, the failed ratio and the caches cleared.
With ``--trace 1`` the metrics are per-layer self times and call counts.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import SRC, WORKLOADS, run_workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "persposet" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'persposet'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
