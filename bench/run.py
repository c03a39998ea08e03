"""Benchmark command.

    python3 bench/run.py --workload control_sweep --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository. It measures the package under
`src/` next to this directory, never an installed copy, and exits 2 when
that package is missing. The last line of stdout is the result object; the
line before it is the full report (machine record, reported-only metrics,
check failures, output digests).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    package = ROOT / "src" / "implicit_td"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import implicit_td

    if Path(implicit_td.__file__).resolve().parent != package.resolve():
        print(f"error: imported implicit_td from {implicit_td.__file__}", file=sys.stderr)
        return 2

    # diverging standard-rule cells overflow on purpose; the rows record it
    warnings.simplefilter("ignore", RuntimeWarning)
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    return measure.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
