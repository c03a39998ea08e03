"""Record the sha256 of every CSV a workload writes, for seeds 0 to 9.

    python3 bench/record_digests.py

Runs one round per workload and seed, refuses to record a round that fails
its invariant checks, and rewrites digests.json. Run it only when a change
to the program's output bytes is intended.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402


SEEDS = range(10)


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    for workload in workloads.WORKLOADS:
        out_dir = measure.OUT_DIR / "record" / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in SEEDS:
            inputs = workloads.make_inputs(workload, seed)
            out = workloads.run_round(inputs, out_dir)
            files = workloads.read_files(out_dir)
            check = workloads.check_round(inputs, out, files, expected=None)
            if check.failures:
                print(f"{workload} seed {seed}: {check.failures}", file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = workloads.digests(files)
            print(f"{workload} seed {seed}: {len(files)} files, {check.attempted} checks ok")
    text = json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    measure.DIGESTS.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
