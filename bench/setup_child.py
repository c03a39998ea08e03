"""Set-up as a fresh interpreter pays it: import implicit_td, build a workload's inputs.

    python3 bench/setup_child.py <workload> <seed>

Prints one JSON line with the import time; the parent times the whole process.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(workload: str, seed: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import implicit_td.cli  # noqa: F401

    import_s = time.perf_counter() - STARTED
    import workloads

    workloads.build(workloads.make_inputs(workload, seed))
    print(json.dumps({"import_s": import_s, "setup_s": time.perf_counter() - STARTED}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
