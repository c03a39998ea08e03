"""The committed BENCH_*.json files agree with the runs they list.

Each file records, per workload and metric, every run of both sides and
their median. A median that is not the median of its runs, or a side that
lists other than one run per pair, would make a before/after claim unreadable.
"""

import json
import statistics
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def test_bench_files_are_present():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_each_median_is_the_median_of_one_run_per_pair(path):
    workloads = json.loads(path.read_text())["workloads"]
    checked = 0
    for workload, record in workloads.items():
        for metric, sides in record["metrics"].items():
            for side in ("parent", "change"):
                runs = sides[side]["runs"]
                where = f"{workload}.{metric}.{side}"
                assert len(runs) == record["pairs"], where
                assert sides[side]["median"] == statistics.median(runs), where
                checked += 1
    assert checked
