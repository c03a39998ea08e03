"""Tests of the benchmark itself: span arithmetic, metric names, seeds, output checks."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402
from spans import Binding, Tracer, self_times, traced  # noqa: E402


def test_self_times_subtract_direct_children_only():
    #  0 [0, 100)
    #  ├─ 1 [10, 60)
    #  │   └─ 3 [20, 30)
    #  └─ 2 [70, 90)
    #  4 [200, 205)  second root
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0, 10, 70, 20, 200])
    end = np.array([100, 60, 90, 30, 205])
    none = np.zeros(5, dtype=np.int64)
    assert self_times(parent, start, end, none).tolist() == [30, 40, 20, 10, 5]
    # each child's wrapper time outside its span, then a cost per child
    outside = np.array([0, 4, 2, 1, 0])
    assert self_times(parent, start, end, outside).tolist() == [24, 39, 20, 10, 5]
    assert self_times(parent, start, end, outside, 1.5).tolist() == [21, 37.5, 20, 10, 5]


class _Owner:
    @staticmethod
    def leaf(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Owner.leaf(x) * 2


def test_traced_records_nesting_and_restores_bindings():
    leaf, outer = vars(_Owner)["leaf"], vars(_Owner)["outer"]
    tracer = Tracer()
    bindings = [
        Binding(_Owner, "outer", "outer"),
        Binding(_Owner, "leaf", "leaf", tag=lambda x: f"x{x}"),
    ]
    with traced(tracer, bindings):
        assert _Owner.outer(1) == 4
    assert vars(_Owner)["leaf"] is leaf and vars(_Owner)["outer"] is outer
    stats = tracer.stats()
    assert stats.calls("outer") == 1 and stats.calls("leaf.x1") == 1
    leaf_outside = tracer.outside[1]
    assert leaf_outside > 0
    assert stats.self_total_ns("outer") == (
        stats.durations_ns("outer")[0] - stats.durations_ns("leaf.x1")[0] - leaf_outside
    )


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "audit_cell",
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_generated_configs(workload):
    assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    assert workloads.make_inputs(workload, 0) != workloads.make_inputs(workload, 1)


def _small_round(workload, out_dir):
    inputs = workloads.make_inputs(workload, 0, small=True)
    out = workloads.run_round(inputs, out_dir)
    return inputs, out, workloads.read_files(out_dir)


def _flip(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1 :]


@pytest.mark.parametrize("workload", ["control_sweep", "audit_cell"])
def test_flipped_output_byte_is_a_failure(workload, tmp_path):
    inputs, out, files = _small_round(workload, tmp_path)
    expected = workloads.digests(files)
    clean = workloads.check_round(inputs, out, files, expected)
    assert clean.failures == [] and clean.attempted > 0
    name = sorted(files)[-1]
    flipped = dict(files, **{name: _flip(files[name], len(files[name]) // 2)})
    check = workloads.check_round(inputs, out, flipped, expected)
    assert check.attempted == clean.attempted
    assert any(name in f and "sha256" in f for f in check.failures)


def test_flipped_status_byte_fails_without_recorded_digests(tmp_path):
    inputs, out, files = _small_round("control_sweep", tmp_path)
    name = sorted(files)[0]
    data = files[name]
    broken = dict(files, **{name: _flip(data, data.rindex(b",ok\n") + 2)})
    check = workloads.check_round(inputs, out, broken, expected=None)
    assert len(check.failures) == 1 and "status" in check.failures[0]


def test_fixed_point_error_above_tolerance_is_a_failure():
    inputs = workloads.Inputs()
    out = workloads.RoundOutput(fixed_point_errors=[0.01, 0.03])
    check = workloads.check_round(inputs, out, {}, expected=None)
    assert check.attempted == 2 and len(check.failures) == 1


def test_each_job_is_divided_by_the_mean_factor_around_it(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLE_EVERY_S", 1e6)  # no samples during a job
    inputs = workloads.make_inputs("audit_cell", 0, small=True)  # two jobs
    factors = iter([1.0, 3.0, 1.0])
    out = workloads.run_round(inputs, tmp_path, calibrate=lambda: next(factors))
    assert out.calibrations == [1.0, 3.0, 1.0]
    assert out.calibrated_s == pytest.approx(out.wall_s / 2)


def test_a_long_job_is_sampled_and_the_samples_are_not_timed(monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLE_EVERY_S", 0.05)
    out = workloads.RoundOutput()
    clock = workloads._JobClock(out, calibrate=lambda: time.sleep(0.02) or 2.0)
    with clock.job():
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:  # busy, so the timer interrupts Python code
            pass
    assert len(out.calibrations) >= 5
    assert out.wall_s == pytest.approx(0.5 - 0.02 * (len(out.calibrations) - 2), abs=0.05)
    assert out.calibrated_s == pytest.approx(out.wall_s / 2)
