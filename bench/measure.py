"""Measure one workload: untraced for the end-to-end metrics, traced for the layers.

Untraced run: set-up is timed in fresh interpreters, then rounds repeat for
the requested seconds and every rate is the median over rounds. The bounded
rates are calibrated against fixed kernels timed between and during jobs,
which takes out most of the shared VM's speed drift; the raw rates go in the
report. Traced run: a few untraced rounds, the same again with every layer
function wrapped, then cut-down work of all three workloads for any layer
the workload itself never reaches.
"""

from __future__ import annotations

import json
import marshal
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
import workloads
from spans import Tracer, child_cost_ns, traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

# end-to-end metrics every workload reports; BENCHMARK.json bounds these
END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "cells_per_s": "1/s",
    "rss_peak_mb": "MB",
}
# printed in the report line, never in the bounded result: the raw rates
# spread too far between runs on a shared VM, fixed_point_s exists only on
# td_eval, and failed_frac is 0 on correct code
REPORTED = {
    "setup_s_raw": "s",
    "steps_per_s_raw": "1/s",
    "cells_per_s_raw": "1/s",
    "fixed_point_s": "s",
    "fixed_point_s_raw": "s",
    "failed_frac": "1",
    "calibration_factor": "1",
}
PER_LAYER = {
    **{name: unit for name, (unit, _) in layers.SPAN_METRICS.items()},
    "cli.import_s": "s",
    "trace_overhead_frac": "1",
}

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACED_MAX_ROUNDS = 3

# A generated module of small functions for the interpreter kernel to compile.
_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    c = a * {i} + b\n"
    f"    for j in range(b):\n"
    f"        c += j if j % {i % 5 + 2} else -j\n"
    f"    return [c, {{'k{i}': c, 'a': a}}, (a, b, {i}.5)]\n"
    for i in range(100)
)
_CALIBRATION_FEATURES = np.random.default_rng(12345).random((5, 5))


def _numeric_kernel() -> None:
    """A TD(lambda)-like loop: RNG draws, numpy calls on 5-vectors, Python floats."""
    path = np.random.default_rng(7).integers(0, 5, size=20_000)
    w = np.zeros(5)
    e = np.zeros(5)
    for i in range(4000):
        x = _CALIBRATION_FEATURES[path[i]]
        e = 0.4 * e + x
        d = 0.3 + 0.9 * float(x @ w) - float(e @ w)
        w += 1e-3 * d * e


def _interpreter_kernel() -> None:
    """Compile a module and round-trip its bytecode: branchy C inside CPython."""
    code = compile(_CALIBRATION_SOURCE, "<calibration>", "exec")
    for _ in range(3):
        marshal.loads(marshal.dumps(code))


# (kernel, its median seconds on the VM the benchmark was built on)
CALIBRATION_KERNELS = ((_numeric_kernel, 0.027), (_interpreter_kernel, 0.0075))


def calibrate() -> float:
    """How slow the machine is right now: 1.0 is the build VM's usual speed.

    The factor is the mean over the kernels of time taken over reference
    time. The kernels share no code with implicit_td, so a change to the
    program cannot move them. The VM's speed drifts by up to 1.7x within
    minutes; when it slows, a job's rate falls and this factor rises, so
    their product moves much less. One kernel does numeric work like a TD
    step, the other interpreter work like the Python around it; either alone
    tracked some workloads poorly.
    """
    factors = []
    for kernel, reference_s in CALIBRATION_KERNELS:
        t0 = time.perf_counter()
        kernel()
        factors.append((time.perf_counter() - t0) / reference_s)
    return statistics.fmean(factors)


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_lines": src_lines(),
    }


# A fresh interpreter that imports only the third-party modules implicit_td
# imports, and its median wall seconds on the VM the benchmark was built on.
# It shares no code with implicit_td, and its start-up slows with the VM's
# phases just as the set-up child's does; calibrate() tracks those poorly.
REFERENCE_CHILD = ("-c", "import numpy, scipy.sparse.csgraph")
REFERENCE_CHILD_S = 0.46


def _child(*args: str) -> tuple[float, str]:
    """Run a fresh interpreter; return its wall seconds and stdout."""
    t0 = time.perf_counter()
    child = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, check=True
    )
    return time.perf_counter() - t0, child.stdout


def time_setup(workload: str, seed: int, repeats: int, calibrated: bool = False):
    """Wall seconds of `repeats` fresh interpreters that import implicit_td and
    build the workload's inputs, and the import time each one reports.

    With `calibrated`, also how slow the machine is for start-up right now
    (the reference child's wall time over REFERENCE_CHILD_S), before the
    first set-up child and after each.
    """
    def factor() -> float:
        return _child(*REFERENCE_CHILD)[0] / REFERENCE_CHILD_S

    walls, imports, factors = [], [], [factor()] if calibrated else []
    for _ in range(repeats):
        wall, stdout = _child(str(BENCH_DIR / "setup_child.py"), workload, str(seed))
        walls.append(wall)
        imports.append(json.loads(stdout.strip().splitlines()[-1])["import_s"])
        if calibrated:
            factors.append(factor())
    return walls, imports, factors


def _around(calibrations: list[float]) -> list[float]:
    """The mean of the calibrations on either side of each timed piece."""
    return [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


@dataclass
class Rounds:
    outputs: list[workloads.RoundOutput] = field(default_factory=list)
    check: workloads.CheckResult = field(default_factory=workloads.CheckResult)
    first_files: dict[str, bytes] | None = None

    def first_errors(self) -> list[float] | None:
        return self.outputs[0].fixed_point_errors if self.outputs else None

    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outputs)


def run_rounds(
    inputs: workloads.Inputs,
    out_dir: Path,
    expected: dict[str, str] | None,
    seconds: float,
    max_rounds: int | None = None,
    reference: Rounds | None = None,
    calibrated: bool = False,
) -> Rounds:
    """Repeat checked rounds until about `seconds` have passed (at least one).

    Another round starts only while the elapsed time plus half the last
    round stays under `seconds`, so a run overshoots by half a round at most
    on average. Every round must write the bytes, and reach the fixed-point
    errors, of the first round of `reference`, or of its own run when no
    reference is given. With `calibrated`, every job of a round is
    calibrated (see `workloads.run_round`).
    """
    rounds = Rounds()
    first = reference or rounds
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workloads.run_round(inputs, out_dir, calibrate if calibrated else None)
        wall = time.perf_counter() - t0
        files = workloads.read_files(out_dir)
        rounds.check.merge(workloads.check_round(inputs, out, files, expected, first.first_files))
        if inputs.fixed_points and first.outputs:
            rounds.check.expect(
                out.fixed_point_errors == first.first_errors(),
                f"fixed-point errors {out.fixed_point_errors} differ from {first.first_errors()}",
            )
        if rounds.first_files is None:
            rounds.first_files = files
        rounds.outputs.append(out)
        if max_rounds is not None and len(rounds.outputs) >= max_rounds:
            break
        if time.perf_counter() - started + wall / 2 >= seconds:
            break
    return rounds


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    for stale in path.iterdir():
        if stale.is_file():
            stale.unlink()
    return path


def _warm_up(workload: str, seed: int, out_dir: Path) -> None:
    workloads.run_round(workloads.make_inputs(workload, seed, small=True), _fresh_dir(out_dir))


def measure_untraced(workload: str, seed: int, seconds: float):
    """End-to-end metrics; returns (metrics, reported-only metrics, rounds).

    `steps_per_s` counts the whole round, fixed-point check included;
    `cells_per_s` counts the sweep and audit jobs only.
    """
    setup_walls, _, setup_cal = time_setup(workload, seed, SETUP_REPEATS, calibrated=True)
    out_dir = _fresh_dir(OUT_DIR / workload)
    inputs = workloads.make_inputs(workload, seed)
    _warm_up(workload, seed, OUT_DIR / "warm_up")
    expected = expected_digests(workload, seed)
    rounds = run_rounds(inputs, out_dir, expected, seconds, calibrated=True)
    outs = rounds.outputs
    metrics = {
        "setup_s": statistics.median(w / f for w, f in zip(setup_walls, _around(setup_cal))),
        "steps_per_s": statistics.median(o.steps / o.calibrated_s for o in outs),
        "cells_per_s": statistics.median(
            o.cells / (o.calibrated_s - o.fixed_point_s) for o in outs
        ),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    reported = {
        "setup_s_raw": statistics.median(setup_walls),
        "steps_per_s_raw": statistics.median(o.steps / o.wall_s for o in outs),
        "cells_per_s_raw": statistics.median(
            o.cells / (o.wall_s - o.fixed_point_wall_s) for o in outs
        ),
        "failed_frac": len(rounds.check.failures) / rounds.check.attempted,
        "calibration_factor": statistics.median(f for o in outs for f in o.calibrations),
    }
    if inputs.fixed_points:
        reported["fixed_point_s"] = statistics.median(o.fixed_point_s for o in outs)
        reported["fixed_point_s_raw"] = statistics.median(o.fixed_point_wall_s for o in outs)
    return metrics, reported, rounds


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics; returns (metrics, covered names, check, untraced rounds,
    the per-child cost taken out of self times)."""
    _, import_times, _ = time_setup(workload, seed, IMPORT_REPEATS)
    out_dir = _fresh_dir(OUT_DIR / workload)
    inputs = workloads.make_inputs(workload, seed)
    expected = expected_digests(workload, seed)
    _warm_up(workload, seed, OUT_DIR / "warm_up")
    plain = run_rounds(inputs, out_dir, expected, seconds / 3, max_rounds=TRACED_MAX_ROUNDS)
    n = len(plain.outputs)
    main = Tracer()
    with traced(main, layers.bindings()):
        spanned = run_rounds(inputs, out_dir, expected, float("inf"), n, reference=plain)
    cover = Tracer()
    with traced(cover, layers.bindings()):
        for name in workloads.WORKLOADS:
            cover_inputs = workloads.make_inputs(name, 0, small=True)
            workloads.run_round(cover_inputs, _fresh_dir(OUT_DIR / "cover" / name))
    child_cost = child_cost_ns()
    values, covered = layers.span_metrics(main.stats(child_cost), n, cover.stats(child_cost), 1)
    values["cli.import_s"] = statistics.median(import_times)
    values["trace_overhead_frac"] = spanned.wall_s() / plain.wall_s()
    check = workloads.CheckResult()
    check.merge(plain.check)
    check.merge(spanned.check)
    main.write(out_dir / "spans.npz")
    cover.write(out_dir / "spans_cover.npz")
    return values, covered, check, plain, child_cost


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    record = machine_record(seed)
    if trace:
        values, covered, check, plain, child_cost = measure_traced(workload, seed, seconds)
        metrics = _with_units(values, PER_LAYER)
        first_files = plain.first_files
        report = {
            "covered_by_cut_down_rounds": covered,
            "child_cost_ns": child_cost,
            "round_walls_s": [o.wall_s for o in plain.outputs],
        }
    else:
        values, reported, rounds = measure_untraced(workload, seed, seconds)
        metrics = _with_units(values, END_TO_END)
        check = rounds.check
        first_files = rounds.first_files
        report = {
            "reported": _with_units(reported, REPORTED),
            "round_walls_s": [o.wall_s for o in rounds.outputs],
        }
    failed = len(check.failures)
    report.update(
        workload=workload,
        trace=int(trace),
        machine=record,
        metrics=metrics,
        attempted=check.attempted,
        failed=failed,
        failures=check.failures[:20],
        digests=workloads.digests(first_files or {}),
    )
    (OUT_DIR / workload / f"result_trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": check.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0
