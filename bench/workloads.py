"""Benchmark workloads: inputs made from a seed, one round of work, output checks.

A round runs every sweep, audit and fixed-point job of a workload once
through the public harness functions and writes the CSV files the CLI would
write. Rounds repeat within a run, so every round of a run must write the
same bytes. The fixed-point check (`td_eval` only) lasts about nine
seconds, so a `td_eval` run holds only two or three rounds.

The seed only moves `base_seed` (cell RNG streams and random-chain MRPs);
grids, budgets and chains stay fixed, so the work in a round barely depends
on the seed and run-to-run spread measures the machine rather than the
inputs. The fixed-point check always uses the first criterion-4 chain: its
cost depends on the chain, not on the seed.

The harness is called through module attributes (`harness.run_sweep`, not
a name imported from it) so that the traced run can rebind those functions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from implicit_td import envs, harness
from implicit_td.core import DiscountSpec
from implicit_td.harness import AUDIT_HEADER, SWEEP_HEADER, ExperimentConfig

WORKLOADS = ("control_sweep", "td_eval", "audit_cell")

CONTROL_ALGORITHMS = (
    "sarsa_standard",
    "sarsa_implicit",
    "sarsa_alpha_bound",
    "sarsa_implicit_alpha_bound",
)
# a small stable step size, then two where the standard rules diverge
CONTROL_ALPHAS = (2.0**-5, 1.0, 8.0)
TD_ALPHAS = (0.125, 0.5, 2.0, 8.0)
TD_CHAIN_STATES = (5, 50)
AUDIT_ALPHA = 0.5

FIXED_POINT_TOL = 0.02


@dataclass(frozen=True)
class FixedPointJob:
    n_states: int
    chain_seed: int
    disc: DiscountSpec
    steps: int


@dataclass(frozen=True)
class Inputs:
    sweeps: tuple[ExperimentConfig, ...] = ()
    audits: tuple[ExperimentConfig, ...] = ()  # one cell each: alpha0 AUDIT_ALPHA, seed index 0
    fixed_points: tuple[FixedPointJob, ...] = ()


def make_inputs(workload: str, seed: int, small: bool = False) -> Inputs:
    """The workload's jobs for `seed`. `small` gives a cut-down copy for warm-up
    and for covering layers a workload does not reach; it is never checked."""
    if workload == "control_sweep":
        steps, n_seeds = (150, 1) if small else (1000, 2)
        sweeps = tuple(
            ExperimentConfig(
                domain=domain,
                algorithm=algorithm,
                alpha0_grid=CONTROL_ALPHAS,
                total_steps=steps,
                n_seeds=n_seeds,
                eval_window=steps // 2,
                base_seed=seed,
            )
            for domain in ("puddle_world", "cart_pole")
            for algorithm in CONTROL_ALGORITHMS
        )
        return Inputs(sweeps=sweeps)
    if workload == "td_eval":
        steps, n_seeds = (1000, 1) if small else (5000, 2)
        sweeps = tuple(
            ExperimentConfig(
                domain="random_mrp",
                algorithm=algorithm,
                alpha0_grid=TD_ALPHAS,
                total_steps=steps,
                n_seeds=n_seeds,
                eval_window=steps // 5,
                base_seed=seed,
                mrp_states=n_states,
            )
            for n_states in TD_CHAIN_STATES
            for algorithm in ("td_standard", "td_implicit")
        )
        # criterion 4's first chain: 5 states, gamma 0.8, lambda 0.5, 1e6-step budget
        job = FixedPointJob(5, 0, DiscountSpec(gamma=0.8, lam=0.5), 20_000 if small else 10**6)
        return Inputs(sweeps=sweeps, fixed_points=(job,))
    if workload == "audit_cell":
        steps = 200 if small else 5000
        audits = tuple(
            ExperimentConfig(
                domain=domain,
                algorithm="sarsa_implicit",
                alpha0_grid=(AUDIT_ALPHA,),
                total_steps=steps,
                n_seeds=1,
                eval_window=steps // 2,
                base_seed=seed,
            )
            for domain in ("puddle_world", "cart_pole")
        )
        return Inputs(audits=audits)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def build(inputs: Inputs) -> None:
    """Construct the envs, Fourier bases and MRPs the jobs use.

    This is the set-up a user pays before the first cell runs.
    """
    for config in inputs.sweeps + inputs.audits:
        if config.domain == "random_mrp":
            envs.random_chain_mrp(config.mrp_states, config.base_seed, config.mrp_reward_scale)
        else:
            env = envs.PuddleWorld() if config.domain == "puddle_world" else envs.CartPole()
            envs.make_fourier_basis(config.fourier_order, env.obs_dim)
    for job in inputs.fixed_points:
        envs.random_chain_mrp(job.n_states, harness.mix64(job.chain_seed))


def _file_name(index: int, config: ExperimentConfig, kind: str) -> str:
    extra = f"_{config.mrp_states}" if config.domain == "random_mrp" else ""
    return f"{index:02d}_{config.domain}{extra}_{config.algorithm}.{kind}.csv"


@dataclass
class RoundOutput:
    steps: int = 0  # applied transitions: steps_completed of cells and checks, audited steps
    cells: int = 0
    wall_s: float = 0.0  # wall time of the jobs, calibration excluded
    calibrated_s: float = 0.0  # each job's wall time over the calibration factor around it
    calibrations: list[float] = field(default_factory=list)
    fixed_point_wall_s: float = 0.0  # the fixed-point checks' share of wall_s
    fixed_point_s: float = 0.0  # and of calibrated_s
    fixed_point_errors: list[float] = field(default_factory=list)
    audit_diverged: list[bool] = field(default_factory=list)


# seconds between calibrations during a job
SAMPLE_EVERY_S = 0.5


class _JobClock:
    """Times each job and, given `calibrate`, calls it before the first job,
    every SAMPLE_EVERY_S seconds during a job (from a SIGALRM timer) and
    after every job, all outside the timed part.

    The VM's speed can change within a round and within a long job, so each
    job is divided by the mean of the factors taken before, during and after
    it rather than the round by its ends.
    """

    def __init__(self, out: RoundOutput, calibrate: Callable[[], float] | None) -> None:
        self.out = out
        self.calibrate = calibrate
        self._paused_s = 0.0
        if calibrate is not None:
            out.calibrations.append(calibrate())

    def _sample(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        self.out.calibrations.append(self.calibrate())
        self._paused_s += time.perf_counter() - t0

    @contextmanager
    def job(self) -> Iterator[None]:
        if self.calibrate is None:
            t0 = time.perf_counter()
            yield
            self.out.wall_s += time.perf_counter() - t0
            return
        before = len(self.out.calibrations) - 1
        self._paused_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            # disarm first: a pending sample runs before the clock is read
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - self._paused_s
            signal.signal(signal.SIGALRM, previous)
        self.out.wall_s += wall
        self.out.calibrations.append(self.calibrate())
        self.out.calibrated_s += wall / statistics.fmean(self.out.calibrations[before:])


def run_round(
    inputs: Inputs, out_dir: Path, calibrate: Callable[[], float] | None = None
) -> RoundOutput:
    """Run every sweep, audit and fixed-point job once, writing each CSV under
    out_dir (the fixed-point check writes none).

    CSV files left by an earlier round are removed first, so `read_files`
    afterwards sees only what this round wrote. `calibrate` returns how slow
    the machine is right now (see `_JobClock`).
    """
    for stale in out_dir.glob("*.csv"):
        stale.unlink()
    out = RoundOutput()
    clock = _JobClock(out, calibrate)
    for i, config in enumerate(inputs.sweeps):
        name = _file_name(i, config, "sweep")
        with clock.job():
            rows = harness.run_sweep(config, parallelism=1, out_path=out_dir / name)
        out.steps += sum(r.steps_completed for r in rows)
        out.cells += len(rows)
    for i, config in enumerate(inputs.audits):
        name = _file_name(i, config, "audit")
        with clock.job():
            result, _ = harness.stability_audit_run(
                config, AUDIT_ALPHA, 0, sample_every=1, out_path=out_dir / name
            )
        out.steps += result.steps_completed
        out.cells += 1
        out.audit_diverged.append(result.diverged)
    for job in inputs.fixed_points:
        wall_s, calibrated_s = out.wall_s, out.calibrated_s
        with clock.job():
            report = harness.fixed_point_check(
                job.n_states, job.chain_seed, job.disc, job.steps, target_tol=FIXED_POINT_TOL
            )
        out.fixed_point_wall_s += out.wall_s - wall_s
        out.fixed_point_s += out.calibrated_s - calibrated_s
        # both learners' steps up to the tolerance
        out.steps += report.steps_standard + report.steps_implicit
        out.fixed_point_errors += [report.err_standard, report.err_implicit]
    return out


def read_files(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("*.csv"))}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


@dataclass
class CheckResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failures += other.failures


def _rows(data: bytes, header: str) -> list[dict[str, str]] | None:
    text = data.decode("utf-8", errors="replace")
    if text.split("\n", 1)[0] != header:
        return None
    return list(csv.DictReader(io.StringIO(text)))


def check_round(
    inputs: Inputs,
    out: RoundOutput,
    files: dict[str, bytes],
    expected: dict[str, str] | None,
    reference: dict[str, bytes] | None = None,
) -> CheckResult:
    """Check one round's outputs.

    Every cell row is one operation: it fails when its status is not ok or an
    implicit cell diverged. Each fixed-point error is one, failing above
    FIXED_POINT_TOL, and each file and digest comparison is one more.
    `expected` holds recorded sha256 digests for this seed (None when the
    seed was not recorded); `reference` holds the bytes of an earlier round
    of the same run, which every later round must repeat.
    """
    check = CheckResult()
    for i, config in enumerate(inputs.sweeps):
        name = _file_name(i, config, "sweep")
        rows = _rows(files.get(name, b""), SWEEP_HEADER)
        cells = len(config.alpha0_grid) * config.n_seeds
        check.expect(
            rows is not None and len(rows) == cells,
            f"{name}: header or row count differs from the {cells}-cell grid",
        )
        for row in rows or []:
            check.expect(row["status"] == "ok", f"{name}: status {row['status']!r}")
            if "implicit" in config.algorithm:
                check.expect(
                    row["diverged"] == "false",
                    f"{name}: implicit cell alpha0={row['alpha0']} seed={row['seed']} diverged",
                )
    for i, config in enumerate(inputs.audits):
        name = _file_name(i, config, "audit")
        rows = _rows(files.get(name, b""), AUDIT_HEADER)
        check.expect(bool(rows), f"{name}: missing header or no rows")
        bad = [r["step"] for r in rows or [] if not _beta_ok(r["beta"])]
        check.expect(not bad, f"{name}: beta outside (0, 1] at steps {bad[:5]}")
    for i, diverged in enumerate(out.audit_diverged):
        check.expect(not diverged, f"audit cell {i} ({inputs.audits[i].algorithm}) diverged")
    for err in out.fixed_point_errors:
        check.expect(err <= FIXED_POINT_TOL, f"fixed-point error {err!r} > {FIXED_POINT_TOL}")
    got = digests(files)
    first_round = None if reference is None else digests(reference)
    for label, want in (("recorded", expected), ("first-round", first_round)):
        if want is None:
            continue
        check.expect(
            got.keys() == want.keys(), f"{label} file set differs: {sorted(got)} vs {sorted(want)}"
        )
        for name in sorted(got.keys() & want.keys()):
            check.expect(got[name] == want[name], f"{name}: sha256 differs from {label} digest")
    return check


def _beta_ok(text: str | None) -> bool:
    try:
        beta = float(text)  # None when a row is short
    except (TypeError, ValueError):
        return False
    return 0.0 < beta <= 1.0
