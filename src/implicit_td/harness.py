"""Experiment harness: config parsing, seeded sweeps, audits, CSV emission.

Determinism contract: every output row is a pure function of the config
values and the base seed. Cell seeds come from a splitmix64 chain over
(base seed, alpha0 bits, seed index), so results do not depend on execution
order or parallelism; rows are emitted sorted by (alpha0, seed index).

CSV dialect: comma separated, header row, LF line endings, floats via repr
(shortest round-trip), booleans as true/false. No field ever contains a
comma, so there is no quoting. Each row dataclass formats through one '%'
template built from its field types (see _csv_schema).
"""

from __future__ import annotations

import functools
import math
import os
import struct
import sys
import traceback
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, get_type_hints

import numpy as np

from .control import StepHook, sarsa_episode
from .core import DiscountSpec, Transition
from .core import update_trace  # not called here; kept for bench/layers.py, which rebinds it
from .envs import (
    CartPole,
    FiniteMrp,
    PuddleWorld,
    fourier_features,
    make_fourier_basis,
    random_chain_mrp,
    sample_state_path,
)
from .learners import (
    DIVERGENCE_THRESHOLD,
    abs_max,
    fold_max_abs,
    implicit_step,
    make_learner,
    standard_step,
    td_fixed_point_oracle,
    td_step_implicit,  # not called here; kept for bench/layers.py, which rebinds it
    td_step_standard,  # not called here; kept for bench/layers.py, which rebinds it
)
from .stability import StabilityReport, TransitionGeometry, audit_step
from .stepsize import StepSizeSchedule, make_schedule, next_alpha

DOMAINS = ("puddle_world", "cart_pole", "random_mrp")
ALGORITHMS = (
    "td_standard",
    "td_implicit",
    "sarsa_standard",
    "sarsa_implicit",
    "sarsa_alpha_bound",
    "sarsa_implicit_alpha_bound",
)
DEFAULT_ALPHA0_GRID = tuple(2.0**i for i in range(-8, 4))


class ConfigError(ValueError):
    """Invalid configuration file, key, or value (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# Seed derivation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer; the only hash used for seed derivation."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def cell_seed(base_seed: int, alpha0: float, seed_idx: int) -> int:
    h = mix64(base_seed)
    h = mix64(h ^ float_bits(alpha0))
    return mix64(h ^ seed_idx)


def episode_seed(cell: int, episode_idx: int) -> int:
    return mix64(cell ^ (((episode_idx + 1) * _GOLDEN) & _MASK64))


def _check_seed(name: str, value: int) -> None:
    """mix64 masks to 64 bits, so a seed outside [0, 2**64) would alias one inside."""
    if not 0 <= value <= _MASK64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {value}")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    domain: str
    algorithm: str
    alpha0_grid: tuple[float, ...] = DEFAULT_ALPHA0_GRID
    lam: float = 0.5
    gamma: float = 0.999
    fourier_order: int = 3
    total_steps: int = 40_000
    n_seeds: int = 5
    eval_window: int = 10_000
    base_seed: int = 0
    epsilon: float = 0.1
    mrp_states: int = 5
    mrp_reward_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}, expected one of {DOMAINS}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}"
            )
        td = self.algorithm.startswith("td_")
        if td and self.domain != "random_mrp":
            raise ConfigError("td_* algorithms evaluate a fixed policy; use domain random_mrp")
        if not td and self.domain == "random_mrp":
            raise ConfigError("sarsa_* algorithms need a control domain, not random_mrp")
        # an empty grid is legal and yields a header-only sweep
        if any(not 0.0 < a < math.inf for a in self.alpha0_grid):
            raise ConfigError("alpha0_grid values must be positive and finite")
        if len(set(self.alpha0_grid)) < len(self.alpha0_grid):
            raise ConfigError("alpha0_grid values must be distinct")
        if self.n_seeds < 1:
            raise ConfigError("n_seeds must be >= 1")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if not 1 <= self.eval_window <= self.total_steps:
            raise ConfigError("eval_window must lie in [1, total_steps]")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in [0, 1]")
        if self.fourier_order < 0:
            raise ConfigError("fourier_order must be >= 0")
        if self.mrp_states < 2:
            raise ConfigError("mrp_states must be >= 2")
        _check_seed("base_seed", self.base_seed)
        # negative scales are legal: they only mirror the reward range. The
        # reward range 2|s| must be finite, and so must the window mean's
        # partial sums, each at most |s| * eval_window: below half the
        # float64 maximum. A NaN or infinite scale fails here too
        try:
            window_bound = 2.0 * abs(self.mrp_reward_scale) * self.eval_window
        except OverflowError:  # an eval_window past the float64 range
            window_bound = math.inf
        if not math.isfinite(window_bound):
            raise ConfigError(
                "mrp_reward_scale must be finite, and so must 2 * |it| * eval_window"
            )

    @property
    def disc(self) -> DiscountSpec:
        return DiscountSpec(gamma=self.gamma, lam=self.lam)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise ConfigError(f"bad alpha0_grid entry: {err}") from None


# config-file key -> (field name, parser), one per ExperimentConfig field in
# field order; the field lam is written `lambda` in config files
_FIELD_PARSERS: dict[object, Callable[[str], object]] = {
    str: str, int: int, float: float, tuple[float, ...]: _parse_grid,
}
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    ("lambda" if name == "lam" else name): (name, _FIELD_PARSERS[kind])
    for name, kind in get_type_hints(ExperimentConfig).items()
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value format ('#' comments, blank lines allowed)."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, parse = _CONFIG_KEYS[key]
        if field_name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field_name] = parse(val)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    missing = {"domain", "algorithm"} - values.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    return ExperimentConfig(**values)  # type: ignore[arg-type]


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path} is not valid UTF-8: {err}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True, slots=True)
class SweepResult:
    domain: str
    algorithm: str
    alpha0: float
    seed: int  # seed index within the sweep, not the derived u64
    final_avg_reward: float
    diverged: bool
    max_weight_norm: float
    steps_completed: int
    status: str


def _sweep_row(
    config: ExperimentConfig, alpha0: float, seed_idx: int, final_avg: float,
    max_abs: float, steps: int, status: str = "ok",
) -> SweepResult:
    """The sweep.csv row of a cell whose run left the max-abs record max_abs
    (see learners.fold_max_abs); the record decides diverged."""
    return SweepResult(
        config.domain, config.algorithm, alpha0, seed_idx, final_avg,
        max_abs > DIVERGENCE_THRESHOLD, max_abs, steps, status,
    )


# '%' conversion of each CSV field type; a bool goes in as the text true/false
_CSV_CONVERSIONS = {float: "%r", bool: "%s", int: "%s", str: "%s"}


def _csv_schema(row_type: type) -> tuple[str, Callable[[object], str]]:
    """The CSV header of a row dataclass and a formatter of its rows.

    A row formats through one '%' template in field order: float fields as
    %r (repr, shortest round-trip) once all of them are checked finite,
    bool fields as true/false, int and str fields as %s.
    """
    hints = get_type_hints(row_type)
    names = [f.name for f in fields(row_type)]
    kinds = [hints[name] for name in names]
    template = ",".join(_CSV_CONVERSIONS[kind] for kind in kinds)
    values = attrgetter(*names)
    # both row types have several float fields, so this returns a tuple
    pick_floats = itemgetter(*[i for i, kind in enumerate(kinds) if kind is float])
    bools = [i for i, kind in enumerate(kinds) if kind is bool]

    def format_row(row: object) -> str:
        vals = values(row)
        checked = pick_floats(vals)
        # a finite sum has only finite terms; an infinite or NaN one may
        # also come from finite values whose sum overflows, so only then
        # are the values tested one by one
        if not math.isfinite(sum(checked)) and not all(map(math.isfinite, checked)):
            bad = next(v for v in checked if not math.isfinite(v))
            raise ValueError(f"refusing to write non-finite CSV value {bad}")
        if bools:
            vals = list(vals)
            for i in bools:
                vals[i] = "true" if vals[i] else "false"
            vals = tuple(vals)
        return template % vals

    return ",".join(names), format_row


SWEEP_HEADER, format_sweep_row = _csv_schema(SweepResult)
_REPORT_HEADER, _format_report = _csv_schema(StabilityReport)
# an audit.csv row is a (step, StabilityReport) pair
AUDIT_HEADER = "step," + _REPORT_HEADER


def _format_audit_row(row: tuple[int, StabilityReport]) -> str:
    step, report = row
    return f"{step},{_format_report(report)}"


@dataclass(frozen=True, slots=True)
class TdEvalResult:
    weights: np.ndarray
    steps_completed: int
    max_weight_abs: float  # the run's max-abs record (see learners.fold_max_abs)
    mean_reward_last_window: float


@dataclass(frozen=True, slots=True)
class FixedPointReport:
    w_star: np.ndarray
    err_standard: float
    err_implicit: float
    steps_standard: int
    steps_implicit: int


# ---------------------------------------------------------------------------
# MRP evaluation driver

# steps between divergence / early-exit checks of a TD evaluation
CHECK_EVERY = 1000


def run_td_evaluation(
    mrp: FiniteMrp,
    disc: DiscountSpec,
    schedule: StepSizeSchedule,
    total_steps: int,
    seed: int,
    implicit: bool,
    eval_window: int,
    target: tuple[np.ndarray, float] | None = None,
) -> TdEvalResult:
    """Evaluate the MRP's fixed policy for total_steps transitions.

    This is the one-row case of the lockstep driver _evaluate_rows, which
    td_* sweeps run on many rows at once; one row takes 1-D arrays and
    Python floats. The state path comes from default_rng(seed) and is
    sampled block-ahead: sample_state_path draws the start state, then each
    CHECK_EVERY-step block continues the path from its last state just
    before the block runs, so a run that stops early samples no state past
    its last check. The states equal those of one presampled path of
    total_steps + 1.

    mean_reward_last_window is the mean reward of the last eval_window
    steps completed (0.0 after none). The run keeps only the blocks that
    window can still read, so it holds at most eval_window + CHECK_EVERY + 1
    states whatever total_steps is. eval_window below 1 and total_steps
    below 0 raise ValueError.

    The schedule is constant or polynomial: alpha_bound belongs to SARSA
    and raises ValueError here. Every step takes a constant schedule's
    alpha0, or its alpha from next_alpha, and applies the learner's kernel
    (implicit_step or standard_step) to plain arrays.

    Divergence and the optional early-exit target, a (weights, tolerance)
    pair, are checked every CHECK_EVERY steps and at the last step; each
    check folds the weights' max-abs into max_weight_abs by
    learners.fold_max_abs (NONFINITE_MAX_ABS once they went non-finite). The
    run stops at the first check that trips: divergence, the last step, or
    a max-abs distance to the target weights within the tolerance. So
    steps_completed is a multiple of CHECK_EVERY or total_steps.
    """
    (result,) = _evaluate_rows(
        mrp, disc, [schedule], total_steps, [seed], implicit, eval_window, target
    )
    return result


@dataclass(slots=True)
class _PathRow:
    """One row of a lockstep TD evaluation: its path generator, the trailing
    blocks of states its reward window can still read, the max-abs record of
    its checks, and its result."""

    rng: np.random.Generator
    visited: list[np.ndarray]
    max_abs: float = 0.0
    result: TdEvalResult | None = None


def _evaluate_rows(
    mrp: FiniteMrp,
    disc: DiscountSpec,
    schedules: list[StepSizeSchedule],
    total_steps: int,
    seeds: list[int],
    implicit: bool,
    eval_window: int,
    target: tuple[np.ndarray, float] | None = None,
    on_step: StepHook | None = None,
) -> list[TdEvalResult]:
    """The TD-evaluation loop over B = len(seeds) rows in lockstep.

    Row i follows its own path from default_rng(seeds[i]) with step sizes
    from schedules[i], exactly as run_td_evaluation documents for one row.
    One row steps 1-D weights with Python-float rewards and alphas. B > 1
    rows step a (B, k) stack with (B, 1) reward and alpha columns through
    the same kernel, which gives every row the bits of its own one-row run.
    The schedules are constant, or there is one polynomial row; anything
    else (alpha_bound, which belongs to SARSA, or a polynomial stack)
    raises ValueError. When on_step is set, it is called after each step
    with (Transition, alpha, trace used); the Transition is built only for
    the hook, which observes and never changes the result. A stack takes no
    hook. Each step gathers the rows' next features once and reuses them as
    the following step's current features. At a check, a row that trips
    leaves the stack and draws no further block.

    Before drawing a block, each row drops the blocks that no result at the
    block's end or later can read: that result's window starts at or after
    the block's end minus the window. A row's memory is thus bounded by its
    window, not by the steps it runs, and the window mean takes the same
    rewards in the same order as one mean over the whole path would.
    """
    if eval_window < 1:
        raise ValueError(f"eval_window must be >= 1, got {eval_window}")
    if total_steps < 0:
        raise ValueError(f"total_steps must be >= 0, got {total_steps}")
    single = len(seeds) == 1
    schedule = schedules[0]
    polynomial = single and schedule.kind == "polynomial"
    if not polynomial and any(s.kind != "constant" for s in schedules):
        raise ValueError("TD evaluation needs constant schedules, or one polynomial row")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = [_PathRow(rng, [sample_state_path(mrp, 1, rng)]) for rng in rngs]
    starts = [int(row.visited[0][0]) for row in rows]
    if single:
        alpha = schedule.alpha0
        s = starts[0]
        # list lookups of row views and floats: faster than indexing the arrays
        phi_of = list(mrp.features).__getitem__
        reward_of = mrp.r.tolist().__getitem__
    else:
        alpha = np.array([[sched.alpha0] for sched in schedules])
        s = np.array(starts)
        # take() gathers rows faster than fancy indexing does
        features, reward_col = mrp.features, mrp.r[:, None]
        phi_of = lambda states: features.take(states, 0)
        reward_of = lambda states: reward_col.take(states, 0)
    phi2 = phi_of(s)
    w = np.zeros_like(phi2)
    e = np.zeros_like(phi2)
    step = implicit_step if implicit else standard_step
    gamma = disc.gamma
    decay = disc.trace_decay
    # the trace update's operand as a read-only 0-d array, made once: an
    # array times it skips the conversion a Python float costs per call. The
    # kernels keep the float: a 0-d operand would make their scalars numpy's
    decay_0d = np.array(decay)
    decay_0d.flags.writeable = False
    live = rows
    steps_done = 0
    # a diverging run keeps stepping on overflowed weights until the next
    # check; those steps' overflow is expected, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            n = min(CHECK_EVERY, total_steps - steps_done)
            # the fewest trailing blocks (all full but the one-state start)
            # that hold the last window + 1 - n states drawn so far
            held = max(0, math.ceil((eval_window + 1 - n) / CHECK_EVERY))
            for row in live:
                start = int(row.visited[-1][-1])
                del row.visited[: max(0, len(row.visited) - held)]
                row.visited.append(sample_state_path(mrp, n, row.rng, start=start))
            blocks = [row.visited[-1] for row in live]
            path = blocks[0].tolist() if single else np.stack(blocks, axis=1)
            for t, s_next in enumerate(path, steps_done):
                phi = phi2
                phi2 = phi_of(s_next)
                reward = reward_of(s)
                s = s_next
                if polynomial:
                    # a polynomial alpha reads only the step count
                    alpha = next_alpha(schedule, t, e, phi, phi2, gamma)
                e_prev = e
                e = e_prev * decay_0d
                e += phi
                w = step(w, e_prev, e, phi, phi2, reward, alpha, gamma, decay, False)
                if on_step is not None:
                    on_step(Transition(phi_t=phi, reward=reward, phi_next=phi2), alpha, e)
            steps_done += n
            keep = []
            for i, (row, weights) in enumerate(zip(live, np.atleast_2d(w))):
                # abs_max keeps NaN and +-inf, so a non-finite weight folds in as such
                row.max_abs = fold_max_abs(row.max_abs, abs_max(weights))
                if (
                    row.max_abs > DIVERGENCE_THRESHOLD
                    or steps_done == total_steps
                    or (target is not None and abs_max(weights - target[0]) <= target[1])
                ):
                    row.result = _row_result(mrp, row, weights, steps_done, eval_window)
                else:
                    keep.append(i)
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                if live:  # only a stack can lose some rows and keep others
                    w, e, phi2, s, alpha = w[keep], e[keep], phi2[keep], s[keep], alpha[keep]
    return [row.result for row in rows]


def _row_result(
    mrp: FiniteMrp, row: _PathRow, weights: np.ndarray, steps_done: int, window: int
) -> TdEvalResult:
    # the rewards of the n states before the last, whose successor was never drawn
    n = min(window, steps_done)
    rewards = mrp.r[np.concatenate(row.visited)[-1 - n : -1]]
    return TdEvalResult(
        weights=weights,
        steps_completed=steps_done,
        max_weight_abs=row.max_abs,
        mean_reward_last_window=float(rewards.mean()) if n else 0.0,
    )


# ---------------------------------------------------------------------------
# Cells and sweeps


# the environment class of each sarsa_* domain
_ENVS = {"puddle_world": PuddleWorld, "cart_pole": CartPole}


def _algorithm_parts(algorithm: str) -> tuple[bool, str]:
    """Map an algorithm name to (implicit step rule?, schedule kind)."""
    kind = "alpha_bound" if algorithm.endswith("alpha_bound") else "constant"
    return "implicit" in algorithm, kind


def _shared_mrp(config: ExperimentConfig) -> FiniteMrp:
    # one MRP per sweep (derived from the base seed), shared by all cells
    return random_chain_mrp(
        config.mrp_states,
        mix64(config.base_seed ^ 0x6D72705F736565),
        config.mrp_reward_scale,
    )


def run_cell(
    config: ExperimentConfig,
    alpha0: float,
    seed_idx: int,
    on_step: StepHook | None = None,
) -> SweepResult:
    """Run one (alpha0, seed index) cell to completion or divergence. An
    alpha0 not positive and finite, or a seed_idx outside [0, 2**64), is a ConfigError."""
    if not 0.0 < alpha0 < math.inf:
        raise ConfigError(f"alpha0 must be positive and finite, got {alpha0}")
    _check_seed("seed index", seed_idx)
    if config.algorithm.startswith("td_"):
        return _td_rows(config, [(alpha0, seed_idx)], on_step)[0]

    seed = cell_seed(config.base_seed, alpha0, seed_idx)
    implicit, sched_kind = _algorithm_parts(config.algorithm)
    env = _ENVS[config.domain]()
    basis = make_fourier_basis(config.fourier_order, env.obs_dim)
    learner = make_learner(basis.k * env.n_actions, config.disc)
    schedule = make_schedule(sched_kind, alpha0)
    featurize = functools.partial(fourier_features, basis)  # no lambda frame per step
    steps_done = 0
    episode_idx = 0
    finished: list[tuple[int, float]] = []  # (cumulative step at end, return)
    partial_return: float | None = None
    # a diverging cell steps on until its weights pass the threshold or go
    # non-finite; that overflow is expected, not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while steps_done < config.total_steps:
            budget = config.total_steps - steps_done
            stats = sarsa_episode(
                learner, schedule, env, featurize, config.epsilon, implicit,
                episode_seed(seed, episode_idx), max_steps=budget, on_step=on_step,
            )
            steps_done += stats.steps
            episode_idx += 1
            if learner.diverged:
                break
            if stats.terminated:
                finished.append((steps_done, stats.total_return))
            else:
                partial_return = stats.total_return  # budget cut the episode
    window_start = steps_done - config.eval_window
    in_window = [ret for end, ret in finished if end > window_start]
    if in_window:
        final_avg = sum(in_window) / len(in_window)
    elif finished:
        final_avg = sum(ret for _, ret in finished) / len(finished)
    elif partial_return is not None:
        final_avg = partial_return
    else:
        final_avg = 0.0
    return _sweep_row(config, alpha0, seed_idx, final_avg, learner.max_abs, steps_done)


def _td_rows(
    config: ExperimentConfig, cells: list[tuple[float, int]], on_step: StepHook | None = None
) -> list[SweepResult]:
    """Rows of td_* (alpha0, seed index) cells, run in lockstep through
    _evaluate_rows on the sweep's shared MRP; one cell is run_cell's row."""
    implicit, sched_kind = _algorithm_parts(config.algorithm)
    results = _evaluate_rows(
        _shared_mrp(config),
        config.disc,
        [make_schedule(sched_kind, alpha0) for alpha0, _ in cells],
        config.total_steps,
        [cell_seed(config.base_seed, alpha0, idx) for alpha0, idx in cells],
        implicit=implicit,
        eval_window=config.eval_window,
        on_step=on_step,
    )
    return [
        _sweep_row(
            config, alpha0, idx, result.mean_reward_last_window,
            result.max_weight_abs, result.steps_completed,
        )
        for (alpha0, idx), result in zip(cells, results)
    ]


def _cell_worker(config: ExperimentConfig, alpha0: float, seed_idx: int) -> SweepResult:
    try:
        return run_cell(config, alpha0, seed_idx)
    except Exception as err:  # record in-row, keep the sweep going
        # the row keeps only the type; the cause goes to stderr
        print(
            f"cell alpha0={alpha0!r} seed={seed_idx} failed: "
            f"{type(err).__name__}: {err}",
            file=sys.stderr,
        )
        traceback.print_exc(file=sys.stderr)
        return _sweep_row(config, alpha0, seed_idx, 0.0, 0.0, 0, f"error:{type(err).__name__}")


def _batch_worker(
    args: tuple[ExperimentConfig, list[tuple[float, int]]],
) -> list[SweepResult]:
    """Rows of a batch of (alpha0, seed index) cells, in the batch's order.

    td_* cells run in lockstep through _td_rows. If that raises, the cells
    rerun one at a time, so only a failing cell gets an error row.
    """
    config, cells = args
    if config.algorithm.startswith("td_"):
        try:
            return _td_rows(config, cells)
        except Exception as err:
            print(
                f"lockstep batch of {len(cells)} cells failed ({type(err).__name__}); "
                "rerunning its cells one at a time",
                file=sys.stderr,
            )
    return [_cell_worker(config, alpha0, idx) for alpha0, idx in cells]


def _process_pool(workers: int):
    """A pool that forks its workers wherever the platform can, whatever the
    default start method: once shut down, it leaves no fork server or
    resource tracker running. Imported at call time, as few calls need it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if fork else None
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def run_sweep(
    config: ExperimentConfig,
    parallelism: int = 1,
    out_path: str | Path | None = None,
) -> list[SweepResult]:
    """Run the alpha0 x seed grid; optionally write sweep.csv at out_path.

    parallelism is capped at the number of cells and of CPUs; at 1 (or an
    empty grid) the cells run in this process, and only a parallel sweep
    imports the process pool. A td_* grid runs in lockstep (see
    _evaluate_rows): as one batch in this process, or as one strided batch
    per worker, worker i taking grid[i::workers]. A sarsa_* grid runs cell
    by cell. Either way every row equals run_cell's for its cell, and rows
    come out sorted by (alpha0, seed index).
    """
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    grid = sorted(
        (alpha0, idx)
        for alpha0 in config.alpha0_grid
        for idx in range(config.n_seeds)
    )
    workers = min(parallelism, len(grid), os.cpu_count() or 1)
    # td_*: one lockstep batch per worker; sarsa_*: one cell per task. The
    # large-alpha0 rows diverge at the first check, so contiguous batches of
    # the sorted grid would leave the worker holding them idle.
    if config.algorithm.startswith("td_"):
        batches = [(config, grid[i::workers]) for i in range(workers)]
    else:
        batches = [(config, [cell]) for cell in grid]
    if workers <= 1:
        results = [row for batch in batches for row in _batch_worker(batch)]
    else:
        with _process_pool(workers) as pool:
            results = [row for rows in pool.map(_batch_worker, batches) for row in rows]
        results.sort(key=attrgetter("alpha0", "seed"))
    if out_path is not None:
        write_sweep_csv(results, out_path)
    return results


def stability_audit_run(
    config: ExperimentConfig,
    alpha0: float,
    seed_idx: int,
    sample_every: int,
    out_path: str | Path | None = None,
) -> tuple[SweepResult, list[tuple[int, StabilityReport]]]:
    """Run one cell, auditing every sample_every-th attempted transition
    (a rejected candidate step counts too) into one audit.csv row: a (step,
    StabilityReport) pair, step counting attempted transitions from 1.

    An alpha0 whose audit values overflow float64 is a ConfigError when the
    rows are to be written; out_path is then left unwritten.
    """
    if sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
    # a read-only 0-d array, as _evaluate_rows makes its trace decay
    gamma = np.array(config.gamma)
    gamma.flags.writeable = False
    rows: list[tuple[int, StabilityReport]] = []
    count = 0

    def hook(tr: Transition, alpha: float, e_used: np.ndarray) -> None:
        nonlocal count
        count += 1
        if count % sample_every:
            return
        geometry = TransitionGeometry(e_used, tr.phi_t - gamma * tr.phi_next, alpha)
        rows.append((count, audit_step(geometry)))

    result = run_cell(config, alpha0, seed_idx, on_step=hook)
    if out_path is not None:
        try:
            write_audit_csv(rows, out_path)
        except ConfigError:  # an unwritable path, reported as it is
            raise
        except ValueError as err:  # the refusal of a non-finite value
            raise ConfigError(
                f"alpha0 {alpha0!r} is too large to audit: its closed forms "
                f"overflow float64 ({err})"
            ) from None
    return result, rows


# alpha0 of the polynomial schedule both learners of fixed_point_check follow
FIXED_POINT_ALPHA0 = 0.5


def _fixed_point_leg(
    mrp: FiniteMrp,
    disc: DiscountSpec,
    steps: int,
    path_seed: int,
    target: tuple[np.ndarray, float] | None,
    implicit: bool,
) -> TdEvalResult:
    """One learner's run of fixed_point_check. A module-level function, so a
    worker process receives it by import path."""
    return run_td_evaluation(
        mrp,
        disc,
        make_schedule("polynomial", FIXED_POINT_ALPHA0),
        steps,
        path_seed,
        implicit=implicit,
        eval_window=1,
        target=target,
    )


def fixed_point_check(
    n_states: int,
    seed: int,
    disc: DiscountSpec,
    steps: int,
    target_tol: float | None = None,
) -> FixedPointReport:
    """Run both learners on a seeded random chain against the closed-form w*.

    Both learners see the same state path, drawn from one seed block-ahead
    by run_td_evaluation. With target_tol set, each run stops at the first
    1000-step check where the max-abs error is within it, having sampled no
    state past that check. The report reads no reward mean, so the runs use
    eval_window=1 and each holds at most two blocks of states at a time.

    The two runs share nothing, so they run at the same time: the standard
    learner in the one worker of a process pool started at call time (see
    _process_pool), and the implicit learner, whose steps cost more, in this
    process. The pool is shut down before the function returns or raises.
    The report equals, bit for bit, one built from the two runs made one
    after the other in this process. Arguments outside n_states >= 2, steps >= 1,
    0 < target_tol < inf and 0 <= seed < 2**64 raise ConfigError before any work starts.
    """
    if n_states < 2:
        raise ConfigError(f"n_states must be >= 2, got {n_states}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if target_tol is not None and not 0.0 < target_tol < math.inf:
        raise ConfigError(f"target_tol must be positive and finite, got {target_tol}")
    _check_seed("seed", seed)
    mrp = random_chain_mrp(n_states, mix64(seed))
    w_star = td_fixed_point_oracle(mrp, disc)
    target = None if target_tol is None else (w_star, target_tol)
    leg = (mrp, disc, steps, mix64(seed ^ 1), target)
    with _process_pool(1) as pool:
        standard_future = pool.submit(_fixed_point_leg, *leg, implicit=False)
        implicit_run = _fixed_point_leg(*leg, implicit=True)
        standard_run = standard_future.result()
    return FixedPointReport(
        w_star=w_star,
        err_standard=abs_max(standard_run.weights - w_star),
        err_implicit=abs_max(implicit_run.weights - w_star),
        steps_standard=standard_run.steps_completed,
        steps_implicit=implicit_run.steps_completed,
    )


# ---------------------------------------------------------------------------
# CSV emission


def _write_csv(
    header: str, format_row: Callable[[object], str], rows: list, path: str | Path
) -> None:
    lines = [header]
    lines.extend(map(format_row, rows))
    try:
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from None


def write_sweep_csv(results: list[SweepResult], path: str | Path) -> None:
    _write_csv(SWEEP_HEADER, format_sweep_row, results, path)


def write_audit_csv(rows: list[tuple[int, StabilityReport]], path: str | Path) -> None:
    _write_csv(AUDIT_HEADER, _format_audit_row, rows, path)
