"""Config parsing, seed derivation, sweep determinism, CSV emission."""

import concurrent.futures
import dataclasses
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_td import harness
from implicit_td.core import DiscountSpec
from implicit_td.envs import FiniteMrp, random_chain_mrp, sample_state_path
from implicit_td.harness import (
    AUDIT_HEADER,
    CHECK_EVERY,
    SWEEP_HEADER,
    ConfigError,
    ExperimentConfig,
    cell_seed,
    episode_seed,
    fixed_point_check,
    float_bits,
    format_sweep_row,
    mix64,
    parse_config_text,
    run_cell,
    run_sweep,
    run_td_evaluation,
    stability_audit_run,
    write_audit_csv,
    write_sweep_csv,
)
from implicit_td.learners import DIVERGENCE_THRESHOLD, NONFINITE_MAX_ABS, td_fixed_point_oracle
from implicit_td.stability import StabilityReport
from implicit_td.stepsize import make_schedule

SARSA_KW = dict(domain="cart_pole", algorithm="sarsa_implicit")


def tiny_config(**over):
    base = dict(
        **SARSA_KW,
        alpha0_grid=(0.25, 1.0),
        total_steps=300,
        n_seeds=2,
        eval_window=100,
    )
    base.update(over)
    return ExperimentConfig(**base)


# --- seed derivation


def test_mix64_reference_vectors():
    # the scramble is splitmix64's next(); these are its published outputs
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1
    assert mix64(0xDEADBEEF) == 0x4ADFB90F68C9EB9B


def test_float_bits_is_ieee_layout():
    assert float_bits(1.0) == 0x3FF0000000000000
    assert float_bits(0.5) == 0x3FE0000000000000
    assert float_bits(1.0) != float_bits(-1.0)


def test_cell_seeds_distinct_and_stable():
    seeds = {
        cell_seed(0, alpha0, idx)
        for alpha0 in (0.25, 0.5, 1.0, 2.0)
        for idx in range(8)
    }
    assert len(seeds) == 32
    assert cell_seed(7, 0.5, 3) == cell_seed(7, 0.5, 3)
    assert cell_seed(7, 0.5, 3) != cell_seed(8, 0.5, 3)


def test_episode_seeds_distinct():
    cell = cell_seed(0, 1.0, 0)
    seeds = [episode_seed(cell, i) for i in range(100)]
    assert len(set(seeds)) == 100


# --- configuration


def test_parse_config_roundtrip():
    cfg = parse_config_text(
        """
        # sweep setup
        domain = cart_pole
        algorithm = sarsa_implicit   # trailing comment
        alpha0_grid = 0.5, 1.0, 2.0
        lambda = 0.9
        gamma = 0.95
        fourier_order = 2
        total_steps = 1000
        n_seeds = 3
        eval_window = 100
        base_seed = 7
        epsilon = 0.05
        mrp_states = 6
        mrp_reward_scale = 2.5
        """
    )
    assert cfg == ExperimentConfig(
        domain="cart_pole",
        algorithm="sarsa_implicit",
        alpha0_grid=(0.5, 1.0, 2.0),
        lam=0.9,
        gamma=0.95,
        fourier_order=2,
        total_steps=1000,
        n_seeds=3,
        eval_window=100,
        base_seed=7,
        epsilon=0.05,
        mrp_states=6,
        mrp_reward_scale=2.5,
    )
    # every key with a default is set away from it, so each one is parsed
    for field in dataclasses.fields(ExperimentConfig):
        if field.default is not dataclasses.MISSING:
            assert getattr(cfg, field.name) != field.default, field.name


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("domain = cart_pole\nalgorithm = sarsa_implicit\nwat = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("domain = cart_pole\ndomain = cart_pole\nalgorithm = sarsa_implicit\n")
    with pytest.raises(ConfigError):
        parse_config_text("domain = cart_pole\n")  # algorithm missing
    with pytest.raises(ConfigError):
        parse_config_text("domain cart_pole\nalgorithm = sarsa_implicit\n")
    with pytest.raises(ConfigError):
        parse_config_text("domain = cart_pole\nalgorithm = sarsa_implicit\ngamma = hot\n")


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        tiny_config(domain="gridworld")
    with pytest.raises(ConfigError):
        tiny_config(algorithm="td_standard")  # td_* needs random_mrp
    with pytest.raises(ConfigError):
        ExperimentConfig(domain="random_mrp", algorithm="sarsa_implicit")
    with pytest.raises(ConfigError):
        tiny_config(alpha0_grid=(0.5, -1.0))
    with pytest.raises(ConfigError):
        tiny_config(alpha0_grid=(math.inf,))
    # 5e-1 is 0.5: a repeated alpha0 would run its cells twice
    with pytest.raises(ConfigError, match="alpha0_grid values must be distinct"):
        tiny_config(alpha0_grid=(0.5, 0.5, 5e-1))
    with pytest.raises(ConfigError):
        tiny_config(eval_window=301)
    with pytest.raises(ConfigError):
        tiny_config(n_seeds=0)
    with pytest.raises(ConfigError):
        tiny_config(gamma=1.0)
    for scale in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                domain="random_mrp", algorithm="td_implicit", mrp_reward_scale=scale
            )
    # finite, but 2 * |scale| * eval_window is not: numpy's uniform range
    # overflows at 1e308, the window mean of 10 rewards at 8e307
    for scale in (1e308, -1e308, 8e307):
        with pytest.raises(ConfigError, match="mrp_reward_scale"):
            ExperimentConfig(
                domain="random_mrp", algorithm="td_implicit", total_steps=100,
                eval_window=10, mrp_reward_scale=scale,
            )


def test_default_grid_is_the_powers_of_two():
    cfg = ExperimentConfig(**SARSA_KW)
    assert cfg.alpha0_grid == tuple(2.0**i for i in range(-8, 4))
    assert cfg.total_steps == 40_000
    assert cfg.lam == 0.5


# --- cells and sweeps


def test_run_cell_minimal_row_and_determinism():
    cfg = tiny_config(total_steps=50, eval_window=25)
    a = run_cell(cfg, 0.25, 0)
    b = run_cell(cfg, 0.25, 0)
    assert a == b
    assert a.status == "ok"
    assert a.steps_completed == 50
    assert np.isfinite(a.final_avg_reward)
    assert a.domain == "cart_pole" and a.algorithm == "sarsa_implicit"
    assert a.alpha0 == 0.25 and a.seed == 0


def test_run_cell_divergence_row_invariant():
    cfg = ExperimentConfig(
        domain="cart_pole",
        algorithm="sarsa_standard",
        alpha0_grid=(8.0,),
        total_steps=2000,
        n_seeds=1,
        eval_window=500,
    )
    row = run_cell(cfg, 8.0, 0)
    assert row.diverged
    assert row.max_weight_norm > DIVERGENCE_THRESHOLD
    assert np.isfinite(row.final_avg_reward)
    assert row.steps_completed < 2000  # halted early


@pytest.mark.parametrize("domain", ["cart_pole", "puddle_world"])
@pytest.mark.parametrize(
    "algorithm,max_weight_norm",
    # implicit: the first candidate overflows to non-finite and is rejected;
    # standard: the first candidate is finite and far past the threshold
    [("sarsa_implicit", NONFINITE_MAX_ABS), ("sarsa_standard", 1e308)],
)
def test_sarsa_cell_diverging_at_once_is_a_row_not_a_warning(domain, algorithm, max_weight_norm):
    config = ExperimentConfig(
        domain=domain, algorithm=algorithm, alpha0_grid=(1e308,), total_steps=300,
        n_seeds=1, eval_window=100,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = run_sweep(config)
    assert row.status == "ok"
    assert row.diverged
    assert row.max_weight_norm == max_weight_norm
    assert row.steps_completed == 1


def test_run_cell_rejects_bad_cell_coordinates():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        run_cell(cfg, -0.5, 0)
    with pytest.raises(ConfigError):
        run_cell(cfg, math.inf, 0)
    with pytest.raises(ConfigError):
        run_cell(cfg, 0.5, -1)
    # a seed index past 64 bits would alias the cell of a smaller one
    with pytest.raises(ConfigError):
        run_cell(cfg, 0.5, 2**64)


def test_run_sweep_row_count_and_order(tmp_path, capsys):
    cfg = tiny_config(total_steps=60, eval_window=30)
    out = tmp_path / "sweep.csv"
    rows = run_sweep(cfg, parallelism=1, out_path=out)
    assert len(rows) == 4  # 2 alphas x 2 seeds
    keys = [(r.alpha0, r.seed) for r in rows]
    assert keys == sorted(keys)
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 5
    assert capsys.readouterr() == ("", "")  # ok cells print nothing


def test_error_cell_keeps_its_row_and_prints_its_cause(tmp_path, monkeypatch, capsys):
    real_run_cell = harness.run_cell

    def failing_run_cell(config, alpha0, seed_idx):
        if (alpha0, seed_idx) == (1.0, 1):
            raise RuntimeError("injected failure")
        return real_run_cell(config, alpha0, seed_idx)

    monkeypatch.setattr(harness, "run_cell", failing_run_cell)
    cfg = tiny_config(total_steps=60, eval_window=30)
    out = tmp_path / "sweep.csv"
    rows = run_sweep(cfg, parallelism=1, out_path=out)
    assert [r.status for r in rows] == ["ok", "ok", "ok", "error:RuntimeError"]
    last = out.read_text().splitlines()[-1]
    assert last == "cart_pole,sarsa_implicit,1.0,1,0.0,false,0.0,0,error:RuntimeError"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cell alpha0=1.0 seed=1 failed: RuntimeError: injected failure" in captured.err
    assert "Traceback (most recent call last)" in captured.err
    assert 'raise RuntimeError("injected failure")' in captured.err
    assert "alpha0=0.25" not in captured.err


def test_run_sweep_empty_grid_header_only(tmp_path):
    cfg = tiny_config(alpha0_grid=())
    out = tmp_path / "sweep.csv"
    rows = run_sweep(cfg, parallelism=1, out_path=out)
    assert rows == []
    assert out.read_text() == SWEEP_HEADER + "\n"


def test_sweep_csv_bytes_stable(tmp_path):
    cfg = tiny_config(total_steps=60, eval_window=30)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg, parallelism=1, out_path=p1)
    run_sweep(cfg, parallelism=1, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()  # LF only


def test_format_row_uses_repr_floats_and_lowercase_bools():
    cfg = tiny_config(total_steps=50, eval_window=25)
    row = run_cell(cfg, 0.25, 1)
    text = format_sweep_row(row)
    fields = text.split(",")
    assert fields[0] == "cart_pole"
    assert fields[2] == "0.25"
    assert fields[5] in ("true", "false")
    assert float(fields[4]) == row.final_avg_reward  # repr round-trips
    # both bool values, an int alpha0 from the Python API, a status string
    for diverged in (True, False):
        odd = dataclasses.replace(
            row, alpha0=1, final_avg_reward=0.1 + 0.2, diverged=diverged, status="error:X"
        )
        assert format_sweep_row(odd).split(",") == [
            "cart_pole", "sarsa_implicit", "1", "1", "0.30000000000000004",
            "true" if diverged else "false", repr(row.max_weight_norm),
            str(row.steps_completed), "error:X",
        ]


def test_audit_row_formats_every_float_by_repr(tmp_path):
    row = (7, StabilityReport(0.5, 1e-300, -0.0, 1.0, 2.5e300, 1.0, 1.0 / 3.0, 1.0 / 3.0))
    out = tmp_path / "audit.csv"
    write_audit_csv([row], out)
    assert out.read_bytes() == (
        AUDIT_HEADER + "\n7,0.5,1e-300,-0.0,1.0,2.5e+300,1.0,"
        "0.3333333333333333,0.3333333333333333\n"
    ).encode()


def test_csv_refuses_nonfinite(tmp_path):
    sweep_row = run_cell(tiny_config(total_steps=50, eval_window=25), 0.25, 0)
    report = StabilityReport(0.5, 1.0, 0.5, 1.0, 0.25, 1.0, 1.0, 1.0)
    out = tmp_path / "bad.csv"
    # an audit.csv row is a (step, StabilityReport) pair
    for write, fmt, record, as_row in [
        (write_sweep_csv, format_sweep_row, sweep_row, lambda r: r),
        (write_audit_csv, harness._format_audit_row, report, lambda r: (1, r)),
    ]:
        float_fields = [
            f.name for f in dataclasses.fields(record) if f.type in (float, "float")
        ]
        row = as_row(record)
        # finite floats whose sum overflows to +inf or -inf still write
        records = [record]
        for huge in (1e308, -1e308):
            big = dataclasses.replace(record, **dict.fromkeys(float_fields, huge))
            write([row, as_row(big)], out)
            assert out.read_text().splitlines()[-1] == fmt(as_row(big))
            out.unlink()
            records.append(big)
        # a non-finite value in any float field is refused, also next to
        # finite values whose sum overflows
        for base, field, value in itertools.product(
            records, float_fields, (math.nan, math.inf, -math.inf)
        ):
            bad = dataclasses.replace(base, **{field: value})
            with pytest.raises(
                ValueError, match=f"refusing to write non-finite CSV value {value}"
            ):
                write([row, as_row(bad)], out)
            assert not out.exists()


# --- TD evaluation driver


@pytest.mark.parametrize(
    "alpha0,diverges",
    [(0.05, False), (1.5, True), (8.0, True)],
    ids=["converging", "diverging", "overflowing"],
)
def test_td_eval_hook_only_observes(alpha0, diverges):
    mrp = random_chain_mrp(5, seed=9)
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    calls = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [
            harness._evaluate_rows(
                mrp, disc, [make_schedule("constant", alpha0)], 4000, [3],
                implicit=False, eval_window=4000, on_step=hook,
            )[0]
            for hook in (None, lambda tr, alpha, e: calls.append(alpha))
        ]
    # steps on overflowed weights before the next check are expected, not warned about
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    plain, hooked = runs
    assert np.array_equal(plain.weights, hooked.weights, equal_nan=True)
    assert plain.steps_completed == hooked.steps_completed == len(calls)
    assert plain.max_weight_abs == hooked.max_weight_abs
    assert (plain.max_weight_abs > DIVERGENCE_THRESHOLD) == diverges
    # standard TD's first divergence here is at step 747 (alpha0 1.5) or earlier;
    # the run stops at the next check
    assert plain.steps_completed == (1000 if diverges else 4000)


@pytest.mark.parametrize("alpha0,max_abs", [(0.05, None), (1.5, None), (8.0, NONFINITE_MAX_ABS)])
def test_td_eval_diverged_is_read_from_the_max_abs_record(alpha0, max_abs):
    res = run_td_evaluation(
        random_chain_mrp(5, seed=9), DiscountSpec(gamma=0.9, lam=0.5),
        make_schedule("constant", alpha0), 4000, seed=3, implicit=False, eval_window=4000,
    )
    assert (res.max_weight_abs > DIVERGENCE_THRESHOLD) == (alpha0 > 1.0)
    if max_abs is not None:  # the weights went non-finite
        assert not np.isfinite(res.weights).all()
        assert res.max_weight_abs == max_abs
    # a td_* row reports the same record and the flag read from it
    config = td_config(alpha0_grid=(alpha0,), n_seeds=1, total_steps=4000)
    (row,) = run_sweep(config)
    assert row.diverged == (row.max_weight_norm > DIVERGENCE_THRESHOLD) == (alpha0 > 1.0)


def test_td_eval_early_exit_at_target():
    mrp = random_chain_mrp(4, seed=2)
    disc = DiscountSpec(gamma=0.8, lam=0.5)
    w_star = td_fixed_point_oracle(mrp, disc)
    res = run_td_evaluation(
        mrp,
        disc,
        make_schedule("polynomial", 0.5),
        10**6,
        seed=4,
        implicit=False,
        eval_window=10**6,
        target=(w_star, 0.05),
    )
    assert res.steps_completed < 10**6
    assert float(np.max(np.abs(res.weights - w_star))) <= 0.05


@pytest.mark.parametrize("implicit", [False, True], ids=["standard", "implicit"])
def test_td_eval_samples_at_most_one_block_past_an_early_exit(monkeypatch, implicit):
    # criterion 4's 2-state cycle, which reaches tolerance 0.02 far before 10**6 steps
    cycle = FiniteMrp(
        p=np.array([[0.0, 1.0], [1.0, 0.0]]), r=np.array([1.0, 0.0]),
        xi0=np.array([0.5, 0.5]), features=np.eye(2),
    )
    disc = DiscountSpec(gamma=0.5, lam=0.0)
    sampled = []

    def counting(mrp, length, *args, **kwargs):
        sampled.append(length)
        return sample_state_path(mrp, length, *args, **kwargs)

    monkeypatch.setattr(harness, "sample_state_path", counting)
    res = run_td_evaluation(
        cycle, disc, make_schedule("polynomial", 0.5), 10**6, seed=123,
        implicit=implicit, eval_window=10**6, target=(td_fixed_point_oracle(cycle, disc), 0.02),
    )
    assert res.steps_completed < 10**6
    assert sum(sampled) <= res.steps_completed + CHECK_EVERY + 1
    assert max(sampled) <= CHECK_EVERY


@pytest.mark.parametrize(
    "kwargs,name",
    [
        (dict(eval_window=0), "eval_window"),
        (dict(eval_window=-5), "eval_window"),
        (dict(total_steps=-1), "total_steps"),
    ],
)
def test_td_eval_rejects_a_bad_window_or_budget(kwargs, name):
    mrp = random_chain_mrp(5, seed=9)
    args = dict(
        mrp=mrp, disc=DiscountSpec(gamma=0.9, lam=0.5),
        schedule=make_schedule("constant", 0.1), total_steps=100, seed=0, implicit=False,
        eval_window=100,
    )
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        run_td_evaluation(**{**args, **kwargs})
    # no steps stay legal, whatever the window
    res = run_td_evaluation(**{**args, "total_steps": 0, "eval_window": 1})
    assert (res.steps_completed, res.mean_reward_last_window) == (0, 0.0)


@pytest.mark.parametrize(
    "kinds",
    [("alpha_bound",), ("polynomial", "polynomial"), ("constant", "alpha_bound")],
    ids=["alpha_bound", "polynomial_stack", "alpha_bound_in_stack"],
)
def test_td_eval_takes_constant_schedules_or_one_polynomial_row(kinds):
    # alpha_bound belongs to SARSA, and a stack of rows steps with constant alphas
    mrp = random_chain_mrp(5, seed=9)
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    schedules = [make_schedule(kind, 0.1) for kind in kinds]
    seeds = list(range(len(kinds)))
    with pytest.raises(ValueError, match="constant schedules, or one polynomial row"):
        if len(kinds) == 1:
            run_td_evaluation(mrp, disc, schedules[0], 100, seeds[0], False, eval_window=100)
        else:
            harness._evaluate_rows(mrp, disc, schedules, 100, seeds, False, eval_window=100)


def window_mean_up_front(mrp, seed, total_steps, steps_done, window):
    """The window mean from the whole path drawn at once, outside the driver."""
    rng = np.random.default_rng(seed)
    start = sample_state_path(mrp, 1, rng)
    path = np.concatenate([start, sample_state_path(mrp, total_steps, rng, start=int(start[0]))])
    lo = max(0, steps_done - window)
    return float(mrp.r[path[:-1]][lo:steps_done].mean())


ORACLE_STEPS = 4321
# (schedule kind, alpha0, implicit, target_tol, steps completed): standard TD
# at alpha0 8 diverges before the first check; the implicit run reaches
# tolerance 0.3 at the second check
WINDOW_CASES = {
    "converging": ("constant", 0.05, False, None, ORACLE_STEPS),
    "diverging": ("constant", 8.0, False, None, 1000),
    "at_target": ("polynomial", 0.5, True, 0.3, 2000),
}


@pytest.mark.parametrize(
    "window", [1, 999, 1000, 1001, ORACLE_STEPS, ORACLE_STEPS + 7]
)
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_td_eval_window_mean_equals_a_path_drawn_up_front(case, window):
    kind, alpha0, implicit, target_tol, steps = WINDOW_CASES[case]
    mrp = random_chain_mrp(5, seed=1)
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    res = run_td_evaluation(
        mrp, disc, make_schedule(kind, alpha0), ORACLE_STEPS, seed=3,
        implicit=implicit, eval_window=window,
        target=(td_fixed_point_oracle(mrp, disc), target_tol) if target_tol else None,
    )
    assert res.steps_completed == steps
    assert (res.max_weight_abs > DIVERGENCE_THRESHOLD) == (case == "diverging")
    assert res.mean_reward_last_window == window_mean_up_front(
        mrp, 3, ORACLE_STEPS, steps, window
    )


def one_row_window_100(steps):
    run_td_evaluation(
        random_chain_mrp(5, seed=9), DiscountSpec(gamma=0.9, lam=0.5),
        make_schedule("constant", 0.05), steps, seed=3, implicit=False, eval_window=100,
    )


def fixed_point_run(steps):
    fixed_point_check(5, 0, DiscountSpec(gamma=0.8, lam=0.5), steps)


def fixed_point_standard_leg(steps):
    # the leg fixed_point_check hands to its worker, where tracemalloc cannot
    # see it, run in this process on the same chain
    mrp = random_chain_mrp(5, mix64(0))
    disc = DiscountSpec(gamma=0.8, lam=0.5)
    harness._fixed_point_leg(mrp, disc, steps, mix64(1), None, implicit=False)


@pytest.mark.parametrize(
    "run,steps",
    [
        (one_row_window_100, 30_000),
        (fixed_point_run, 25_000),
        (fixed_point_standard_leg, 25_000),
    ],
    ids=["one_row", "fixed_point_check", "fixed_point_standard_leg"],
)
def test_td_eval_memory_is_bounded_by_the_window(run, steps):
    # a run holding its whole path peaks near 24 bytes per step (the states,
    # their concatenation and their rewards): ~720 KiB for the one row's 30k
    # steps, ~600 KiB for a 25k-step run of each fixed-point learner. A
    # row holds at most eval_window + CHECK_EVERY + 1 states, which with
    # its learner's arrays and the block being stepped stays near 64 KiB.
    # fixed_point_check runs its standard learner in a worker process, so
    # its case traces the implicit learner and the pool's own allocations.
    run(10)  # first-call allocations are not the run's
    tracemalloc.start()
    try:
        run(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the mapped
    items, maps in-process."""

    created: list[int] = []
    mapped: list = []

    def __init__(self, max_workers, mp_context=None):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.mapped.extend(items)
        return map(fn, items)


@pytest.mark.parametrize(
    "grid,n_seeds,parallelism,cpus,workers",
    [
        ((0.25, 1.0), 2, 64, 8, 4),  # capped by the 4 cells
        ((0.25, 1.0), 2, 64, 3, 3),  # capped by the CPUs
        ((0.25, 1.0), 2, 2, 8, 2),  # as asked
        ((0.25, 1.0), 2, 64, None, None),  # unknown CPU count counts as 1
        ((0.25,), 1, 8, 8, None),  # one cell
        ((), 2, 8, 8, None),  # empty grid
        ((0.25, 1.0), 2, 1, 8, None),
    ],
)
def test_run_sweep_clamps_parallelism(monkeypatch, grid, n_seeds, parallelism, cpus, workers):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = tiny_config(alpha0_grid=grid, n_seeds=n_seeds, total_steps=20, eval_window=10)
    rows = run_sweep(cfg, parallelism=parallelism)
    assert len(rows) == len(grid) * n_seeds
    assert _RecordingPool.created == ([] if workers is None else [workers])


# --- lockstep td_* sweeps


def td_config(**over):
    base = dict(
        domain="random_mrp",
        algorithm="td_standard",
        alpha0_grid=(0.125, 2.0, 8.0),
        total_steps=2500,
        n_seeds=2,
        eval_window=700,
        base_seed=3,
    )
    base.update(over)
    return ExperimentConfig(**base)


LOCKSTEP_CONFIGS = {
    "2_states_standard_window_1": td_config(mrp_states=2, eval_window=1),
    "2_states_implicit": td_config(mrp_states=2, algorithm="td_implicit"),
    "5_states_standard_window_whole": td_config(mrp_states=5, eval_window=2500),
    "5_states_implicit_window_1300": td_config(
        mrp_states=5, algorithm="td_implicit", eval_window=1300
    ),
    "50_states_standard": td_config(mrp_states=50, n_seeds=3),
    "50_states_implicit": td_config(mrp_states=50, algorithm="td_implicit", n_seeds=3),
    # the golden cell whose weights pass 1e8 at step 1529, between two checks
    "5_states_between_checks": td_config(
        alpha0_grid=(0.125, 1.375, 2.0, 8.0), total_steps=5000, eval_window=2500,
        base_seed=7, n_seeds=1,
    ),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_CONFIGS))
def test_td_sweep_rows_equal_their_cells(monkeypatch, name):
    config = LOCKSTEP_CONFIGS[name]
    sampled = {}  # path seed -> states drawn

    def counting(mrp, length, rng, *args, **kwargs):
        seed = rng.bit_generator.seed_seq.entropy
        sampled[seed] = sampled.get(seed, 0) + length
        return sample_state_path(mrp, length, rng, *args, **kwargs)

    monkeypatch.setattr(harness, "sample_state_path", counting)
    rows = run_sweep(config)
    stacked = dict(sampled)
    cells = [run_cell(config, row.alpha0, row.seed) for row in rows]
    assert rows == cells
    mrp = harness._shared_mrp(config)
    for row in rows:
        seed = cell_seed(config.base_seed, row.alpha0, row.seed)
        # the start state and one state per step: nothing past the last check
        assert stacked[seed] == row.steps_completed + 1
        assert row.final_avg_reward == window_mean_up_front(
            mrp, seed, config.total_steps, row.steps_completed, config.eval_window
        )
    if config.algorithm == "td_standard":
        # rows left the stack at different checks
        assert {r.diverged for r in rows} == {False, True}
        assert len({r.steps_completed for r in rows}) > 1
    if name == "5_states_between_checks":
        (row,) = [r for r in rows if r.alpha0 == 1.375]
        assert (row.diverged, row.steps_completed) == (True, 2000)


def test_td_sweep_bytes_do_not_depend_on_parallelism(tmp_path, monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    config = td_config(alpha0_grid=(0.125, 1.0, 2.0, 8.0), n_seeds=3)
    paths = [tmp_path / f"p{parallelism}.csv" for parallelism in (1, 2)]
    for parallelism, path in zip((1, 2), paths):
        run_sweep(config, parallelism=parallelism, out_path=path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_td_sweep_strides_the_grid_over_the_workers(monkeypatch, workers):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(_RecordingPool, "mapped", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: workers)
    # contiguous chunks of the sorted grid would give some worker one alpha0 only
    config = td_config(alpha0_grid=(0.125, 2.0, 8.0), n_seeds=workers, total_steps=1500)
    rows = run_sweep(config, parallelism=workers)
    assert _RecordingPool.created == [workers]
    batches = [cells for _, cells in _RecordingPool.mapped]
    assert len(batches) == workers
    for cells in batches:
        assert {alpha0 for alpha0, _ in cells} == set(config.alpha0_grid)
    assert sorted(cell for cells in batches for cell in cells) == [
        (row.alpha0, row.seed) for row in rows
    ]
    monkeypatch.undo()
    assert rows == run_sweep(config)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_td_sweep_empty_grid_header_only(tmp_path, parallelism):
    out = tmp_path / "sweep.csv"
    assert run_sweep(td_config(alpha0_grid=()), parallelism, out) == []
    assert out.read_text() == SWEEP_HEADER + "\n"


def test_failing_lockstep_batch_reruns_its_cells_one_at_a_time(monkeypatch, capsys):
    config = td_config(alpha0_grid=(0.125, 1.0), total_steps=1500)
    bad_seed = cell_seed(config.base_seed, 1.0, 0)
    real = harness._evaluate_rows

    def failing(mrp, disc, schedules, total_steps, seeds, *args, **kwargs):
        if bad_seed in seeds:
            raise RuntimeError("injected failure")
        return real(mrp, disc, schedules, total_steps, seeds, *args, **kwargs)

    monkeypatch.setattr(harness, "_evaluate_rows", failing)
    rows = run_sweep(config)
    assert [r.status for r in rows] == ["ok", "ok", "error:RuntimeError", "ok"]
    assert (rows[2].alpha0, rows[2].seed) == (1.0, 0)
    monkeypatch.undo()
    for row in rows[:2] + rows[3:]:
        assert row == run_cell(config, row.alpha0, row.seed)
    err = capsys.readouterr().err
    assert "lockstep batch of 4 cells failed (RuntimeError)" in err
    assert "cell alpha0=1.0 seed=0 failed: RuntimeError: injected failure" in err
    assert err.count("failed:") == 1


# --- determinism: a row depends only on (config, alpha0, seed index)

# 8.0 makes td_standard and sarsa_standard diverge, and 1e308 those and every
# sarsa_* algorithm at its first step; the small values converge, so a grid
# mixes rows that stop early with rows that run to the end
PROPERTY_ALPHA0S = (0.01, 0.125, 0.5, 8.0, 1e308)


@st.composite
def cells_and_batches(draw):
    """A small config, then a subset of its grid in some order, split into
    batches."""
    domain = draw(st.sampled_from(["random_mrp", "cart_pole", "puddle_world"]))
    td = domain == "random_mrp"
    algorithm = draw(st.sampled_from(
        [a for a in harness.ALGORITHMS if a.startswith("td_") == td]
    ))
    # td_* rows check every CHECK_EVERY steps, so they need more steps than
    # sarsa_* rows to leave a stack at different checks
    total_steps = draw(st.integers(1, 2500) if td else st.integers(1, 300))
    config = ExperimentConfig(
        domain=domain,
        algorithm=algorithm,
        alpha0_grid=tuple(draw(st.lists(
            st.sampled_from(PROPERTY_ALPHA0S), min_size=1, max_size=4, unique=True
        ))),
        lam=draw(st.sampled_from([0.0, 0.5, 0.9])),
        fourier_order=draw(st.integers(1, 3)),
        total_steps=total_steps,
        n_seeds=draw(st.integers(1, 3)),
        eval_window=draw(st.integers(1, total_steps)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
        mrp_states=draw(st.integers(2, 6)),
    )
    grid = [(a, i) for a in config.alpha0_grid for i in range(config.n_seeds)]
    cells = draw(st.permutations(grid))[: draw(st.integers(1, len(grid)))]
    cuts = sorted(draw(st.sets(st.integers(1, len(cells) - 1), max_size=3))) if len(cells) > 1 else []
    batches = [cells[i:j] for i, j in zip([0, *cuts], [*cuts, len(cells)])]
    return config, batches


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(cells_and_batches())
def test_a_row_depends_only_on_its_config_alpha0_and_seed_index(drawn):
    config, batches = drawn
    cells = {
        (a, i): run_cell(config, a, i)
        for a in config.alpha0_grid for i in range(config.n_seeds)
    }
    for row in cells.values():
        # a row's verdict is read from its own max-abs record
        assert row.diverged == (row.max_weight_norm > DIVERGENCE_THRESHOLD)
    line = {cell: format_sweep_row(row) for cell, row in cells.items()}
    for batch in batches:
        if config.algorithm.startswith("td_"):
            rows = harness._td_rows(config, batch)
        else:
            rows = harness._batch_worker((config, batch))
        assert [format_sweep_row(r) for r in rows] == [line[cell] for cell in batch]
    with mock.patch.object(harness.os, "cpu_count", return_value=2):
        for parallelism in (1, 2):
            rows = run_sweep(config, parallelism)
            assert [format_sweep_row(r) for r in rows] == [line[cell] for cell in sorted(line)]


# --- stability audit


def test_audit_sample_every_beyond_budget_gives_no_rows():
    cfg = tiny_config(total_steps=50, eval_window=25)
    result, rows = stability_audit_run(cfg, 0.25, 0, sample_every=1000)
    assert rows == []
    assert result.status == "ok"


def test_audit_rows_schema_and_ratio(tmp_path):
    cfg = tiny_config(total_steps=400, eval_window=100)
    out = tmp_path / "audit.csv"
    result, rows = stability_audit_run(cfg, 0.5, 0, sample_every=50, out_path=out)
    assert len(rows) >= 4
    for step, report in rows:
        assert 0.0 < report.beta <= 1.0
        assert report.sq_norm_implicit >= 1.0 and report.sq_norm_standard >= 1.0
        assert report.ratio == pytest.approx(report.sq_norm_implicit / report.sq_norm_standard)
        assert step % 50 == 0
    lines = out.read_text().splitlines()
    assert lines[0] == AUDIT_HEADER
    assert len(lines) == len(rows) + 1


@pytest.mark.parametrize("domain", ["cart_pole", "puddle_world"])
@pytest.mark.parametrize(
    "algorithm,alpha0,diverges",
    [("sarsa_implicit", 0.5, False), ("sarsa_alpha_bound", 0.5, False),
     ("sarsa_standard", 2.0, True)],
)
def test_sarsa_hook_only_observes(domain, algorithm, alpha0, diverges):
    cfg = ExperimentConfig(
        domain=domain, algorithm=algorithm, alpha0_grid=(alpha0,), total_steps=600,
        n_seeds=1, eval_window=200,
    )
    plain = run_cell(cfg, alpha0, 0)
    assert plain.diverged == diverges
    audited, rows = stability_audit_run(cfg, alpha0, 0, sample_every=1)
    assert audited == plain
    assert len(rows) == plain.steps_completed

    # SARSA reads no Transition after its hook, so rebinding every field
    # of each one it hands over moves nothing
    calls = 0

    def scribble(tr, alpha, e):
        nonlocal calls
        calls += 1
        tr.phi_t = np.full_like(tr.phi_t, np.nan)
        tr.reward = math.nan
        tr.phi_next = np.full_like(tr.phi_next, np.inf)
        tr.terminal = not tr.terminal

    assert run_cell(cfg, alpha0, 0, on_step=scribble) == plain
    assert calls == plain.steps_completed


def test_audit_finds_expanding_standard_steps_on_puddle():
    cfg = ExperimentConfig(
        domain="puddle_world",
        algorithm="sarsa_implicit",
        alpha0_grid=(1.0,),
        total_steps=2000,
        n_seeds=1,
        eval_window=500,
    )
    _, rows = stability_audit_run(cfg, 1.0, 0, sample_every=1)
    assert any(
        r.sq_norm_standard > 1.0 and r.sq_norm_implicit <= r.sq_norm_standard
        for _, r in rows
    )


# --- fixed-point check


def test_fixed_point_check_zero_rewards_exact():
    # zero rewards: w* = 0 and both learners stay at their zero start
    mrp = random_chain_mrp(4, mix64(0), 0.0)
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    w_star = td_fixed_point_oracle(mrp, disc)
    err = {}
    for implicit in (False, True):
        run = run_td_evaluation(
            mrp, disc, make_schedule("polynomial", harness.FIXED_POINT_ALPHA0),
            500, mix64(1), implicit=implicit, eval_window=500,
        )
        err[implicit] = float(np.max(np.abs(run.weights - w_star)))
    assert err[False] == 0.0
    assert err[True] == 0.0
    assert w_star == pytest.approx(np.zeros(4), abs=1e-12)


# (n_states, seed, gamma, lam, steps, target_tol): criterion 4's first chain,
# whose learners stop early at the tolerance after 29k and 40k steps, and a
# short run to its full budget
FIXED_POINT_CASES = {
    "early_exit": (5, 0, 0.8, 0.5, 10**6, 0.05),
    "full_budget": (4, 3, 0.9, 0.3, 7_500, None),
}


@pytest.mark.parametrize("case", sorted(FIXED_POINT_CASES))
def test_fixed_point_check_equals_two_in_process_runs(case):
    n_states, seed, gamma, lam, steps, target_tol = FIXED_POINT_CASES[case]
    disc = DiscountSpec(gamma=gamma, lam=lam)
    report = fixed_point_check(n_states, seed, disc, steps, target_tol=target_tol)
    # the reference: both learners one after the other in this process, with
    # the settings fixed_point_check documents
    mrp = random_chain_mrp(n_states, mix64(seed))
    w_star = td_fixed_point_oracle(mrp, disc)
    runs = {
        implicit: run_td_evaluation(
            mrp, disc, make_schedule("polynomial", harness.FIXED_POINT_ALPHA0), steps,
            mix64(seed ^ 1), implicit=implicit, eval_window=1,
            target=None if target_tol is None else (w_star, target_tol),
        )
        for implicit in (False, True)
    }
    assert report.w_star.dtype == w_star.dtype
    assert report.w_star.tobytes() == w_star.tobytes()
    for implicit, err, done in (
        (False, report.err_standard, report.steps_standard),
        (True, report.err_implicit, report.steps_implicit),
    ):
        expected = float(np.max(np.abs(runs[implicit].weights - w_star)))
        assert float_bits(err) == float_bits(expected)
        assert done == runs[implicit].steps_completed
        if target_tol is None:
            assert done == steps
        else:
            assert done < steps and err <= target_tol


@pytest.mark.parametrize(
    "n_states, seed, steps, target_tol",
    [
        (1, 0, 2_000, None),
        (5, 0, 0, None),
        (5, 0, 2_000, math.nan),
        (5, 0, 2_000, 0.0),
        (5, 0, 2_000, -0.02),
        (5, 0, 2_000, math.inf),
        (5, -1, 2_000, None),
        (5, 2**64, 2_000, None),
        (5, 2**64 + 1, 2_000, None),
    ],
    ids=["states_1", "steps_0", "tol_nan", "tol_0", "tol_negative", "tol_inf",
         "seed_negative", "seed_2_64", "seed_2_64_plus_1"],
)
def test_fixed_point_check_refuses_bad_arguments_before_any_work(
    n_states, seed, steps, target_tol, monkeypatch
):
    # the values the fixed-point subcommand refuses, refused by the function
    # itself before it builds the chain or starts its pool
    def never(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    monkeypatch.setattr(harness, "random_chain_mrp", never)
    monkeypatch.setattr(harness, "_process_pool", never)
    disc = DiscountSpec(gamma=0.8, lam=0.5)
    with pytest.raises(ConfigError):
        fixed_point_check(n_states, seed, disc, steps, target_tol=target_tol)


def _child_pids():
    """Every live child process of this one, whatever started it, read from
    Linux's /proc (empty elsewhere)."""
    return {
        int(pid)
        for path in Path("/proc/self/task").glob("*/children")
        for pid in path.read_text().split()
    }


def test_fixed_point_check_leaves_no_process_behind(monkeypatch):
    # the pool is shut down on return and on raise; a pool started by another
    # method than fork would leave multiprocessing's resource tracker (spawn)
    # or its fork server running, which the /proc read sees
    disc = DiscountSpec(gamma=0.8, lam=0.5)
    fixed_point_check(5, 0, disc, 3_000)
    assert multiprocessing.active_children() == []
    assert _child_pids() == set()
    # a raise in both legs while the pool runs: the forked worker inherits the patch
    def induced(*args, **kwargs):
        raise RuntimeError("induced")

    monkeypatch.setattr(harness, "run_td_evaluation", induced)
    with pytest.raises(RuntimeError, match="induced"):
        fixed_point_check(5, 0, disc, 3_000)
    assert multiprocessing.active_children() == []
    assert _child_pids() == set()
    # a bad argument is refused before any pool starts
    with pytest.raises(ConfigError, match="steps must be >= 1, got -1"):
        fixed_point_check(5, 0, disc, -1)
    assert multiprocessing.active_children() == []
    assert _child_pids() == set()


# runs one pool call, named by its argument, in a process whose default start
# method is forkserver, then prints the process's live children
POOL_SCRIPT = """
import multiprocessing
import sys
from pathlib import Path

from implicit_td import harness
from implicit_td.core import DiscountSpec

if __name__ == "__main__":
    multiprocessing.set_start_method("forkserver")
    if sys.argv[1] == "fixed_point_check":
        harness.fixed_point_check(5, 0, DiscountSpec(gamma=0.8, lam=0.5), 3_000)
    else:
        harness.os.cpu_count = lambda: 2
        config = harness.ExperimentConfig(
            domain="cart_pole", algorithm="sarsa_implicit", alpha0_grid=(0.25, 1.0),
            total_steps=50, n_seeds=1, eval_window=25,
        )
        harness.run_sweep(config, parallelism=2)
    print(sorted(
        int(pid)
        for path in Path("/proc/self/task").glob("*/children")
        for pid in path.read_text().split()
    ))
"""


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods()
    or not list(Path("/proc/self/task").glob("*/children")),
    reason="needs the forkserver start method and Linux's /proc children lists",
)
@pytest.mark.parametrize("call", ["fixed_point_check", "run_sweep"])
def test_pools_leave_no_process_under_the_forkserver_start_method(tmp_path, call):
    # forkserver is Linux's default from Python 3.14; a pool started by it
    # leaves the fork server and a resource tracker running after the call
    script = tmp_path / "pool_call.py"
    script.write_text(POOL_SCRIPT)
    path = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, str(script), call], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_fixed_point_check_converges_on_easy_chain():
    report = fixed_point_check(
        3,
        seed=1,
        disc=DiscountSpec(gamma=0.5, lam=0.5),
        steps=200_000,
        target_tol=0.02,
    )
    assert report.err_standard <= 0.02
    assert report.err_implicit <= 0.02
    assert report.steps_standard <= 200_000
