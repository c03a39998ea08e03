"""Exit codes, output routing, and subcommand plumbing."""

import contextlib
import dataclasses
import io
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from implicit_td import cli, harness
from implicit_td.core import DimensionMismatchError, DiscountSpec
from implicit_td.harness import (
    ALGORITHMS,
    DOMAINS,
    SWEEP_HEADER,
    ConfigError,
    FixedPointReport,
    fixed_point_check,
    float_bits,
    parse_config_text,
    run_cell,
    run_sweep,
    stability_audit_run,
)

CONFIG = """
domain = cart_pole
algorithm = sarsa_implicit
alpha0_grid = 0.5
total_steps = 120
eval_window = 60
n_seeds = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture
def in_tmp_path(tmp_path, monkeypatch):
    # sweep and audit default to writing into the working directory
    monkeypatch.delenv("IMPLICIT_TD_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_sweep_writes_csv_and_exits_zero(config_path, tmp_path, capsys):
    out = tmp_path / "results"
    code = cli.main(["sweep", config_path, "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    assert "wrote" in capsys.readouterr().out


def test_missing_config_is_a_config_error(tmp_path):
    assert cli.main(["sweep", str(tmp_path / "absent.cfg")]) == 2


def test_bad_config_key_is_a_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("domain = cart_pole\nalgorithm = sarsa_implicit\nwat = 1\n")
    assert cli.main(["sweep", str(path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["cell", "--alpha", "0.5", "--seed-index", "0"], ["audit", "--alpha", "0.5"]],
)
def test_config_that_is_not_utf8_is_a_config_error(argv, in_tmp_path, capsys):
    path = in_tmp_path / "latin1.cfg"
    path.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
    command, *flags = argv
    assert cli.main([command, str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "UTF-8" in err
    assert list(in_tmp_path.glob("*.csv")) == []


def test_config_with_a_utf8_bom_runs_as_without_it(config_path, tmp_path, capsys):
    # a BOM, as some editors save one, is not part of the first key
    bom_path = tmp_path / "bom.cfg"
    bom_path.write_bytes(b"\xef\xbb\xbf" + CONFIG.lstrip().encode())
    outputs = []
    for path in (config_path, str(bom_path)):
        assert cli.main(["cell", path, "--alpha", "0.5", "--seed-index", "0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith(f"{SWEEP_HEADER}\ncart_pole,sarsa_implicit,0.5,0,")
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep"], "sweep.csv"),
        (["audit", "--alpha", "0.5"], "audit.csv"),
    ],
    ids=["sweep", "audit"],
)
def test_output_file_that_cannot_be_written_is_a_config_error(
    argv, name, config_path, tmp_path, capsys, monkeypatch
):
    # found inside the harness before any cell runs or anything is printed
    def never(*args, **kwargs):
        raise AssertionError("ran before the output file was checked")

    for runner in ("_batch_worker", "run_cell"):
        monkeypatch.setattr(harness, runner, never)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where the CSV file goes
    command, *flags = argv
    assert cli.main([command, config_path, *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {out / name}: ")
    assert captured.out == ""


def test_output_file_that_access_refuses_is_a_config_error(
    config_path, tmp_path, capsys, monkeypatch
):
    # os.access stands in for a read-only file, which root could still write
    monkeypatch.setattr(harness.os, "access", lambda path, mode: False)
    existing = tmp_path / "sweep.csv"
    existing.write_text("kept\n")
    assert cli.main(["sweep", config_path, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {existing}: ")
    assert captured.out == ""
    assert existing.read_text() == "kept\n"


def test_unusable_out_is_a_config_error(config_path, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert cli.main(["sweep", config_path, "--out", str(blocker / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_internal_error_exits_three(config_path, monkeypatch):
    # a DimensionMismatchError is a ValueError, but a fault of the program, not of the config
    for err in (RuntimeError("induced"), DimensionMismatchError("induced")):

        def boom(*args, err=err, **kwargs):
            raise err

        monkeypatch.setattr(cli, "run_sweep", boom)
        assert cli.main(["sweep", config_path]) == 3


# a td_* cell whose reward scale is finite but too large for its window
HUGE_SCALE_TD = """
domain = random_mrp
algorithm = td_implicit
alpha0_grid = 0.5
total_steps = 100
eval_window = 10
n_seeds = 1
mrp_reward_scale = {scale}
"""


@pytest.mark.parametrize(
    "config_text",
    [
        CONFIG.replace("alpha0_grid = 0.5", "alpha0_grid = inf"),
        CONFIG.replace("alpha0_grid = 0.5", "alpha0_grid = 0.5, 1e400"),
        "domain = random_mrp\nalgorithm = td_implicit\nmrp_reward_scale = nan\n",
        "domain = random_mrp\nalgorithm = td_implicit\nmrp_reward_scale = inf\n",
        CONFIG.replace("sarsa_implicit", "sarsa_semi"),
        CONFIG.replace("total_steps = 120", "total_steps = 0"),
        CONFIG + "lambda = 1.5\n",
        CONFIG + "epsilon = -0.1\n",
        CONFIG + "fourier_order = -1\n",
        "domain = random_mrp\nalgorithm = td_implicit\nmrp_states = 1\n",
        CONFIG.replace("alpha0_grid = 0.5", "alpha0_grid = 1, x"),
        CONFIG.replace("alpha0_grid = 0.5", "alpha0_grid = 0.5, 0.5, 5e-1"),
        "domain = random_mrp\nalgorithm = td_implicit\nalpha0_grid = 0.5, 0.5, 5e-1\n",
        # finite, but numpy's uniform range 2|s| overflows (1e308), or the
        # window mean of the rewards does (8e307)
        HUGE_SCALE_TD.format(scale="1e308"),
        HUGE_SCALE_TD.format(scale="8e307"),
    ],
    ids=[
        "alpha0_inf", "alpha0_1e400", "reward_scale_nan", "reward_scale_inf",
        "unknown_algorithm", "total_steps_0", "lambda_1.5", "epsilon_negative",
        "fourier_order_negative", "mrp_states_1", "alpha0_not_a_number",
        "alpha0_repeated_sarsa", "alpha0_repeated_td", "reward_scale_1e308",
        "reward_scale_8e307",
    ],
)
def test_non_finite_config_value_exits_two_before_any_cell(config_text, tmp_path, monkeypatch):
    # run_cell runs a sarsa_* cell; a td_* sweep runs its cells through _evaluate_rows
    cells = []
    monkeypatch.setattr(harness, "run_cell", lambda *args: cells.append(args))
    monkeypatch.setattr(harness, "_evaluate_rows", lambda *args, **kwargs: cells.append(args))
    path = tmp_path / "run.cfg"
    path.write_text(config_text)
    assert cli.main(["sweep", str(path), "--out", str(tmp_path)]) == 2
    assert cells == []
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("scale", ["1e308", "8e307"])
def test_reward_scale_too_large_for_the_window_is_a_config_error_for_cell(
    scale, tmp_path, capsys
):
    # refused before the cell runs, so not even the CSV header is printed
    path = tmp_path / "run.cfg"
    path.write_text(HUGE_SCALE_TD.format(scale=scale))
    assert cli.main(["cell", str(path), "--alpha", "0.5", "--seed-index", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--alpha", "0.5", "--seed-index", "-1"],
        ["cell", "--alpha", "0.5", "--seed-index", "-1"],
        ["audit", "--alpha", "inf"],
        ["cell", "--alpha", "inf", "--seed-index", "0"],
        ["sweep", "--parallelism", "0"],
        ["audit", "--alpha", "0.5", "--sample-every", "0"],
        ["cell", "--alpha", "0.5", "--seed-index", str(2**64)],
        ["audit", "--alpha", "0.5", "--seed-index", str(2**64)],
    ],
)
def test_bad_seed_or_alpha_flag_is_a_config_error(argv, config_path, in_tmp_path):
    command, *flags = argv
    assert cli.main([command, config_path, *flags]) == 2
    assert list(in_tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--seed", "5"],
        ["audit", "--alpha", "0.5", "--seed", "5"],
        ["cell", "--alpha", "0.5", "--out", "d"],
        ["cell", "--alpha", "0.5", "--seed", "0"],
        ["audit", "--alpha", "0.5", "--sample-e", "1"],
        ["sweep", "--par", "1"],
    ],
    ids=["sweep_seed", "audit_seed", "cell_out", "cell_seed", "audit_prefix", "sweep_prefix"],
)
def test_removed_or_abbreviated_flag_exits_two_and_writes_nothing(
    argv, config_path, in_tmp_path, capsys
):
    # base_seed comes from the config only, a cell's row from its stdout; a
    # prefix of a flag, such as --seed for --seed-index, is never accepted
    command, *flags = argv
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, config_path, *flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""
    assert list(in_tmp_path.rglob("*.csv")) == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--gamma", "1.5"],
        ["--lam", "-0.1"],
        ["--states", "1"],
        ["--steps", "0"],
        ["--tol", "nan"],
        ["--tol", "0"],
        ["--tol", "-0.02"],
        ["--tol", "inf"],
        ["--seed", "-1"],
        ["--seed", str(2**64)],
    ],
)
def test_fixed_point_bad_flag_is_a_config_error(flags):
    assert cli.main(["fixed-point", *flags]) == 2


# each fixed-point argument's values at the ends of its range (within) and
# just past them (beyond); None is --tol left out
_FIXED_POINT_VALUES = {
    "states": (st.integers(2, 6), st.integers(-1, 1)),
    "steps": (st.integers(1, 2_000), st.integers(-1, 0)),
    "tol": (
        st.sampled_from([None, 5e-324, 0.02, 1e300]),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -0.02]),
    ),
    "seed": (
        st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        st.sampled_from([-1, 2**64, 2**64 + 1]) | st.integers(max_value=-1)
        | st.integers(min_value=2**64),
    ),
    "gamma": (
        st.sampled_from([5e-324, 0.8, math.nextafter(1.0, 0.0)]),
        st.sampled_from([0.0, -5e-324, 1.0, math.nextafter(1.0, 2.0), math.nan]),
    ),
    "lam": (
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([-5e-324, math.nextafter(1.0, 2.0), math.nan]),
    ),
}


@st.composite
def fixed_point_arguments(draw):
    """(states, steps, tol, seed, gamma, lam), most within their ranges and a
    drawn few (often none) just past them, so both outcomes are drawn."""
    beyond = draw(st.sets(st.sampled_from(sorted(_FIXED_POINT_VALUES)), max_size=2))
    return tuple(draw(values[name in beyond]) for name, values in _FIXED_POINT_VALUES.items())


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(fixed_point_arguments())
def test_fixed_point_flags_and_api_agree(args):
    # the subcommand refuses exactly what DiscountSpec and fixed_point_check
    # refuse, and otherwise prints the report the function returns
    states, steps, tol, seed, gamma, lam = args
    try:
        report = fixed_point_check(states, seed, DiscountSpec(gamma, lam), steps, tol)
    except ValueError:  # ConfigError from fixed_point_check, ValueError from DiscountSpec
        report = None
    argv = ["fixed-point", f"--states={states}", f"--steps={steps}", f"--seed={seed}",
            f"--gamma={gamma!r}", f"--lam={lam!r}"]
    if tol is not None:
        argv.append(f"--tol={tol!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if report is None:
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
    else:
        assert code == 0, err.getvalue()
        assert out.getvalue() == (
            f"w_star: {','.join(map(repr, report.w_star.tolist()))}\n"
            f"standard: err={report.err_standard!r} steps={report.steps_standard}\n"
            f"implicit: err={report.err_implicit!r} steps={report.steps_implicit}\n"
        )


def test_fixed_point_prints_w_star_exactly(monkeypatch, capsys):
    # past 1000 entries, and with 17 significant digits, every entry of
    # w_star reads back bit for bit
    w_star = np.random.default_rng(0).standard_normal(1001)
    w_star[:3] = [0.1 + 0.2, -0.0, 5e-324]
    report = FixedPointReport(w_star, 0.1 + 0.2, 0.0, 1000, 1000)
    monkeypatch.setattr(cli, "fixed_point_check", lambda *args, **kwargs: report)
    assert cli.main(["fixed-point"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("w_star: ")
    printed = np.array([float(v) for v in line.removeprefix("w_star: ").split(",")])
    assert printed.view(np.uint64).tolist() == w_star.view(np.uint64).tolist()


def test_env_var_sets_output_directory(config_path, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("IMPLICIT_TD_OUT", str(target))
    assert cli.main(["sweep", config_path]) == 0
    assert (target / "sweep.csv").exists()


def test_cell_prints_header_and_row(config_path, capsys):
    code = cli.main(["cell", config_path, "--alpha", "0.5", "--seed-index", "0"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == SWEEP_HEADER
    assert out[1].startswith("cart_pole,sarsa_implicit,0.5,0,")


def test_cell_out_writes_the_sweep_row(tmp_path, capsys):
    # a cell's stdout is the header plus the row run_sweep writes for that cell
    path = tmp_path / "two_seeds.cfg"
    path.write_text(CONFIG.replace("n_seeds = 1", "n_seeds = 2"))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.main(["cell", str(path), "--alpha", "0.5", "--seed-index", "1"]) == 0
    header, _, row = (tmp_path / "sweep.csv").read_bytes().splitlines(keepends=True)
    assert row.startswith(b"cart_pole,sarsa_implicit,0.5,1,")
    assert capsys.readouterr().out.encode() == header + row


def test_audit_subcommand_writes_csv(config_path, tmp_path):
    code = cli.main(
        [
            "audit",
            config_path,
            "--alpha",
            "0.5",
            "--sample-every",
            "30",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "audit.csv").read_text().count("\n") >= 2


def _audit_config(tmp_path, domain):
    path = tmp_path / f"{domain}.cfg"
    path.write_text(
        f"domain = {domain}\nalgorithm = sarsa_implicit\nalpha0_grid = 0.5\n"
        "total_steps = 50\neval_window = 25\nn_seeds = 1\n"
    )
    return str(path)


@pytest.mark.parametrize("alpha", ["1e160", "1e308"])
@pytest.mark.parametrize("domain", ["cart_pole", "puddle_world"])
def test_audit_that_overflows_float64_is_a_config_error(domain, alpha, tmp_path, capsys):
    # the standard pair's alpha^2 |e|^2 |d|^2 overflows (at 1e308 the
    # discriminant is inf - inf); the whole cell runs before the CSV refuses,
    # and the output directory is not made
    out = tmp_path / "out"
    argv = ["audit", _audit_config(tmp_path, domain), "--alpha", alpha, "--sample-every", "1"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha0 ") and "overflow" in err
    assert not out.exists()


def test_audit_at_a_large_alpha_that_stays_finite_writes_csv(tmp_path):
    out = tmp_path / "out"
    argv = ["audit", _audit_config(tmp_path, "cart_pole"), "--alpha", "1e150"]
    assert cli.main([*argv, "--sample-every", "1", "--out", str(out)]) == 0
    assert (out / "audit.csv").read_text().count("\n") >= 2


def test_fixed_point_subcommand(capsys):
    code = cli.main(
        ["fixed-point", "--states", "3", "--steps", "5000", "--gamma", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "standard" in out and "implicit" in out


# float values at and next to the ends of each key's range, where overflow and
# underflow start; drawn alongside values from the whole range
_FLOAT_MAX = sys.float_info.max
_EDGE_SCALES = [_FLOAT_MAX, -_FLOAT_MAX, 1e308, 8e307, 1e300, 5e-324, 0.0, -0.0]
_EDGE_ALPHAS = [5e-324, 2.2250738585072014e-308, 1.0, 1e300, 1e308]
_EDGE_GAMMAS = [5e-324, 1e-300, math.nextafter(1.0, 0.0), 1.0 - 1e-12]
# td_* algorithms run on random_mrp only, sarsa_* ones on the control domains
_RUNNABLE_PAIRS = [
    (domain, algorithm)
    for domain in DOMAINS
    for algorithm in ALGORITHMS
    if (domain == "random_mrp") == algorithm.startswith("td_")
]


@st.composite
def config_texts(draw):
    """A config text, the cell's alpha0 and seed index. The keys stay inside
    their checks or step just outside them, so both outcomes are drawn."""
    domain, algorithm = draw(
        st.sampled_from(_RUNNABLE_PAIRS)
        | st.tuples(st.sampled_from(DOMAINS), st.sampled_from(ALGORITHMS))
    )
    total_steps = draw(st.integers(0, 60))
    alpha = draw(st.sampled_from(_EDGE_ALPHAS) | st.floats(5e-324, 1e308))
    values = {
        "domain": domain,
        "algorithm": algorithm,
        "alpha0_grid": repr(alpha),
        "total_steps": total_steps,
        "eval_window": draw(st.integers(0, total_steps + 1)),
        "fourier_order": draw(st.integers(0, 3)),
        "mrp_states": draw(st.integers(2, 6)),
        "mrp_reward_scale": repr(draw(
            st.sampled_from(_EDGE_SCALES)
            | st.floats(-_FLOAT_MAX, _FLOAT_MAX, allow_nan=False, allow_infinity=False)
        )),
        "gamma": repr(draw(st.sampled_from(_EDGE_GAMMAS) | st.floats(0.0, 1.0))),
        "lambda": repr(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))),
        "epsilon": repr(draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))),
        "base_seed": draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)),
    }
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    return text, alpha, draw(st.integers(0, 3))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(config_texts())
def test_a_config_is_run_or_refused_and_never_exits_three(tmp_path_factory, drawn):
    # a config the parser accepts runs to a row of finite floats; one it
    # refuses is a configuration error before any cell runs
    text, alpha, seed_idx = drawn
    try:
        parse_config_text(text)
        accepted = True
    except ConfigError:
        accepted = False
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(
            ["cell", str(path), "--alpha", repr(alpha), "--seed-index", str(seed_idx)]
        )
    assert code == (0 if accepted else 2), err.getvalue()
    if accepted:
        header, row = out.getvalue().splitlines()
        assert header == SWEEP_HEADER
        named = dict(zip(header.split(","), row.split(",")))
        for name in ("alpha0", "final_avg_reward", "max_weight_norm"):
            assert math.isfinite(float(named[name]))
    else:
        assert out.getvalue() == ""


# --- every subcommand's exit contract

# each end of a flag's range, then just past it; a cell runs at most 60
# steps, so --sample-every=61 audits none of them
_SEED_INDICES = [0, 2**64 - 1, -1, 2**64]
_SAMPLE_EVERY = [1, 2, 61, 0, -1]
# a runnable 50-step cell, for the refusals that must always be tried
_SHORT_CELL = CONFIG.replace(
    "total_steps = 120\neval_window = 60", "total_steps = 50\neval_window = 50"
)


@st.composite
def subcommand_arguments(draw):
    """A subcommand and its arguments: a config text from config_texts for
    sweep, audit and cell, fixed_point_arguments for fixed-point, and the
    other flags drawn inside or just outside their ranges."""
    command = draw(st.sampled_from(["sweep", "audit", "cell", "fixed-point"]))
    if command == "fixed-point":
        return command, draw(fixed_point_arguments())
    text, alpha, _ = draw(config_texts())
    if command == "sweep":
        return command, (text, draw(st.integers(-1, 2)))
    if draw(st.integers(0, 3)) == 0:  # an alpha0 outside (0, inf)
        alpha = draw(st.sampled_from([0.0, -0.5, math.inf, math.nan]))
    seed_idx = draw(st.sampled_from(_SEED_INDICES) | st.integers(0, 3))
    if command == "cell":
        return command, (text, alpha, seed_idx)
    return command, (text, alpha, seed_idx, draw(st.sampled_from(_SAMPLE_EVERY)))


def _assert_parses_back(line, values):
    # a CSV row or a printed list: every float reads back bit for bit
    fields = line.split(",")
    assert len(fields) == len(values), line
    for text, value in zip(fields, values):
        if isinstance(value, float):
            assert float_bits(float(text)) == float_bits(value), (text, value)


def _run_in(work, argv):
    """main(argv) run in the directory work with IMPLICIT_TD_OUT unset:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with mock.patch.dict(os.environ):
        os.environ.pop("IMPLICIT_TD_OUT", None)
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(subcommand_arguments())
# refusals that come only after the output directory is named: of a flag,
# of the cell's arguments, and at 1e308 of audit values the whole cell made
@example(drawn=("sweep", (_SHORT_CELL, 0)))
@example(drawn=("audit", (_SHORT_CELL, math.inf, 0, 1)))
@example(drawn=("audit", (_SHORT_CELL, 0.5, 0, 0)))
@example(drawn=("audit", (_SHORT_CELL, 0.5, -1, 1)))
@example(drawn=("audit", (_SHORT_CELL, 1e308, 0, 1)))
def test_every_subcommand_writes_what_the_api_returns_or_exits_two_leaving_nothing(
    tmp_path_factory, drawn
):
    # a run the Python API refuses exits 2, prints nothing to stdout and
    # creates nothing; any other exits 0, and its outputs are the API's
    command, args = drawn
    api_dir, work = tmp_path_factory.mktemp("api"), tmp_path_factory.mktemp("work")
    if command == "fixed-point":
        states, steps, tol, seed, gamma, lam = args
        argv = ["fixed-point", f"--states={states}", f"--steps={steps}", f"--seed={seed}",
                f"--gamma={gamma!r}", f"--lam={lam!r}"]
        if tol is not None:
            argv.append(f"--tol={tol!r}")
    else:
        config_path = api_dir / "run.cfg"
        config_path.write_text(args[0])
        argv = [command, str(config_path)]
        if command == "sweep":
            argv.append(f"--parallelism={args[1]}")
        else:
            argv += [f"--alpha={args[1]!r}", f"--seed-index={args[2]}"]
        if command == "audit":
            argv.append(f"--sample-every={args[3]}")
        if command in ("sweep", "audit"):
            argv += ["--out", os.path.join("fresh", "deep")]
    # the API's run of the same arguments: its stdout lines and their values,
    # and its CSV with its rows' values; None if it refuses
    csv_name = f"{command}.csv"
    try:
        if command == "fixed-point":
            report = fixed_point_check(states, seed, DiscountSpec(gamma, lam), steps, tol)
            printed = [
                ("w_star: ", report.w_star.tolist()),
                ("standard: ", [report.err_standard, report.steps_standard]),
                ("implicit: ", [report.err_implicit, report.steps_implicit]),
            ]
            csv_rows = None
        else:
            config = parse_config_text(args[0])
            api_csv = api_dir / csv_name
            if command == "sweep":
                results = run_sweep(config, args[1], out_path=api_csv)
                csv_rows = [dataclasses.astuple(r) for r in results]
                n_diverged = sum(r.diverged for r in results)
                printed = f"({len(results)} rows, {n_diverged} diverged)"
            elif command == "audit":
                result, rows = stability_audit_run(config, *args[1:], out_path=api_csv)
                csv_rows = [(step, *dataclasses.astuple(report)) for step, report in rows]
                printed = f"({len(rows)} rows, diverged={str(result.diverged).lower()})"
            else:
                row = run_cell(config, args[1], args[2])
                printed = [("", dataclasses.astuple(row))]
                csv_rows = None
    except ValueError:  # ConfigError, or ValueError from DiscountSpec
        printed = None
    code, out, err = _run_in(work, argv)
    created = sorted(p.relative_to(work).as_posix() for p in work.rglob("*"))
    if printed is None:
        assert (code, out, created) == (2, "", []), err
        return
    assert code == 0, err
    if csv_rows is None:
        assert created == []
        lines = out.splitlines()
        if command == "cell":
            assert lines.pop(0) == SWEEP_HEADER
        assert len(lines) == len(printed)
        for line, (prefix, values) in zip(lines, printed):
            assert line.startswith(prefix)
            fields = line.removeprefix(prefix).replace(" steps=", ",")
            _assert_parses_back(fields.removeprefix("err="), values)
    else:
        written = work / "fresh" / "deep" / csv_name
        assert created == ["fresh", "fresh/deep", f"fresh/deep/{csv_name}"]
        assert out == f"wrote {written.relative_to(work)} {printed}\n"
        assert written.read_bytes() == api_csv.read_bytes()
        _, *lines = written.read_text().splitlines()
        assert len(lines) == len(csv_rows)
        for line, values in zip(lines, csv_rows):
            _assert_parses_back(line, values)
