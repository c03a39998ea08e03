"""Command-line entry point.

Subcommands:

  sweep <config>        run the alpha0 x seed grid, write sweep.csv
  audit <config>        run one cell with per-step stability audits, write audit.csv
  fixed-point           compare both learners against the fixed-point oracle
                        (the standard learner runs in a worker process)
  cell <config>         run a single (alpha0, seed index) cell, print the
                        sweep.csv header and its row to stdout

base_seed comes from the config file only; `cell` and `audit` pick a cell
by --alpha and --seed-index, and no flag may be abbreviated. Output
directory of sweep and audit: --out flag, else the IMPLICIT_TD_OUT
environment variable, else the working directory, made only to write the
CSV; a refused run leaves nothing behind. Exit codes: 0 success,
2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import DiscountSpec
from .harness import (
    SWEEP_HEADER,
    ConfigError,
    fixed_point_check,
    format_sweep_row,
    load_config,
    run_cell,
    run_sweep,
    stability_audit_run,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicit-td",
        description="TD(lambda) and implicit TD(lambda) experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a prefix of a flag is refused, so a removed flag is never read as another
    sweep = sub.add_parser(
        "sweep", help="run the full alpha0 x seed grid", allow_abbrev=False
    )
    sweep.add_argument("config", help="path to a key=value config file")
    sweep.add_argument("--out", help="output directory (default: $IMPLICIT_TD_OUT or .)")
    sweep.add_argument("--parallelism", type=int, default=1, help="worker processes")

    audit = sub.add_parser(
        "audit", help="audit per-step stability in one cell", allow_abbrev=False
    )
    audit.add_argument("config")
    audit.add_argument("--alpha", type=float, required=True, help="cell alpha0")
    audit.add_argument("--seed-index", type=int, default=0, help="cell seed index")
    audit.add_argument(
        "--sample-every", type=int, default=100, help="audit every Nth transition"
    )
    audit.add_argument("--out", help="output directory")

    fp = sub.add_parser(
        "fixed-point",
        help="check both learners against the fixed-point oracle",
        allow_abbrev=False,
    )
    fp.add_argument("--states", type=int, default=5, help="random chain size")
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--gamma", type=float, default=0.8)
    fp.add_argument("--lam", type=float, default=0.5)
    fp.add_argument("--steps", type=int, default=1_000_000)
    fp.add_argument(
        "--tol", type=float, default=None, help="stop early at this max-abs error"
    )

    cell = sub.add_parser(
        "cell", help="run one (alpha0, seed index) cell", allow_abbrev=False
    )
    cell.add_argument("config")
    cell.add_argument("--alpha", type=float, required=True, help="cell alpha0")
    cell.add_argument("--seed-index", type=int, default=0, help="cell seed index")
    return parser


def _out_file(flag_value: str | None, name: str) -> Path:
    return Path(flag_value or os.environ.get("IMPLICIT_TD_OUT") or ".") / name


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = _out_file(args.out, "sweep.csv")
    results = run_sweep(config, parallelism=args.parallelism, out_path=out)
    n_diverged = sum(r.diverged for r in results)
    print(f"wrote {out} ({len(results)} rows, {n_diverged} diverged)")
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out = _out_file(args.out, "audit.csv")
    result, rows = stability_audit_run(
        config, args.alpha, args.seed_index, args.sample_every, out_path=out
    )
    print(f"wrote {out} ({len(rows)} rows, diverged={str(result.diverged).lower()})")
    return EXIT_OK


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    try:
        disc = DiscountSpec(gamma=args.gamma, lam=args.lam)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    report = fixed_point_check(
        args.states, args.seed, disc, args.steps, target_tol=args.tol
    )
    print(f"w_star: {','.join(map(repr, report.w_star.tolist()))}")
    print(f"standard: err={report.err_standard!r} steps={report.steps_standard}")
    print(f"implicit: err={report.err_implicit!r} steps={report.steps_implicit}")
    return EXIT_OK


def _cmd_cell(args: argparse.Namespace) -> int:
    row = run_cell(load_config(args.config), args.alpha, args.seed_index)
    print(SWEEP_HEADER)
    print(format_sweep_row(row))
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
    "fixed-point": _cmd_fixed_point,
    "cell": _cmd_cell,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # anything else is an internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
