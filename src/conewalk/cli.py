"""Command line entry point.

One subcommand per experiment family; each takes a JSON config whose
"experiment" field must match the subcommand.  Exit codes: 0 success,
2 config error, 3 numerical failure, 4 acceptance-threshold failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, NumericalFailureError
from .experiments import EXPERIMENTS
from .harness import (
    default_workers,
    emit_outputs,
    load_config,
    run_experiment,
    validate_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewalk",
        description="Monte Carlo experiments for radial and cone-valued random walks")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in sorted(EXPERIMENTS):
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed (u64)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CONEWALK_WORKERS or the usable CPUs)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", default="both", choices=("csv", "json", "both"),
                       help="output formats")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        if raw.get("experiment") != args.experiment:
            raise ConfigError(
                "experiment",
                f"config is for {raw.get('experiment')!r} but subcommand is "
                f"{args.experiment!r}")
        cfg, warnings = validate_config(raw)
        if args.workers is not None and args.workers < 1:
            raise ConfigError("--workers", "must be >= 1")
        workers = args.workers if args.workers is not None else default_workers()
        # the outputs go under --out: its nearest existing ancestor must be a directory
        out = Path(args.out).absolute()
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():
            raise ConfigError("--out", f"{found} exists and is not a directory")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    try:
        record = run_experiment(cfg, workers=workers, warnings=warnings)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    paths = emit_outputs(record, args.out, formats=args.format)
    for path in paths:
        print(f"wrote {path}")
    n_checks = len(record.checks)
    n_failed = sum(1 for c in record.checks if not c["pass"])
    if n_checks:
        status = "PASS" if n_failed == 0 else f"FAIL ({n_failed}/{n_checks} checks)"
        print(f"{record.name}: {status}")
    else:
        print(f"{record.name}: done")
    if n_failed:
        return EXIT_THRESHOLD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
