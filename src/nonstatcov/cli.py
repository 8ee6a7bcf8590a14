"""Command-line experiment runner.

Usage::

    nonstatcov <experiment> --config cfg.json --out results/
    nonstatcov --list-reference-configs

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config error,
3 numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .config import load_config
from .errors import ConfigError, NonstatcovError
from .experiments import EXPERIMENTS, run_experiment, write_report

EXIT_OK = 0
EXIT_VERDICT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _reference_config_dir():
    return resources.files("nonstatcov") / "reference_configs"


def list_reference_configs() -> list[str]:
    root = _reference_config_dir()
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def resolve_config_path(path: str) -> str:
    """Accept a filesystem path or the name of a bundled reference config."""
    if os.path.exists(path):
        return path
    candidate = _reference_config_dir() / path
    if candidate.is_file():
        return str(candidate)
    candidate = _reference_config_dir() / f"{path}.json"
    if candidate.is_file():
        return str(candidate)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonstatcov",
        description="Covariance-operator experiments for locally stationary "
                    "multivariate time series.")
    parser.add_argument("--list-reference-configs", action="store_true",
                        help="print the bundled reproduction configs and exit")
    sub = parser.add_subparsers(dest="experiment")
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True,
                       help="JSON config path or bundled config name")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_reference_configs:
        for name in list_reference_configs():
            print(name)
        return EXIT_OK
    if not args.experiment:
        parser.print_help()
        return EXIT_CONFIG_ERROR
    try:
        config = load_config(resolve_config_path(args.config),
                             default_experiment=args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        report = run_experiment(config)
    except NonstatcovError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    paths = write_report(report, args.out)
    for verdict in report.verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"[{status}] {verdict.name}")
    print(f"table: {paths['table']}")
    print(f"verdicts: {paths['verdicts']}")
    return EXIT_OK if report.all_passed else EXIT_VERDICT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
