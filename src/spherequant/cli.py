"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from . import hamiltonians, harness, propagate


def _load_config(args, experiment):
    if args.config:
        return harness.ExperimentConfig.from_file(args.config, experiment)
    return harness.ExperimentConfig(experiment=experiment)


def _print_presets():
    print("available Hamiltonian presets:")
    for name in sorted(hamiltonians.PRESETS):
        print(f"  {name}")


def _refuse(command, exc):
    print(f"spherequant {command}: {exc}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spherequant",
        description="quantized Hamiltonian dynamics experiments on the sphere",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="print the Hamiltonian catalog"
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("theorem1", "prop53", "defect", "distance", "toeplitz-dump"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (ExperimentConfig fields)")
        p.add_argument("--out", default="reports", help="output directory")
    args = parser.parse_args(argv)

    if args.list_presets:
        _print_presets()
        return 0
    if args.command is None:
        parser.print_help()
        return 2

    try:
        config = _load_config(args, args.command)
    except ValueError as exc:  # the message names the offending field
        return _refuse(args.command, exc)
    except OSError as exc:  # a missing file, a directory, no read permission
        return _refuse(args.command, f"cannot read config {args.config}: {exc.strerror}")
    # one directory for the report and the toeplitz-dump matrices
    out_dir = config.out or args.out
    if args.command == "theorem1":
        try:
            report = harness.run_theorem1_holomorphic(config)
        except propagate.HolomorphyError as exc:
            return _refuse(args.command, exc)
    elif args.command == "prop53":
        report = harness.run_prop53(config)
    elif args.command == "defect":
        report = harness.run_defect(config)
    elif args.command == "distance":
        report = harness.run_distance_tests(config)
    else:
        report = harness.run_toeplitz_dump(config, out_dir)

    report.write(out_dir)
    for row in report.rows:
        print("  ".join(f"{key}={value}" for key, value in row.items()))
    print(f"summary: {report.summary}")
    print(f"checks_passed: {report.checks_passed}")
    return 0 if report.checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
