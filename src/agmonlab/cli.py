"""Command-line entry point for configured experiment runs.

``agmonlab run <config.json>`` executes every experiment kind named in the
configuration, writes one CSV, one JSON summary, and one SVG per kind into
the output directory, and exits nonzero iff any verdict fails (exit 1) or
the configuration/run is invalid (exit 2).
"""

from __future__ import annotations

import argparse
import sys

from agmonlab.experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentError,
    load_config,
    parse_config,
    run_experiment,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agmonlab",
        description="numerical experiments on weighted traces of "
        "semiclassical boundary extensions",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser(
        "run", help="run the experiments named in a JSON configuration"
    )
    run_parser.add_argument("config", help="path to the JSON configuration file")
    run_parser.add_argument(
        "--out", default=None, help="output directory (overrides the config key)"
    )
    run_parser.add_argument(
        "--only",
        default=None,
        choices=EXPERIMENT_KINDS,
        help="run only this experiment kind from the config",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed override echoed in each summary's config block",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, help="concurrent sweep points (default 1)"
    )
    run_parser.add_argument(
        "--verbose", action="store_true", help="print every verdict line"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = load_config(args.config)
        configs = parse_config(payload, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        for name in sorted(exc.field_errors):
            print(f"config error: {name}: {exc.field_errors[name]}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("config error: jobs: must be at least 1", file=sys.stderr)
        return 2
    if args.only is not None:
        configs = tuple(c for c in configs if c.kind == args.only)
        if not configs:
            print(
                f"config error: only: kind {args.only!r} does not appear "
                "in the configuration",
                file=sys.stderr,
            )
            return 2

    any_failed = False
    for config in configs:
        try:
            result = run_experiment(config, jobs=args.jobs)
        except ExperimentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        verdicts = [v for rec in result.records for v in rec.verdicts]
        n_pass = sum(v.passed for v in verdicts)
        print(
            f"{config.kind}: {n_pass}/{len(verdicts)} verdicts passed -> "
            f"{result.csv_path} {result.summary_path} "
            + " ".join(str(p) for p in result.plot_paths)
        )
        for rec in result.records:
            for verdict in rec.verdicts:
                if args.verbose or not verdict.passed:
                    mark = "PASS" if verdict.passed else "FAIL"
                    print(
                        f"  [{mark}] {rec.key} {verdict.name}: "
                        f"margin={verdict.margin:.6g} "
                        f"tolerance={verdict.tolerance:g}"
                    )
        any_failed = any_failed or not result.passed
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
