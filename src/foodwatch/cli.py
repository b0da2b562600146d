"""Command line interface.

Subcommands are the pipeline stages, in run order; ``run`` executes all of
them, the same stage code, against one artifact directory. Configuration
comes from an optional flat key-value file plus repeatable ``--set
key=value`` overrides (flags win). Exit codes: 0 success, 1 usage error,
2 data/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .config import RunConfig, apply_overrides, config_lines, parse_config_file
from .errors import DataError, FoodwatchError, NumericalError, UsageError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we map usage to 1
        raise UsageError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key-value config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    p.add_argument("--days", type=int, help="shorthand for --set days=N")


def build_parser() -> _Parser:
    parser = _Parser(prog="foodwatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    commands = [(stage.command, stage.help) for stage in pipeline.STAGES]
    for name, helptext in commands + [("run", "all stages end to end")]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        p.add_argument("--out", type=Path, required=True, help="artifact directory")

    p = sub.add_parser("config-keys", help="print every known config key with defaults")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config = parse_config_file(args.config, base=config)
    overrides = list(getattr(args, "overrides", []))
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    if getattr(args, "days", None) is not None:
        overrides.append(f"days={args.days}")
    return apply_overrides(config, overrides)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "config-keys":
            print("\n".join(config_lines(RunConfig())))
            return EXIT_OK
        config = load_config(args)
        if args.command == "run":
            manifest = pipeline.run_pipeline(config, args.out)
            print(f"run complete: {len(manifest['files'])} artifacts in {args.out}")
        else:
            stage = next(s for s in pipeline.STAGES if s.command == args.command)
            text = stage(config, args.out)
            if text is not None:  # the report stage prints what it wrote
                print(text)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DataError, FoodwatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # missing or unreadable artifact files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
