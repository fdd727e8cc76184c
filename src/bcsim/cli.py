"""Command-line interface: run scenarios, enumerate exact distributions, selftest."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .harness import (ConfigError, ScenarioConfig, emit_report, exact_transcript_distribution,
                      outcome_layout, outcome_strings, run_trials)
from .selftest import run_selftest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcsim",
        description="Simulate bit-commitment protocols and their coherent attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run seeded trials of a scenario")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument("--trials", type=int, default=None, help="override trial count")
    run.add_argument("--seed", type=int, default=None, help="override base seed")
    run.add_argument("--format", choices=("json", "text"), default="json")

    enum = sub.add_parser("enumerate", help="exact outcome distribution of a scenario")
    enum.add_argument("--config", required=True, help="scenario JSON file")

    sub.add_parser("selftest", help="run the full invariant suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # A closed pipe or a full disk on stdout; only output raises OSError.
        print(f"output error: {exc}", file=sys.stderr)
        _discard_stdout()
        return 3


def _run(args: argparse.Namespace) -> int:
    if args.command == "selftest":
        return 0 if run_selftest(sys.stdout) else 1

    try:
        config = ScenarioConfig.from_json_file(args.config)
        if args.command == "run":
            overrides = {k: v for k, v in (("trials", args.trials), ("seed", args.seed))
                         if v is not None}
            report = run_trials(replace(config, **overrides))
            print(emit_report(report, args.format))
            return 0
        table = outcome_strings(outcome_layout(config), exact_transcript_distribution(config))
        print(json.dumps({"config": config.to_dict(), "distribution": table},
                         sort_keys=True, indent=2))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush of
    its unwritten buffer at interpreter exit cannot fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
