"""Command-line entry point: scriptable reproduction of each experiment.

Subcommands mirror the experiment modes; a JSON config file overrides the
defaults and explicit flags override the config file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ConfigError, ExperimentConfig, emit_report, run_experiment
from .patchwork import ResolutionError

_SUBCOMMAND_MODE = {
    "mix": "mix",
    "norms": "norms",
    "sweep": "lower-bound-sweep",
    "solve": "truncated-solution",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with ExperimentConfig fields")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, help="protocol seed")
    parser.add_argument("--grid", type=int, dest="grid_points", help="grid points per side")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regloss",
        description=(
            "mixing measurements, construction certificates, and norm-growth "
            "witnesses for divergence-free transport"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mix = sub.add_parser("mix", help="measure mixing decay rates of a seeded protocol")
    mix.add_argument("--steps", type=int)
    mix.add_argument("--step-duration", type=float, dest="step_duration")
    mix.add_argument("--amplitude", type=float)
    mix.add_argument("--radius", type=float, dest="datum_radius")

    norms = sub.add_parser("norms", help="tabulate fractional norms of the datum")
    norms.add_argument("--orders", type=float, nargs="+")

    certify = sub.add_parser("certify", help="emit condition certificates")
    certify.add_argument(
        "--target",
        choices=("total", "partial"),
        default="total",
        help="total: full loss under order-1 velocity bounds; "
        "partial: threshold loss under order-r bounds",
    )
    certify.add_argument("--r", type=float)
    certify.add_argument("--p", type=float)
    certify.add_argument("--sigma", type=float)
    certify.add_argument("--horizon", type=float)
    certify.add_argument("--rate-b", type=float, dest="rate_b")
    certify.add_argument("--rate-c", type=float, dest="rate_c")

    sweep = sub.add_parser("sweep", help="partial sums of the norm lower bound")
    sweep.add_argument("--order", type=float, dest="sweep_order")
    sweep.add_argument("--time", type=float, dest="sweep_time")
    sweep.add_argument("--max-terms", type=int, dest="sweep_max_terms")

    solve = sub.add_parser("solve", help="evaluate the truncated patched solution")
    solve.add_argument("--pieces", type=int)
    solve.add_argument("--times", type=float, nargs="+", dest="solve_times")

    for p in (mix, norms, certify, sweep, solve):
        _add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config: must hold a JSON object, got {type(loaded).__name__}")
        data.update(loaded)
    if args.command == "certify":
        data["mode"] = f"certify-{args.target}"
    else:
        data["mode"] = _SUBCOMMAND_MODE[args.command]
    skip = {"command", "config", "out", "target"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        data[key] = value
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bundle = run_experiment(_config_from_args(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 2
    written = emit_report(bundle, args.out)
    for line in bundle.summary:
        print(line)
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
