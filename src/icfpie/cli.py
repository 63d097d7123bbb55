"""Command-line interface.

    icfpie simulate [--config FILE] [--case {1,2,identity}]
                    [--consensus-steps L] [--sweep 1..20] [--runs N]
                    [--seed S] [--out DIR] [--jobs J]

With --sweep the final-error-vs-L table is produced (sweep.csv);
otherwise a Monte-Carlo-averaged error time series (timeseries.csv).
Every run also writes metadata.json, which can be passed back through
--config to reproduce the outputs byte for byte.

Exit codes: 0 success, 2 configuration error (outputs that cannot be
written included), 3 numerical failure threshold exceeded.
"""

import argparse
import dataclasses
import os
import sys
import warnings

from .errors import (
    ConfigurationError,
    ConsensusCycleWarning,
    DegenerateHeadingWarning,
    FilterNumericsError,
    PlacementError,
)
from .harness import (
    ScenarioConfig,
    emit_outputs,
    load_config,
    run_monte_carlo,
    selection_for_case,
    sweep_consensus_steps,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def parse_sweep(spec: str) -> list:
    """Parse an L grid: 'A..B' (inclusive range) or comma-separated values."""
    spec = spec.strip()
    lo, dots, hi = spec.partition("..")
    try:
        values = (list(range(int(lo), int(hi) + 1)) if dots
                  else [int(v) for v in spec.split(",") if v.strip()])
    except ValueError:  # a part that is not an integer
        values = []
    if not values or any(v < 1 for v in values):
        raise ConfigurationError(f"invalid sweep spec {spec!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icfpie")
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run the tracking study")
    sim.add_argument("--config", help="config file (key=value) or metadata.json")
    sim.add_argument("--case", choices=["1", "2", "identity"],
                     help="entry-selection case for the partial-exchange filter")
    sim.add_argument("--consensus-steps", type=int, metavar="L",
                     help="consensus steps per timestep")
    sim.add_argument("--sweep", metavar="SPEC",
                     help="L grid, e.g. 1..20 or 2,4,8; emits sweep.csv")
    sim.add_argument("--runs", type=int, metavar="N", help="Monte-Carlo runs")
    sim.add_argument("--seed", type=int, metavar="S", help="master seed")
    sim.add_argument("--out", default="out", metavar="DIR", help="output directory")
    sim.add_argument("--jobs", type=int, default=1, metavar="J",
                     help="parallel worker processes for Monte-Carlo runs")
    return parser


def _configure(args) -> tuple:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
    # the outputs are written only after every run, so a path that can never
    # become a directory is refused now; the directory itself is made then
    existing = os.path.abspath(args.out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigurationError(f"--out {args.out}: {existing} exists and is not a directory")
    cfg = ScenarioConfig()
    extra = {}
    if args.config:
        cfg, extra = load_config(args.config)
    overrides = {}
    if args.case is not None:
        overrides["selection"] = selection_for_case(args.case)
    if args.consensus_steps is not None:
        overrides["L"] = args.consensus_steps
    if args.runs is not None:
        overrides["mc_runs"] = args.runs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    sweep_values = None
    if args.sweep:
        sweep_values = parse_sweep(args.sweep)
    elif extra.get("mode") == "sweep":
        sweep_values = extra["L_values"]
    for name in ("timeseries.csv" if sweep_values is None else "sweep.csv", "metadata.json"):
        path = os.path.join(args.out, name)
        if os.path.isdir(path):
            raise ConfigurationError(f"--out {args.out}: {path} is a directory")
    return cfg, sweep_values


def simulate(args) -> int:
    try:
        cfg, sweep_values = _configure(args)
    except (ConfigurationError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if sweep_values is not None:
            result = sweep_consensus_steps(cfg, sweep_values, jobs=args.jobs)
            summary = (f"sweep over L={result.L_values} done "
                       f"({result.n_runs} runs, {result.failures} failures)")
        else:
            result = run_monte_carlo(cfg, cfg.L, jobs=args.jobs)
            finals = ", ".join(f"{k}={v:.3f}" for k, v in result.final_mean.items())
            summary = (f"L={cfg.L}, {result.n_runs} runs, {result.failures} failures; "
                       f"final error norms: {finals}")
    except (ConfigurationError, PlacementError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FilterNumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    try:
        written = emit_outputs(result, args.out, cfg)
    except OSError as exc:  # `_configure` refuses the outputs it can foresee
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _one_line(show):
    """A `warnings.showwarning` that prints each of the package's warnings
    as one line, its category and message, and passes any other to `show`.
    The default format names the package's source line that warned and
    echoes it, which tells a user of the command nothing."""
    def showwarning(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, (ConsensusCycleWarning, DegenerateHeadingWarning)):
            return show(message, category, filename, lineno, file, line)
        # one write per line, so that lines from pool workers never interleave
        (sys.stderr if file is None else file).write(f"{category.__name__}: {message}\n")
    return showwarning


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    if args.command == "simulate":
        with warnings.catch_warnings():
            warnings.showwarning = _one_line(warnings.showwarning)
            return simulate(args)
    return EXIT_CONFIG


def simulate_entry(argv=None) -> int:
    """Entry point for the bare `simulate ...` command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return main(["simulate", *argv])


if __name__ == "__main__":
    sys.exit(main())
