"""Command-line entry point.

Subcommands: evolve, heat-compare, resolvent-scan, semiclassical, fit, plot.
Configs are JSON files; --set key.path=value overrides individual fields.
Exit codes: 0 success, 2 config error or unreadable input file, 3 numerical
failure, 4 acceptance verdict failure (with --assert).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .config import config_hash, load
from .errors import ConfigError, ConvergenceError, GuidewaveError, SolveError
from .pipeline import (atomic_write, cmd_evolve, cmd_fit, cmd_heat_compare,
                       cmd_resolvent, cmd_semiclassical, read_csv)
from .svgplot import render_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT = 4

#: run command -> the pipeline function that runs a config and writes its artifacts
COMMANDS = {"evolve": cmd_evolve, "heat-compare": cmd_heat_compare,
            "resolvent-scan": cmd_resolvent, "semiclassical": cmd_semiclassical}


def _check_verdicts(fits) -> bool:
    return all(f.get("verdict", "informative") != "fail" for f in fits if isinstance(f, dict))


def _add_run_args(p):
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", default="out", help="output base directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                   help="override a config field")
    p.add_argument("--assert", dest="assert_verdicts", action="store_true",
                   help="exit 4 when any fit verdict fails")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="guidewave",
                                 description="damped wave guide laboratory")
    ap.add_argument("--version", action="version", version=f"guidewave {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        _add_run_args(sub.add_parser(name))

    fp = sub.add_parser("fit", help="fit a decay model to a series CSV column")
    fp.add_argument("csv")
    fp.add_argument("--column", required=True)
    fp.add_argument("--model", choices=("power", "exponential"), default="power")
    fp.add_argument("--window", nargs=2, type=float, default=(20.0, 500.0))
    fp.add_argument("--predicted", type=float, default=None)
    fp.add_argument("--out", default=None, help="write the JSON report here")
    fp.add_argument("--assert", dest="assert_verdicts", action="store_true")

    pp = sub.add_parser("plot", help="render series CSVs to SVG")
    pp.add_argument("csvs", nargs="+")
    pp.add_argument("--x", default="t")
    pp.add_argument("--y", action="append", default=[], help="column(s); default: all")
    pp.add_argument("--mode", choices=("loglog", "semilogy", "linear"), default="loglog")
    pp.add_argument("--fit", default=None, help="series to draw a fit line for")
    pp.add_argument("--guide-slope", type=float, default=None)
    pp.add_argument("--out-dir", default=None)
    return ap


def _run_plot(args) -> int:
    for path in args.csvs:
        data = read_csv(path)
        if args.x not in data:
            raise ConfigError(f"{path}: no x column {args.x!r}")
        ys = args.y or [c for c in data if c != args.x]
        missing = [c for c in ys if c not in data]
        if missing:
            raise ConfigError(f"{path}: missing columns {missing}")
        svg = render_plot(data[args.x], {c: data[c] for c in ys}, mode=args.mode,
                          title=os.path.basename(path), fit_series=args.fit,
                          guide_slope=args.guide_slope,
                          comments=[f"guidewave {__version__}", f"source {os.path.basename(path)}"])
        stem = os.path.splitext(os.path.basename(path))[0] + ".svg"
        out = os.path.join(args.out_dir, stem) if args.out_dir else \
            os.path.join(os.path.dirname(path) or ".", stem)
        atomic_write(out, svg)
        print(out)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            return _run_plot(args)
        if args.command == "fit":
            report = cmd_fit(args.csv, args.column, args.model, tuple(args.window),
                             args.predicted, args.out)
            print(json.dumps(report, sort_keys=True))
            if args.assert_verdicts and report["verdict"] == "fail":
                return EXIT_VERDICT
            return EXIT_OK

        cfg = load(args.config, args.set)
        out = COMMANDS[args.command](cfg, args.out)
        print(json.dumps({"outdir": out["outdir"], "config_hash": config_hash(cfg)},
                         sort_keys=True))
        if args.assert_verdicts and not _check_verdicts(out.get("fits", [])):
            return EXIT_VERDICT
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolveError, ConvergenceError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GuidewaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
