"""Command-line front end.

Usage::

    envcap <experiment> [--grid N] [--tol X] [--seed S] [--params a,b,c]
           [--out PATH] [--format csv|json] [--no-timestamp] [--config FILE]
    envcap locate <a1|eh_swap> [--bracket LO HI] [--tol X] [--grid N] ...

Experiments write a CSV table (or one JSON object per row) that is
byte-identical across runs for identical configuration; the timestamp
metadata line is suppressed by ``--no-timestamp``.  Gate angles given
through ``--params`` are in units of pi.

Exit codes: 0 success, 2 bad configuration, 3 output I/O failure,
4 numerical precondition failure (e.g. a same-sign bisection bracket).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import __version__
from .capacity import BracketError
from .experiments import EXPERIMENTS, LOCATE_TARGETS, ExperimentConfig, locate, run_experiment

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.16e}"
    if isinstance(x, (int,)):
        return str(x)
    s = str(x)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _rows_to_csv(cfg: ExperimentConfig, header, rows) -> str:
    lines = [f"# envcap {__version__}", f"# config: {cfg.to_json()}"]
    if not cfg.no_timestamp:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines.append(f"# generated: {stamp}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_value(x) for x in row))
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows) -> str:
    out = []
    for row in rows:
        obj = {}
        for key, x in zip(header, row):
            if isinstance(x, float):
                obj[key] = float(x)
            elif isinstance(x, (bool, int)):
                obj[key] = x
            else:
                obj[key] = str(x)
        out.append(json.dumps(obj, sort_keys=True))
    return "\n".join(out) + "\n"


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    return doc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="envcap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=list(EXPERIMENTS) + ["locate"],
                   help="experiment name, or 'locate' for zero crossings")
    p.add_argument("target", nargs="?", default=None,
                   help="curve for 'locate' (a1 or eh_swap)")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--params", type=str, default=None,
                   help="comma-separated reals; gate angles in units of pi")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--bracket", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file; explicit flags override it")
    return p


def _merge_config(args) -> ExperimentConfig:
    doc = _load_config(args.config) if args.config else {}
    experiment = args.target if args.command == "locate" else args.command
    if experiment is None:
        experiment = doc.get("experiment")
    if args.command == "locate":
        if experiment not in LOCATE_TARGETS:
            raise ValueError(f"locate target must be one of {LOCATE_TARGETS}")
    elif experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    params = doc.get("params", [])
    if args.params is not None:
        params = [float(x) for x in args.params.split(",") if x.strip()]
    bracket = doc.get("bracket")
    if args.bracket is not None:
        bracket = args.bracket
    return ExperimentConfig(
        experiment=experiment,
        grid=args.grid if args.grid is not None else doc.get("grid"),
        tol=args.tol if args.tol is not None else doc.get("tol"),
        seed=args.seed if args.seed is not None else doc.get("seed", 1234),
        params=tuple(params),
        output_path=args.out if args.out is not None else doc.get("output_path"),
        fmt=args.fmt if args.fmt is not None else doc.get("format", "csv"),
        no_timestamp=bool(args.no_timestamp or doc.get("no_timestamp", False)),
        bracket=tuple(bracket) if bracket else None,
    )


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"envcap: bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        if args.command == "locate":
            root = locate(cfg)
            print(f"{root:.6f}")
            return EXIT_OK
        header, rows = run_experiment(cfg)
        if cfg.fmt == "json":
            text = _rows_to_json(header, rows)
        else:
            text = _rows_to_csv(cfg, header, rows)
        _emit(cfg, text)
        return EXIT_OK
    except BracketError as exc:
        print(f"envcap: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"envcap: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"envcap: bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
