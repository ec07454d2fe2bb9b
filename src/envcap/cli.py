"""Command-line front end.

Usage::

    envcap <experiment> [--grid N] [--tol X] [--params a,b,c]
           [--out PATH] [--format csv|json] [--no-timestamp] [--config FILE]
    envcap locate <a1|eh_swap> [--bracket LO HI] [--tol X] [--grid N] ...

Experiments write a CSV table (or one JSON object per row) that is
byte-identical across runs for identical configuration; the timestamp
metadata line is suppressed by ``--no-timestamp``.  Gate angles given
through ``--params`` are in units of pi.  A flag or config key that the
chosen command does not read is a configuration error.

Exit codes: 0 success, 2 bad configuration, 3 output I/O failure,
4 numerical precondition failure (e.g. a same-sign bisection bracket).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from . import __version__
from .capacity import BracketError
from .experiments import COMMANDS, EXPERIMENTS, ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):  # numpy integers print as Python's already
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.16e}"
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
    memo = {}

    def cell(x) -> str:
        # each distinct value once; in the key, the type tells True, 1 and 1.0 apart,
        # and a zero's text tells -0.0 from 0.0
        key = (type(x), x, x == 0 and str(x))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _format_value(x)
        return text

    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows) -> str:
    return "\n".join(json.dumps({key: x if isinstance(x, (bool, int, float)) else _json_value(x)
                                 for key, x in zip(header, row)}, sort_keys=True)
                      for row in rows) + "\n"


def _json_value(x):
    """numpy bools and integers as Python's, so that JSON holds them as such; other
    values as text."""
    return x.item() if isinstance(x, (np.bool_, np.integer)) else str(x)


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def build_parser() -> argparse.ArgumentParser:
    # each dest names the config field its flag sets; flags not given are absent
    p = argparse.ArgumentParser(prog="envcap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter,
                                argument_default=argparse.SUPPRESS)
    p.add_argument("command", choices=list(EXPERIMENTS) + ["locate"],
                   help="experiment name, or 'locate' for zero crossings")
    p.add_argument("target", nargs="?", default=None,
                   help="curve for 'locate' (a1 or eh_swap)")
    p.add_argument("--grid", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--params", type=_floats,
                   help="comma-separated reals; gate angles in units of pi")
    p.add_argument("--out", dest="output_path", help="output path (default stdout)")
    p.add_argument("--bracket", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    return p


def _merge_config(args) -> ExperimentConfig:
    """The config file's fields, overridden by the flags given.  A field
    the chosen command does not read is an error."""
    flags = dict(vars(args))
    command, target = flags.pop("command"), flags.pop("target")
    fields = {}
    if "config" in flags:
        with open(flags.pop("config"), "r", encoding="utf-8") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError("config file must contain a JSON object")
    fields.update(flags)
    if command == "locate":
        command = f"locate {target or fields.get('experiment')}"
    elif target is not None:
        raise ValueError(f"only locate takes a target, not {command}")
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    fields["experiment"] = command
    unread = set(fields) - COMMANDS[command].reads - {"experiment"}
    if unread:
        raise ValueError(f"{command} does not read {', '.join(sorted(unread))}")
    return ExperimentConfig(**fields)


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"envcap: bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        result = run_experiment(cfg)
        if args.command == "locate":
            print(f"{result:.6f}")
            return EXIT_OK
        header, rows = result
        _emit(cfg, _rows_to_json(header, rows) if cfg.format == "json"
              else _rows_to_csv(cfg, header, rows))
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
