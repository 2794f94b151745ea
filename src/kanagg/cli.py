"""Command-line harness.

    kanagg sweep      --dataset m.json [...] [--runs N] [--iterations N] ...
    kanagg compare    --dataset m.json [...] [--variants kan kan-avg ...]
    kanagg adherence  --dataset m.json [...] [--variants ...]

`adherence` is `compare` with one run per variant by default. A JSON file
passed via --config supplies defaults; explicit flags win. KANAGG_OUT sets
the default output directory. Each verb writes report.json, runs.jsonl (one
record per run, including any dataset warnings), summary.txt and
adherence.tsv there. Exit code is 0 only when every run completed, 1 when a
run failed, and 2 when the config, a flag value or a manifest is invalid (one
`kanagg: error: ...` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .aggregators import AGGREGATOR_NAMES
from .harness import MODES, VARIANTS, ExperimentConfig, run_experiment, write_report

DEFAULT_OUT = os.environ.get("KANAGG_OUT", "kanagg-out")


def _add_run_flags(p: argparse.ArgumentParser):
    """The run flags; each one's dest is the ExperimentConfig field it sets."""
    p.add_argument("--config", help="JSON file with ExperimentConfig defaults")
    p.add_argument("--dataset", dest="datasets", action="append", default=None,
                   metavar="MANIFEST", help="dataset manifest path (repeatable)")
    p.add_argument("--runs", type=int, default=None,
                   help="runs per (dataset, combination)")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="global seed")
    p.add_argument("--variants", nargs="+", default=None,
                   choices=sorted(VARIANTS), help="compare/adherence variants")
    p.add_argument("--aggregators", nargs="+", default=None,
                   choices=AGGREGATOR_NAMES, help="sweep aggregator subset")
    p.add_argument("--strict-replication", action="store_true", default=None,
                   help="[n_in,10,1] head, squared-error loss, no feature scaling")
    p.add_argument("--out", dest="out_dir", default=None, metavar="OUT",
                   help=f"output dir (default {DEFAULT_OUT})")
    p.add_argument("--parallelism", type=int, default=None,
                   help="worker processes (default 1)")


def _experiment_config(mode: str, args) -> ExperimentConfig:
    settings = {}
    if args.config:
        with open(args.config) as f:
            settings = json.load(f)
        if not isinstance(settings, dict):
            raise ValueError(f"config {args.config}: top level is a "
                             f"{type(settings).__name__}, not an object")
    settings.update({k: v for k, v in vars(args).items()
                     if v is not None and k not in ("command", "config")})
    settings["mode"] = mode
    settings.setdefault("out_dir", str(Path(DEFAULT_OUT) / mode))
    for key in ("datasets", "variants", "aggregators"):
        if settings.get(key) is None:
            continue
        if not isinstance(settings[key], list):   # tuple() would split a string
            raise ValueError(f"{key} must be a list, got {settings[key]!r}")
        settings[key] = tuple(settings[key])
    try:
        return ExperimentConfig(**settings)
    except TypeError as exc:    # an unknown config-file key, or no dataset
        raise ValueError(f"invalid experiment settings: {exc}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kanagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        _add_run_flags(sub.add_parser(mode))
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        config = _experiment_config(args.command, args)
        payload, records = run_experiment(config)
    except (OSError, ValueError) as exc:
        # a bad config file, flag value, manifest or output directory: one
        # line, not a traceback
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    out = write_report(payload, records, config.out_dir)
    print((out / "summary.txt").read_text(), end="")
    print(f"report written to {out}")
    failed = len(payload["failures"])
    if failed:
        print(f"{failed} run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
