"""Command-line harness.

    kanagg sweep      --dataset m.json [...] [--aggregators sum mean ...] [--runs N] ...
    kanagg compare    --dataset m.json [...] [--variants kan kan-avg ...]
    kanagg adherence  --dataset m.json [...] [--variants ...]

`adherence` is `compare` with one run per variant by default; no verb offers
the flag of the setting its mode does not plan from. A JSON file passed via
--config supplies defaults; explicit flags win. KANAGG_OUT sets the default
output directory. Each verb writes report.json, runs.jsonl (one record per
run, including any dataset warnings), summary.txt and adherence.tsv there,
then prints summary.txt, which a reader may stop (`| head`). Exit code is 0
only when every run completed, 1 when a run failed, and 2 when the config, a
flag value or a manifest is invalid (one `kanagg: error: ...` line on stderr).
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


def _add_run_flags(p: argparse.ArgumentParser, mode: str):
    """The run flags; each one's dest is the ExperimentConfig field it sets."""
    p.add_argument("--config", help="JSON file with ExperimentConfig defaults")
    p.add_argument("--dataset", dest="datasets", action="append", default=None,
                   metavar="MANIFEST", help="dataset manifest path (repeatable)")
    p.add_argument("--runs", type=int, default=None,
                   help="runs per (dataset, combination)")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="global seed")
    plans = MODES[mode].plans
    known = sorted(VARIANTS) if plans == "variants" else AGGREGATOR_NAMES
    p.add_argument(f"--{plans}", nargs="+", default=None, choices=known,
                   help=f"the {plans} a {mode} runs")
    p.add_argument("--strict-replication", action="store_true", default=None,
                   help="one output node (widths [n_in, hidden_width, 1]), "
                        "squared-error loss, no feature scaling")
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
        nulls = sorted(k for k, v in settings.items() if v is None)
        if nulls:
            raise ValueError(f"config {args.config}: keys {nulls} are null; "
                             f"leave a key out for its default")
        if settings.get("mode", mode) != mode:
            raise ValueError(f"config {args.config}: mode {settings['mode']!r} is not "
                             f"{mode!r}; the verb sets the mode")
    settings.update({k: v for k, v in vars(args).items()
                     if v is not None and k not in ("command", "config")})
    settings["mode"] = mode
    settings.setdefault("out_dir", str(Path(DEFAULT_OUT) / mode))
    for key in ("datasets", "variants", "aggregators"):
        if isinstance(settings.get(key), list):   # validate rejects any other type
            settings[key] = tuple(settings[key])
    try:
        return ExperimentConfig(**settings)
    except TypeError as exc:    # an unknown config-file key, or no dataset
        raise ValueError(f"invalid experiment settings: {exc}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kanagg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        _add_run_flags(sub.add_parser(mode), mode)
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
    try:
        print((out / "summary.txt").read_text(), end="")
        print(f"report written to {out}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped (`| head`); devnull takes the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    failed = len(payload["failures"])
    if failed:
        print(f"{failed} run(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
