"""Experiment harness: aggregator sweep and variant comparison.

`run_experiment(config)` is the one entry point. It runs every training job:
an independent job given by its coordinates alone, a RunSpec of (dataset,
run label, run index, config). `execute_run` derives the run's id, its seeds
(by hashing the coordinates together with the global seed) and its network
(from `_run_plan`, the one label -> network plan) from them, so runs are
reproducible in isolation and embarrassingly parallel. Each dataset manifest
is loaded once per experiment, and the output directory made, before any run
starts (a manifest checks itself when it is built); every run carries its
manifest and the experiment config, and materializes the dataset from them.
A dataset file's table comes from one lookup, `_file_table`, which keeps a
parsed table while the file's size and modification time are unchanged. The
process that plans an experiment keeps only its files' tables and looks each
up before any run starts; pool workers receive those tables when they start.
A run reads its file's held table, and looks it up only when none is held (a
run started on its own); it splits and preprocesses the table with its own
seed. A file that cannot be parsed fails every run of it with the same
error. Every run records the share of each hidden layer's values that stayed
in the range of the grid of the layer that reads them.

The report is a pure function of the run records, in any order, so it can be
rebuilt from stored records; it holds each fact once, and its config only the
settings the runs read. Every mode's report holds the same cells: per
(dataset, run label), the mean test accuracy and the pooled in-range shares.
A sweep adds each dataset's ranks and a (label, mean rank, std rank) row per
label, a compare its Wilcoxon tests; `adherence` is `compare` with one run
per variant by default. summary.txt is one table of those cells for every
mode, one row per run label.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import product
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .aggregators import AGGREGATOR_NAMES
from .data import Dataset, DatasetManifest, load_manifest, load_table, preprocess, \
    synthetic_dataset
from .network import build_network
from .stats import average_rank, rank_with_ties, wilcoxon_signed_rank
from .training import TrainConfig, TrainingDiverged, train

VARIANTS = {
    "kan": {"aggregator": "sum", "layer_norm": False},
    "kan-layernorm": {"aggregator": "sum", "layer_norm": True},
    "kan-avg": {"aggregator": "mean", "layer_norm": False},
}
COMBO_SEP = "|"
# each integer setting and its least value (None: any integer)
INT_SETTINGS = {"runs": 1, "iterations": 1, "batch_size": 1, "hidden_width": 1,
                "seed": None, "parallelism": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str                      # a key of MODES
    datasets: tuple                # manifest paths or DatasetManifest objects
    variants: tuple = ("kan", "kan-layernorm", "kan-avg")
    aggregators: tuple = AGGREGATOR_NAMES
    runs: int | None = None        # per (dataset, combination); mode default
    iterations: int = TrainConfig.iterations
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    hidden_width: int = 10
    seed: int = 0
    strict_replication: bool = False
    out_dir: str | None = None
    parallelism: int = 1

    def runs_per_config(self) -> int:
        return self.runs if self.runs is not None else MODES[self.mode].runs

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # settings from a JSON config file arrive with whatever type it gave
        for name, least in INT_SETTINGS.items():
            value = getattr(self, name)
            if name == "runs" and value is None:    # the mode's default
                continue
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}")
        # lr = 0 is legal: it must leave parameters bit-identical
        lr = self.learning_rate
        if not isinstance(lr, Real) or isinstance(lr, bool) or not (
                math.isfinite(lr) and lr >= 0):
            raise ValueError(f"learning_rate must be a finite number >= 0, got {lr!r}")
        if not isinstance(self.strict_replication, bool):
            raise ValueError("strict_replication must be true or false, got "
                             f"{self.strict_replication!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        for name in ("datasets", "variants", "aggregators"):   # not a lone string
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        if not self.datasets:
            raise ValueError("need at least one dataset manifest")
        bad = [d for d in self.datasets
               if not isinstance(d, (str, os.PathLike, DatasetManifest))]
        if bad:
            raise ValueError(f"datasets must be manifest paths, got {bad}")
        for name, known in (("variants", VARIANTS), ("aggregators", AGGREGATOR_NAMES)):
            # a non-string entry is unknown; testing that first never hashes a list
            unknown = [x for x in getattr(self, name)
                       if not isinstance(x, str) or x not in known]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}; choose from {sorted(known)}")
        planned = MODES[self.mode].plans
        if not getattr(self, planned):
            raise ValueError(f"{planned} is empty: a {self.mode} plans its runs from it")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary coordinates (sha256, not hash())."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


# The held tables of file-backed datasets: manifest -> ((size, mtime_ns) of
# the file when it was parsed, or None when it could not be stat'ed; its
# RawTable, or the exception that parsing it raised). `_file_table` fills it;
# the process that plans an experiment hands it to each pool worker through
# the pool's initializer.
_tables = {}


def _set_tables(tables: dict):
    global _tables
    _tables = tables


def _file_table(manifest: DatasetManifest):
    """The table of a file-backed manifest: the held one while the file's
    size and modification time are those it was parsed at, else the file
    parsed now, and held. A file that cannot be stat'ed is parsed again at
    every lookup."""
    try:
        st = os.stat(manifest.path)
        stamp = st.st_size, st.st_mtime_ns
    except OSError:        # load_table raises the IngestionError that names it
        stamp = None
    held = _tables.get(manifest)
    if held is not None and stamp is not None and held[0] == stamp:
        return held[1]
    try:
        table = load_table(manifest.path, manifest)
    except (ValueError, OSError) as exc:   # each run of it records the failure
        table = exc.with_traceback(None)   # not the parser's frames
    _tables[manifest] = (stamp, table)
    return table


def load_dataset(manifest: DatasetManifest, data_seed: int,
                 scale_features: bool = True) -> Dataset:
    """Materialize one dataset (file-backed or synthetic) for one run."""
    if manifest.synthetic is not None:
        return synthetic_dataset(seed=data_seed, scale_features=scale_features,
                                 **manifest.synthetic)
    held = _tables.get(manifest)      # a run never stats a file with a held table
    table = _file_table(manifest) if held is None else held[1]
    if isinstance(table, Exception):    # raised again by every run of the file
        raise table.with_traceback(None)
    return preprocess(table, manifest, data_seed, scale_features=scale_features)


@dataclass(frozen=True)
class RunSpec:
    """One run's coordinates, from which execute_run derives everything else
    about it; picklable for process pools."""

    manifest: DatasetManifest
    label: str                   # "agg1|agg2" combo or variant name: a key of _run_plan
    run_index: int
    config: ExperimentConfig     # seed, hidden width, training, strict replication


def execute_run(spec: RunSpec) -> dict:
    """Train one network; never raises, failures become failed records."""
    cfg, name = spec.config, spec.manifest.name
    base_seed = derive_seed(cfg.seed, name, spec.label, spec.run_index)
    aggregators, layer_norm = _run_plan(cfg)[spec.label]
    record = {
        "run_id": f"{name}{COMBO_SEP}{spec.label}{COMBO_SEP}{spec.run_index}",
        "dataset": name,
        "label": spec.label,
        "run_index": spec.run_index,
        "seed": base_seed,
        "status": "ok",
        "error": None,
    }
    try:
        data_seed = derive_seed(base_seed, "data")
        net_seed = derive_seed(base_seed, "net")
        train_seed = derive_seed(base_seed, "train")
        scale_features = not cfg.strict_replication
        data = load_dataset(spec.manifest, data_seed, scale_features=scale_features)
        record["warnings"] = data.warnings
        head_width = 1 if cfg.strict_replication else data.n_classes
        widths = (data.n_features, cfg.hidden_width, head_width)
        net = build_network(widths, aggregators, layer_norm=layer_norm, seed=net_seed)
        result = train(net, data, TrainConfig(
            iterations=cfg.iterations, batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate, seed=train_seed))
        record.update(
            vars(result),       # asdict would deep-copy the loss curve, float by float
            widths=list(widths),
            n_features=data.n_features,
            n_classes=data.n_classes,
            feature_scaling=scale_features,
            layer_norm=layer_norm,
            final_loss=result.loss_curve[-1],
        )
    except (TrainingDiverged, ValueError, OSError) as exc:
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _run_plan(config: ExperimentConfig) -> dict:
    """The runs of one dataset, label -> (aggregators per layer, layer_norm):
    every "agg1|agg2" pair of the aggregators, or the variants, as the mode
    plans (a label is a key, so an aggregator or a variant listed twice runs
    once, and a variant can be compared with itself)."""
    if MODES[config.mode].plans == "aggregators":
        return {a1 + COMBO_SEP + a2: ((a1, a2), False)
                for a1, a2 in product(config.aggregators, repeat=2)}
    return {v: ((VARIANTS[v]["aggregator"],) * 2, VARIANTS[v]["layer_norm"])
            for v in config.variants}


def _execute_all(config: ExperimentConfig):
    """Run every spec of the experiment; returns (dataset names, records)."""
    config.validate()
    # each path is loaded once; run ids and seeds derive from the name, so
    # one manifest listed twice is one dataset, two that differ under one
    # name are an error
    named = {}
    for source in config.datasets:
        m = source if isinstance(source, DatasetManifest) else load_manifest(source)
        if named.setdefault(m.name, m) != m:
            raise ValueError(f"two datasets are named {m.name!r}")
    manifests = list(named.values())
    if config.out_dir is not None:    # one that cannot be made fails before any run
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    specs = [RunSpec(m, label, i, config) for m in manifests
             for label in _run_plan(config) for i in range(config.runs_per_config())]
    # this experiment's files only, each parsed here at most once
    files = [m for m in manifests if m.synthetic is None]
    _set_tables({m: _tables[m] for m in files if m in _tables})
    for m in files:
        _file_table(m)
    # wall-clock timing stays out of the records so runs.jsonl is reproducible
    if config.parallelism > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism,
                                 initializer=_set_tables, initargs=(_tables,)) as pool:
            records = list(pool.map(execute_run, specs, chunksize=1))
    else:
        records = [execute_run(s) for s in specs]
    return [m.name for m in manifests], sorted(records, key=lambda r: r["run_id"])


def _config_payload(config: ExperimentConfig, datasets) -> dict:
    """The settings the runs read; of the two planning settings, the mode's."""
    plans = MODES[config.mode].plans
    d = {k: v for k, v in asdict(config).items() if k == plans
         or k not in ("out_dir", "parallelism", "variants", "aggregators")}
    d["datasets"] = datasets
    d["runs"] = config.runs_per_config()
    return d


# The cells and each report below are built from `runs`: dataset -> label ->
# run index -> record, over the successful runs, each label's runs in run_id
# order.

def _cells(config: ExperimentConfig, datasets, runs) -> dict:
    """The (dataset, label) cells every report holds: the test accuracy of
    each planned label on each dataset, and the pooled in-range shares of the
    datasets with a successful run, ordered by feature count."""
    labels = list(_run_plan(config))
    accuracy = {}
    for ds in datasets:
        accuracy[ds] = {}
        for label in labels:
            ok = [r["test_accuracy"] for r in runs.get(ds, {}).get(label, {}).values()]
            accuracy[ds][label] = {
                "mean": float(np.mean(ok)) if ok else None,
                "std": float(np.std(ok)) if ok else None,   # population std
                "n": len(ok),
            }
    features = {ds: r["n_features"] for ds, per_label in runs.items()
                for by_index in per_label.values() for r in by_index.values()}
    adherence = {}
    for ds in sorted(features, key=lambda ds: (features[ds], ds)):
        adherence[ds] = {"n_features": features[ds], "variants": {
            label: np.mean([r["adherence"] for r in runs[ds][label].values()],
                           axis=0).tolist()
            for label in labels if label in runs[ds]}}
    return {"datasets": datasets, "accuracy": accuracy, "adherence": adherence}


def _sweep_report(config: ExperimentConfig, cells, runs) -> dict:
    """Rank the aggregator combinations on each dataset by mean test accuracy,
    then each combination's mean and std rank over the datasets it ran on."""
    combos = list(_run_plan(config))
    datasets = cells["datasets"]
    ranks = {}
    for ds in datasets:
        scores = {c: cell["mean"] for c, cell in cells["accuracy"][ds].items()
                  if cell["mean"] is not None}
        ranks[ds] = {}
        if scores:
            ranks[ds] = dict(zip(scores, rank_with_ties(list(scores.values())).tolist()))
    means, stds = average_rank([[ranks[ds].get(c, math.nan) for ds in datasets]
                                for c in combos])
    # ties keep plan order; None: the label failed on every dataset
    rank_table = [{"label": combos[i],
                   "mean_rank": None if np.isnan(means[i]) else round(means[i], 6),
                   "std_rank": None if np.isnan(stds[i]) else round(stds[i], 6)}
                  for i in np.argsort(means, kind="stable").tolist()]
    return {"combinations": combos, "ranks": ranks, "rank_table": rank_table}


def _compare_report(config: ExperimentConfig, cells, runs) -> dict:
    """Pairwise Wilcoxon tests of the variants' test accuracies on each
    dataset; marks the winner's accuracy cell of each significant pair."""
    variants = list(config.variants)
    tests = {}
    for ds in cells["datasets"]:
        tests[ds] = {}
        for i, va in enumerate(variants):
            for vb in variants[i + 1:]:
                key = f"{va} vs {vb}"
                if key in tests[ds] or f"{vb} vs {va}" in tests[ds]:
                    continue     # a variant listed twice: each pair is tested once
                ra, rb = runs.get(ds, {}).get(va, {}), runs.get(ds, {}).get(vb, {})
                pair_idx = sorted(ra.keys() & rb.keys())   # runs paired by index
                if not pair_idx:
                    tests[ds][key] = None
                    continue
                a = [ra[k]["test_accuracy"] for k in pair_idx]
                b = [rb[k]["test_accuracy"] for k in pair_idx]
                res = wilcoxon_signed_rank(a, b)
                tests[ds][key] = {
                    "w_plus": res.w_plus, "w_minus": res.w_minus,
                    "n_effective": res.n_effective, "p_value": res.p_value,
                    "method": res.method, "degenerate": res.degenerate,
                    "significant": res.significant,
                }
                if res.significant:
                    ma, mb = float(np.mean(a)), float(np.mean(b))
                    winner, loser = (va, vb) if ma > mb else (vb, va)
                    cells["accuracy"][ds][winner].setdefault(
                        "significantly_better_than", []).append(loser)
    return {"variants": variants, "wilcoxon": tests}


def _adherence_tsv(payload) -> str:
    """adherence.tsv: one plot-data row per (dataset, run label, hidden layer);
    the `variant` column holds the label."""
    lines = ["dataset\tn_features\tvariant\tlayer\tfraction\n"]
    for ds, info in payload["adherence"].items():
        for v, fracs in info["variants"].items():
            for layer, frac in enumerate(fracs):
                lines.append(f"{ds}\t{info['n_features']}\t{v}\t{layer}\t{frac:.6f}\n")
    return "".join(lines)


# A mode is the setting it plans its run labels from (its config, config_hash
# and CLI verb carry no other), its default run count and its report fields;
# every mode's summary.txt is the same table of the cells
class Mode(NamedTuple):
    plans: str         # "aggregators" or "variants": the ExperimentConfig field
    runs: int          # default runs per (dataset, combination)
    report: Callable   # (config, cells, runs) -> its own payload fields; may mark cells


# `adherence` is `compare` with one run per variant by default
MODES = {"sweep": Mode("aggregators", 1, _sweep_report),
         "compare": Mode("variants", 20, _compare_report),
         "adherence": Mode("variants", 1, _compare_report)}


def _payload(config: ExperimentConfig, datasets, records) -> dict:
    """The report of a finished experiment from its dataset names and run
    records alone, in any order; it runs nothing."""
    records = sorted(records, key=lambda r: r["run_id"])
    runs = {}
    for r in records:
        if r["status"] == "ok":
            runs.setdefault(r["dataset"], {}).setdefault(
                r["label"], {})[r["run_index"]] = r
    cfg = _config_payload(config, datasets)
    cells = _cells(config, datasets, runs)
    fields = MODES[config.mode].report(config, cells, runs)
    return {
        "mode": config.mode,
        "config": cfg,
        "config_hash": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "failures": [r for r in records if r["status"] == "failed"],
        "n_runs": len(records),
        **cells,
        **fields,
    }


def run_experiment(config: ExperimentConfig):
    """Run the experiment `config` describes; returns (payload, records)."""
    datasets, records = _execute_all(config)
    return _payload(config, datasets, records), records


# ---------------------------------------------------------------------------
# report files

def _table(payload) -> list[str]:
    """summary.txt's table of the (dataset, label) cells: one row per run
    label (a sweep's in rank order, led by its mean rank and std), and per
    dataset the label's mean test accuracy and its in-range share per hidden
    layer."""
    header = "label".ljust(20)
    if "rank_table" in payload:
        header += f"{'mean rank':>10}{'std':>8}"
        rows = {r["label"]: [
            "-".rjust(width) if x is None else f"{x:{width}.2f}"
            for x, width in ((r["mean_rank"], 10), (r["std_rank"], 8))]
            for r in payload["rank_table"]}
    else:
        rows = {v: [] for v in payload["variants"]}
    for ds in payload["datasets"]:
        info = payload["adherence"].get(ds, {"n_features": "-", "variants": {}})
        header += ds.rjust(24) + f"in range ({info['n_features']})".rjust(18)
        for label, cells in rows.items():
            s = payload["accuracy"][ds][label]
            accuracy = "failed" if s["mean"] is None else (
                f"{100 * s['mean']:.2f}% ±{100 * s['std']:.2f}"
                + "*" * len(s.get("significantly_better_than", [])))
            fracs = info["variants"].get(label)
            cells += [accuracy.rjust(24),
                      ("/".join(f"{f:.4f}" for f in fracs) if fracs else "-").rjust(18)]
    lines = [header] + [label.ljust(20) + "".join(cells) for label, cells in rows.items()]
    if "wilcoxon" in payload:
        lines.append("(one * per label beaten with p < 0.05)")
    return lines


def summarize(payload: dict) -> str:
    lines = [f"kanagg {payload['mode']} report  (config {payload['config_hash'][:12]})"]
    if payload["failures"]:
        lines.append(f"FAILED RUNS: {len(payload['failures'])} "
                     f"(see runs.jsonl; exit code is non-zero)")
        for r in payload["failures"]:
            lines.append(f"  {r['run_id']}: {r['error']}")
    lines += _table(payload)
    return "\n".join(lines) + "\n"


def write_report(payload: dict, records, out_dir) -> Path:
    """Persist report.json (payload + timestamp header), runs.jsonl,
    summary.txt and adherence.tsv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "header": {"created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                   "tool": f"kanagg {__version__}"},
        "payload": payload,
    }
    (out / "report.json").write_text(json.dumps(doc, sort_keys=True, indent=1))
    with open(out / "runs.jsonl", "w") as f:
        for r in records:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    (out / "summary.txt").write_text(summarize(payload))
    (out / "adherence.tsv").write_text(_adherence_tsv(payload))
    return out
