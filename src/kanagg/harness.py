"""Experiment harness: aggregator sweep and variant comparison.

`run_experiment(config)` is the one entry point. It runs every training job:
an independent (dataset, combination, run-index) job with seeds derived by
hashing those coordinates together with the global seed, so runs are
reproducible in isolation and embarrassingly parallel. Each dataset manifest
is loaded once per experiment, and the output directory made, before any run
starts (a manifest checks itself when it is built); every run carries its
manifest and the experiment config, and materializes the dataset from them.
The process that plans an experiment parses each dataset file once, before
any run starts, and keeps the tables of the files of its last experiment; a
later experiment reuses a table while the manifest and the file's size and
modification time are unchanged. Pool workers receive those tables when they
start and never parse; each run splits and preprocesses its table with its
own seed. A file that cannot be parsed fails every run of it with the same
error. Every run records the share of each hidden layer's values that stayed
in the range of the grid of the layer that reads them.

The report is a pure function of the run records, in any order, so it can be
rebuilt from stored records. Every mode's report holds the same cells: per
(dataset, run label), the mean test accuracy and the pooled in-range shares.
A sweep adds its ranks and a compare its Wilcoxon tests; `adherence` is
`compare` with one run per variant by default.
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
INT_SETTINGS = ("runs", "iterations", "batch_size", "hidden_width", "seed",
                "parallelism")


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str                      # a key of MODES
    datasets: tuple                # manifest paths or DatasetManifest objects
    variants: tuple = ("kan", "kan-layernorm", "kan-avg")
    aggregators: tuple = AGGREGATOR_NAMES
    runs: int | None = None        # per (dataset, combination); mode default
    iterations: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.01
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
        for name in INT_SETTINGS:
            value = getattr(self, name)
            if name == "runs" and value is None:    # the mode's default
                continue
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        lr = self.learning_rate
        if not isinstance(lr, Real) or isinstance(lr, bool) or not math.isfinite(lr):
            raise ValueError(f"learning_rate must be a finite number, got {lr!r}")
        if not isinstance(self.strict_replication, bool):
            raise ValueError("strict_replication must be true or false, got "
                             f"{self.strict_replication!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        if not self.datasets:
            raise ValueError("need at least one dataset manifest")
        bad = [d for d in self.datasets
               if not isinstance(d, (str, os.PathLike, DatasetManifest))]
        if bad:
            raise ValueError(f"datasets must be manifest paths, got {bad}")
        if self.runs_per_config() < 1:
            raise ValueError("runs must be >= 1")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        TrainConfig(iterations=self.iterations, batch_size=self.batch_size,
                    learning_rate=self.learning_rate).validate()
        for name, known in (("variants", VARIANTS), ("aggregators", AGGREGATOR_NAMES)):
            # a non-string entry is unknown; testing that first never hashes a list
            unknown = [x for x in getattr(self, name)
                       if not isinstance(x, str) or x not in known]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}; choose from {sorted(known)}")
        planned = "aggregators" if self.mode == "sweep" else "variants"
        if not getattr(self, planned):
            raise ValueError(f"{planned} is empty: a {self.mode} plans its runs from it")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary coordinates (sha256, not hash())."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def _resolve_manifests(config: ExperimentConfig) -> list[DatasetManifest]:
    """config.datasets as manifests; each path is loaded once."""
    return [s if isinstance(s, DatasetManifest) else load_manifest(s)
            for s in config.datasets]


# The tables of the current experiment's file-backed datasets: manifest ->
# ((size, mtime_ns) of the file when it was parsed, or None when it could not
# be stat'ed; its RawTable, or the exception that parsing it raised). The
# process that plans an experiment fills it, and hands it to each pool worker
# through the pool's initializer; a run only reads it.
_tables = {}


def _set_tables(tables: dict):
    global _tables
    _tables = tables


def _file_stamp(path):
    try:
        st = os.stat(path)
    except OSError:        # load_table raises the IngestionError that names it
        return None
    return st.st_size, st.st_mtime_ns


def _refresh_tables(manifests):
    """Make `_tables` hold the table of every file-backed manifest of one
    experiment. A table of the last experiment is kept while its file's size
    and modification time are unchanged; every other file is parsed once,
    here, after the tables this experiment does not use are dropped."""
    global _tables
    stamps = {m: _file_stamp(m.path) for m in manifests if m.synthetic is None}
    _tables = {m: entry for m, entry in _tables.items()
               if entry[0] is not None and stamps.get(m) == entry[0]}
    for m, stamp in stamps.items():
        if m in _tables:
            continue
        try:
            table = load_table(m.path, m)
        except (ValueError, OSError) as exc:   # each run of it records the failure
            table = exc.with_traceback(None)   # not the parser's frames
        _tables[m] = (stamp, table)


def load_dataset(manifest: DatasetManifest, data_seed: int,
                 scale_features: bool = True) -> Dataset:
    """Materialize one dataset (file-backed or synthetic) for one run."""
    if manifest.synthetic is not None:
        return synthetic_dataset(seed=data_seed, scale_features=scale_features,
                                 **manifest.synthetic)
    table = _tables[manifest][1]
    if isinstance(table, Exception):    # raised again by every run of the file
        raise table.with_traceback(None)
    return preprocess(table, manifest, data_seed, scale_features=scale_features)


@dataclass(frozen=True)
class RunSpec:
    """Everything one worker needs; picklable for process pools."""

    run_id: str
    manifest: DatasetManifest
    label: str                   # "agg1|agg2" combo or variant name
    aggregators: tuple           # per layer transition
    layer_norm: bool
    run_index: int
    base_seed: int
    config: ExperimentConfig     # hidden width, training settings, strict replication


def execute_run(spec: RunSpec) -> dict:
    """Train one network; never raises, failures become failed records."""
    record = {
        "run_id": spec.run_id,
        "dataset": spec.manifest.name,
        "label": spec.label,
        "run_index": spec.run_index,
        "seed": spec.base_seed,
        "status": "ok",
        "error": None,
    }
    try:
        data_seed = derive_seed(spec.base_seed, "data")
        net_seed = derive_seed(spec.base_seed, "net")
        train_seed = derive_seed(spec.base_seed, "train")
        cfg = spec.config
        scale_features = not cfg.strict_replication
        data = load_dataset(spec.manifest, data_seed, scale_features=scale_features)
        record["warnings"] = data.warnings
        head_width = 1 if cfg.strict_replication else data.n_classes
        widths = (data.n_features, cfg.hidden_width, head_width)
        net = build_network(widths, spec.aggregators, layer_norm=spec.layer_norm,
                            seed=net_seed)
        result = train(net, data, TrainConfig(
            iterations=cfg.iterations, batch_size=cfg.batch_size,
            learning_rate=cfg.learning_rate, seed=train_seed))
        record.update(
            vars(result),       # asdict would deep-copy the loss curve, float by float
            widths=list(widths),
            n_features=data.n_features,
            n_classes=data.n_classes,
            feature_scaling=scale_features,
            layer_norm=spec.layer_norm,
            final_loss=result.loss_curve[-1],
        )
    except (TrainingDiverged, ValueError, OSError) as exc:
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _run_plan(config: ExperimentConfig) -> list[tuple]:
    """The runs of one dataset as (label, aggregators per layer, layer_norm):
    every "agg1|agg2" pair in a sweep, else the variants (an aggregator or
    a variant listed twice runs once, so a variant can be compared with
    itself)."""
    if config.mode == "sweep":
        return [(a1 + COMBO_SEP + a2, (a1, a2), False)
                for a1, a2 in product(dict.fromkeys(config.aggregators), repeat=2)]
    return [(v, (VARIANTS[v]["aggregator"],) * 2, VARIANTS[v]["layer_norm"])
            for v in dict.fromkeys(config.variants)]


def _build_specs(config: ExperimentConfig, manifests) -> list[RunSpec]:
    return [
        RunSpec(
            run_id=f"{manifest.name}{COMBO_SEP}{label}{COMBO_SEP}{i}",
            manifest=manifest,
            label=label,
            aggregators=aggs,
            layer_norm=layer_norm,
            run_index=i,
            base_seed=derive_seed(config.seed, manifest.name, label, i),
            config=config,
        )
        for manifest in manifests
        for label, aggs, layer_norm in _run_plan(config)
        for i in range(config.runs_per_config())
    ]


def _execute_all(config: ExperimentConfig):
    """Run every spec of the experiment; returns (dataset names, records)."""
    config.validate()
    manifests = _resolve_manifests(config)
    # run ids and seeds derive from the name; one manifest listed twice is
    # one dataset, two that differ under one name are an error
    named = {}
    for m in manifests:
        if named.setdefault(m.name, m) != m:
            raise ValueError(f"two datasets are named {m.name!r}")
    manifests = list(named.values())
    if config.out_dir is not None:    # one that cannot be made fails before any run
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    specs = _build_specs(config, manifests)
    _refresh_tables(manifests)
    # wall-clock timing stays out of the records so runs.jsonl is reproducible
    if config.parallelism > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism,
                                 initializer=_set_tables, initargs=(_tables,)) as pool:
            records = list(pool.map(execute_run, specs, chunksize=1))
    else:
        records = [execute_run(s) for s in specs]
    return [m.name for m in manifests], sorted(records, key=lambda r: r["run_id"])


def _config_payload(config: ExperimentConfig, datasets) -> dict:
    d = asdict(config)
    d["datasets"] = datasets
    d.pop("out_dir")
    d.pop("parallelism")
    d["runs"] = config.runs_per_config()
    return d


# The cells and each report below are built from `runs`: dataset -> label ->
# run index -> record, over the successful runs, each label's runs in run_id
# order.

def _cells(config: ExperimentConfig, datasets, runs) -> dict:
    """The (dataset, label) cells every report holds: the test accuracy of
    each planned label on each dataset, and the pooled in-range shares of the
    datasets with a successful run, ordered by feature count."""
    labels = [label for label, _, _ in _run_plan(config)]
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
    """Rank the aggregator combinations on each dataset by mean test accuracy."""
    plan = _run_plan(config)
    combos = [label for label, _, _ in plan]
    datasets = cells["datasets"]
    ranks = {ds: {} for ds in datasets}
    rank_matrix = np.full((len(combos), len(datasets)), np.nan)
    for d, ds in enumerate(datasets):
        present = [c for c in combos if cells["accuracy"][ds][c]["mean"] is not None]
        if not present:
            continue
        scores = np.array([cells["accuracy"][ds][c]["mean"] for c in present])
        ds_ranks = rank_with_ties(scores, higher_is_better=True)
        ranks[ds] = dict(zip(present, ds_ranks.tolist()))
        for c, r in zip(present, ds_ranks):
            rank_matrix[combos.index(c), d] = r

    means, stds = average_rank(rank_matrix)
    rank_table = []
    for i in np.argsort(means, kind="stable").tolist():   # ties keep combo order
        layer1, layer2 = plan[i][1]
        rank_table.append({
            "layer1": layer1,
            "layer2": layer2,
            "mean_rank": None if np.isnan(means[i]) else round(means[i], 6),
            "std_rank": None if np.isnan(stds[i]) else round(stds[i], 6),
            "per_dataset": {ds: (None if np.isnan(rank_matrix[i, d]) else rank_matrix[i, d])
                            for d, ds in enumerate(datasets)},
        })
    return {"combinations": combos, "ranks": ranks, "rank_table": rank_table}


def _sweep_table(payload) -> list[str]:
    """summary.txt lines of a sweep: the ranked combinations."""
    lines = [f"{'layer1':>10} {'layer2':>10} {'mean rank':>10} {'std':>8}"]
    for row in payload["rank_table"]:
        if row["mean_rank"] is None:
            continue
        lines.append(f"{row['layer1']:>10} {row['layer2']:>10} "
                     f"{row['mean_rank']:>10.2f} {row['std_rank']:>8.2f}")
    return lines


def _compare_report(config: ExperimentConfig, cells, runs) -> dict:
    """Pairwise Wilcoxon tests of the variants' test accuracies on each
    dataset; marks the winner's accuracy cell of each significant pair."""
    variants = list(config.variants)
    tests = {}
    for ds in cells["datasets"]:
        # variant -> run index -> test accuracy, in run index order
        acc = {v: {i: by_index[i]["test_accuracy"] for i in sorted(by_index)}
               for v, by_index in runs.get(ds, {}).items()}
        tests[ds] = {}
        for i, va in enumerate(variants):
            for vb in variants[i + 1:]:
                pair_idx = [k for k in acc.get(va, {}) if k in acc.get(vb, {})]
                key = f"{va} vs {vb}"
                if not pair_idx:
                    tests[ds][key] = None
                    continue
                a = [acc[va][k] for k in pair_idx]
                b = [acc[vb][k] for k in pair_idx]
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


def _compare_table(payload) -> list[str]:
    """summary.txt lines of a compare: mean and std accuracy per variant, then
    the in-range shares per variant and hidden layer."""
    variants = payload["variants"]
    lines = ["dataset".ljust(16) + "".join(v.rjust(26) for v in variants)]
    for ds in payload["datasets"]:
        cells = []
        for v in variants:
            s = payload["accuracy"][ds][v]
            if s["mean"] is None:
                cells.append("failed".rjust(26))
            else:
                marks = "*" * len(s.get("significantly_better_than", []))
                cells.append(f"{100 * s['mean']:.2f}% ±{100 * s['std']:.2f}"
                             f"{marks}".rjust(26))
        lines.append(ds.ljust(16) + "".join(cells))
    lines.append("(one * per variant beaten with p < 0.05)")
    lines.append("in-range share of each hidden layer, pooled over the run:")
    lines.append("dataset".ljust(16) + "features".rjust(9)
                 + "".join(v.rjust(16) for v in variants))
    for ds, info in payload["adherence"].items():
        cells = []
        for v in variants:
            fracs = info["variants"].get(v)
            cells.append(("/".join(f"{f:.4f}" for f in fracs) if fracs
                          else "failed").rjust(16))
        lines.append(ds.ljust(16) + str(info["n_features"]).rjust(9)
                     + "".join(cells))
    return lines


def _adherence_tsv(payload) -> str:
    """adherence.tsv: one plot-data row per (dataset, run label, hidden layer);
    the `variant` column holds the label."""
    lines = ["dataset\tn_features\tvariant\tlayer\tfraction\n"]
    for ds, info in payload["adherence"].items():
        for v, fracs in info["variants"].items():
            for layer, frac in enumerate(fracs):
                lines.append(f"{ds}\t{info['n_features']}\t{v}\t{layer}\t{frac:.6f}\n")
    return "".join(lines)


class Mode(NamedTuple):
    runs: int          # default runs per (dataset, combination)
    report: Callable   # (config, cells, runs) -> its own payload fields; may mark cells
    table: Callable    # payload -> its summary.txt lines


# `adherence` is `compare` with one run per variant by default
MODES = {"sweep": Mode(1, _sweep_report, _sweep_table),
         "compare": Mode(20, _compare_report, _compare_table),
         "adherence": Mode(1, _compare_report, _compare_table)}


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

def summarize(payload: dict) -> str:
    lines = [f"kanagg {payload['mode']} report  (config {payload['config_hash'][:12]})"]
    if payload["failures"]:
        lines.append(f"FAILED RUNS: {len(payload['failures'])} "
                     f"(see runs.jsonl; exit code is non-zero)")
        for r in payload["failures"]:
            lines.append(f"  {r['run_id']}: {r['error']}")
    lines += MODES[payload["mode"]].table(payload)
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
