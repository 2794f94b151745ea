"""Output checks against reference values stored in reference.json.

For each workload the reference holds the record count, the run labels that
may fail, per dataset the mean test accuracy over labels, and per (dataset,
label) the mean test accuracy and, in adherence mode, the in-range fractions.
Reference means and tolerances come from calibrate.py over several workload
seeds: tolerance = 6 x seed std + 0.01.

Labels with a single run (the sweep) get no per-label accuracy reference:
about one run in twenty lands far from its label's usual accuracy (a combo
near 1.0 scoring 0.6), so no tolerance both holds for unseen seeds and means
anything. The dataset mean over their 81 labels is steady and is checked.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def summarize(records) -> dict:
    """The checked facts of one experiment's run records."""
    accuracy = {}
    adherence = {}
    by_dataset = {}
    for r in records:
        if r["status"] != "ok":
            continue
        key = f"{r['dataset']}|{r['label']}"
        accuracy.setdefault(key, []).append(r["test_accuracy"])
        if r.get("adherence") is not None:
            adherence.setdefault(key, []).append(r["adherence"])
    accuracy = {k: float(np.mean(v)) for k, v in accuracy.items()}
    for key, value in accuracy.items():
        by_dataset.setdefault(key.split("|", 1)[0], []).append(value)
    return {
        "records": len(records),
        "failed_labels": sorted({r["label"] for r in records
                                 if r["status"] != "ok"}),
        "dataset_accuracy": {k: float(np.mean(v)) for k, v in by_dataset.items()},
        "accuracy": accuracy,
        "adherence": {k: np.mean(v, axis=0).tolist() for k, v in adherence.items()},
    }


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as f:
        return json.load(f)[workload]


def check(summary: dict, reference: dict) -> list[str]:
    """Problems found in `summary`; an empty list means the outputs are right."""
    problems = []
    if summary["records"] != reference["records"]:
        problems.append(f"{summary['records']} run records, expected "
                        f"{reference['records']}")
    unexpected = set(summary["failed_labels"]) - set(reference["may_fail"])
    if unexpected:
        problems.append(f"unexpected failed runs: {sorted(unexpected)}")
    for field in ("dataset_accuracy", "accuracy", "adherence"):
        for key, (mean, tol) in reference[field].items():
            if key not in summary[field]:
                # a label allowed to fail has no accuracy when it did
                if key.partition("|")[2] not in summary["failed_labels"]:
                    problems.append(f"{field} of {key} missing")
                continue
            got = np.atleast_1d(summary[field][key])
            if np.any(np.abs(got - np.asarray(mean)) > np.asarray(tol)):
                problems.append(f"{field} of {key} is {got.tolist()}, "
                                f"expected {mean} +- {tol}")
    return problems
