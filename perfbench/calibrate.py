"""Rebuild reference.json from the workloads' outputs over many seeds.

    python3 perfbench/calibrate.py [WORKLOAD ...]

For each workload (default: all) the experiment runs untraced once for each
of the seeds 1000-1009. The reference keeps the record count, every run
label that failed for some seed, and the mean over seeds, with a tolerance
of 6 x their seed std + 0.01, of: the dataset's mean test accuracy over
labels, each (dataset, label)'s mean test accuracy when a label has several
runs, and each (dataset, label)'s adherence fractions. The benchmark's own
seeds should differ from these, so the tolerances are tested out of sample.
Other workloads' entries in reference.json are kept.
"""

import run  # noqa: F401  (first: fixes the BLAS thread counts before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.ROOT / "src"))


def _mean_and_tol(values):
    v = np.asarray(values, dtype=np.float64)
    return [v.mean(axis=0).tolist(), (6.0 * v.std(axis=0) + 0.01).tolist()]


def calibrate(name: str, seeds) -> dict:
    from kanagg.harness import run_experiment

    summaries = []
    for seed in seeds:
        workdir = workloads.ROOT / ".bench_work" / f"calibrate-{name}-{seed}"
        try:
            manifests = workloads.prepare_inputs(name, seed, workdir)
            config = workloads.experiment_config(name, seed, manifests,
                                                 str(workdir / "out"))
            _, records = run_experiment(config)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        summaries.append(checks.summarize(records))
        print(f"{name} seed {seed}: failed {summaries[-1]['failed_labels']}",
              file=sys.stderr)
    counts = {s["records"] for s in summaries}
    if len(counts) != 1:
        raise SystemExit(f"{name}: record count varies with the seed: {counts}")
    reference = {
        "records": counts.pop(),
        "may_fail": sorted({label for s in summaries for label in s["failed_labels"]}),
        "seeds": list(seeds),
    }
    for field in ("dataset_accuracy", "accuracy", "adherence"):
        # keys present for every seed; a label that failed somewhere is skipped
        keys = set.intersection(*(set(s[field]) for s in summaries))
        if field == "accuracy" and workloads.WORKLOADS[name].runs == 1:
            keys = ()  # single-run labels: see checks.py
        reference[field] = {k: _mean_and_tol([s[field][k] for s in summaries])
                            for k in sorted(keys)}
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    seeds = range(1000, 1010)
    path = Path(checks.REFERENCE)
    reference = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads or workloads.WORKLOADS:
        reference[name] = calibrate(name, seeds)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
