"""The benchmark's workloads and the inputs each one hands to kanagg.

Each workload is one `kanagg.harness` experiment, run closed-loop by a single
client process: the next experiment starts when the previous one, with its
report, has finished.

- compare-30f: `compare` on manifests/synth-adherence-30f.json (30 features,
  20 000 rows), all three variants x 20 runs of 20 iterations, with two pool
  workers as configs/compare-full.json uses a pool (serially one experiment
  takes about a minute, too long to repeat within a run). Evaluating each
  trained network on the full splits costs more than training it, so this
  is the large-batch workload for `network` and `splines`. It also runs
  fan-in-30 training steps, `kan-layernorm`, exact Wilcoxon tests at n ~ 20
  and `write_report`.
- sweep-blobs: `sweep` on manifests/synth-blobs-demo.json (6 features, 600
  rows), all 81 aggregator pairs x 40 iterations (twice compare-30f's run
  length, and short enough that a run times about ten experiments).
  Evaluation is trivial, so the batch-32 traced forward, `backward` and
  `adam_step` dominate. The only workload running all nine aggregators and
  `stats.rank_with_ties` on scores.
- ingest-adult: `adherence` (kan, kan-avg; 3 runs each of 10 iterations)
  with two pool workers on a generated adult-shaped file. Every run parses
  and preprocesses the 32 561-row file, so `data.load_table`, `preprocess`
  and the process pool do most of the work, and adherence tracing runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import adult

ROOT = Path(__file__).resolve().parent.parent

# (name, unit, better) of the end-to-end metrics, measured untraced
END_TO_END = (
    ("setup_s", "s", "lower"),        # import kanagg, load and validate inputs
    ("wall_s", "s", "lower"),         # run_experiment + write_report
    ("runs_per_s", "1/s", "higher"),  # successful training runs per wall_s
    ("ops_ok_share", "share", "higher"),  # run records and report writes that succeeded
    ("peak_rss_mb", "MB", "lower"),   # this process or its largest pool worker
)


@dataclass(frozen=True)
class Workload:
    mode: str
    manifest: str | None     # repo manifest; None when the input is generated
    variants: tuple
    runs: int
    iterations: int
    parallelism: int


WORKLOADS = {
    "compare-30f": Workload("compare", "manifests/synth-adherence-30f.json",
                            ("kan", "kan-layernorm", "kan-avg"), runs=20,
                            iterations=20, parallelism=2),
    "sweep-blobs": Workload("sweep", "manifests/synth-blobs-demo.json", (),
                            runs=1, iterations=40, parallelism=1),
    "ingest-adult": Workload("adherence", None, ("kan", "kan-avg"), runs=3,
                             iterations=10, parallelism=2),
}


def prepare_inputs(name: str, seed: int, workdir: Path) -> list[str]:
    """Manifest paths of the workload; generates the inputs that need it."""
    workload = WORKLOADS[name]
    if workload.manifest is None:
        return [str(adult.write_inputs(seed, workdir / "inputs"))]
    return [str(ROOT / workload.manifest)]


def experiment_config(name: str, seed: int, manifests, out_dir: str):
    """Load and validate the manifests and the experiment config (the set-up)."""
    from kanagg.data import load_manifest
    from kanagg.harness import ExperimentConfig

    workload = WORKLOADS[name]
    for path in manifests:
        load_manifest(path)
    extra = {"variants": workload.variants} if workload.variants else {}
    config = ExperimentConfig(
        mode=workload.mode, datasets=tuple(manifests), runs=workload.runs,
        iterations=workload.iterations, seed=seed, out_dir=out_dir,
        parallelism=workload.parallelism, **extra)
    config.validate()
    return config
