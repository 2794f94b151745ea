"""Benchmark of the kanagg experiment harness, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload, one process each

Run from the repository root; kanagg is imported from `src/`. A run prepares
the workload's inputs from the seed, then repeats the workload's experiment
(`run_experiment` and `write_report`) for up to S seconds: at least once, and
again while the median experiment so far still fits. It times kanagg's
set-up in fresh interpreters before, between and after them. With
`--trace 1` the first half of the time runs untraced and the second half
traced, which gives the per-layer metrics and the tracing overhead.

`wall_s` is the fastest experiment of the run and `runs_per_s` its rate; the
median and the sample count are printed beside them. On a shared host the
speed drifts by 20-40% over tens of seconds and interference only adds time:
over recorded sweep-blobs experiments, the minimum per run spread about half
as much between runs as the median did. Drift over minutes remains.

Every experiment's records are checked against reference.json, and the runs
of one process must produce identical records. The last line of stdout is the
JSON result; the lines before it give the environment, the checks and every
metric with its unit.

Workloads are described in workloads.py; calibrate.py rebuilds reference.json.
The perfbench tests run with `python3 -m pytest perfbench/tests`.
"""

import os

# fixed before numpy is imported here, in set-up probes or in pool workers
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9


def probe_setup(name, seed, manifests) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), *manifests],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def records_digest(records) -> str:
    """sha256 of the records as write_report serializes them into runs.jsonl."""
    h = hashlib.sha256()
    for r in records:
        h.update((json.dumps(r, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def run_once(harness, config, tracer):
    """One closed-loop operation: run_experiment then write_report."""
    span = tracer.span if tracer else (lambda name: nullcontext({}))
    out = Path(config.out_dir)
    start = time.perf_counter()
    with span("harness.run_experiment"):
        payload, records = harness.run_experiment(config)
    write_error = None
    with span("harness.write_report") as attrs:
        try:
            harness.write_report(payload, records, out)
        except Exception as exc:  # a failed write is a measured outcome
            write_error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    attrs.update(failed=int(write_error is not None), bytes=_dir_bytes(out))
    runs_file = out / "runs.jsonl"
    runs_ok = sum(r["status"] == "ok" for r in records)
    result = {
        "wall": wall,
        "traced": tracer is not None,
        "records": records,
        "runs_ok": runs_ok,
        # operations: each run record and the report write
        "attempted": len(records) + 1,
        "failed": len(records) - runs_ok + (write_error is not None),
        "write_error": write_error,
        "digest": records_digest(records),
        "runs_jsonl_sha256": (hashlib.sha256(runs_file.read_bytes()).hexdigest()
                              if runs_file.exists() else None),
    }
    shutil.rmtree(out, ignore_errors=True)
    if tracer:
        tracer.collect_spilled()
        result["spans"] = tracer.take()
    return result


def environment() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "kanagg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_workload(args, workdir: Path) -> dict:
    import checks
    import tracer as tracing
    import workloads

    name, seed = args.workload, args.seed
    manifests = workloads.prepare_inputs(name, seed, workdir)
    setup = []

    def probe(n):
        setup.extend(probe_setup(name, seed, manifests) for _ in range(n))

    # the machine's speed drifts over seconds: spread the probes over the run
    probe(3)

    import kanagg.harness as harness

    config = workloads.experiment_config(name, seed, manifests, str(workdir / "out"))
    tracer = tracing.Tracer(workdir / "spans") if args.trace else None
    if tracer:
        tracer.spill_dir.mkdir(parents=True)
    experiments = []

    def repeat(until, tracer):
        """Run experiments, at least one, while the next is expected to end
        by `until`."""
        walls = []
        while True:
            out = workdir / "out" / str(len(experiments))
            experiments.append(run_once(
                harness, dataclasses.replace(config, out_dir=str(out)), tracer))
            walls.append(experiments[-1]["wall"])
            probe(1)
            if time.perf_counter() + statistics.median(walls) > until:
                return

    start = time.perf_counter()
    if tracer:
        repeat(start + args.seconds / 2, None)
        tracing.install(tracer)
        try:
            repeat(start + args.seconds, tracer)
        finally:
            tracer.unpatch()
    else:
        repeat(start + args.seconds, None)
    probe(max(0, SETUP_PROBES - len(setup)))

    problems = checks.check(checks.summarize(experiments[0]["records"]),
                            checks.load_reference(name))
    if len({e["digest"] for e in experiments}) != 1:
        problems.append("experiments of one seed produced different records")

    plain = [e for e in experiments if not e["traced"]]
    traced = [e for e in experiments if e["traced"]]
    plain_attempted = sum(e["attempted"] for e in plain)
    walls = [e["wall"] for e in plain]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": min(walls),
        "runs_per_s": max(e["runs_ok"] / e["wall"] for e in plain),
        "ops_ok_share": 1.0 - sum(e["failed"] for e in plain) / plain_attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    specs = list(workloads.END_TO_END)
    if tracer:
        rows = [tracing.layer_metrics(e["spans"], config.parallelism) for e in traced]
        values.update({k: statistics.fmean(r[k] for r in rows) for k in rows[0]})
        values["trace.overhead_s"] = min(e["wall"] for e in traced) - values["wall_s"]
        specs += tracing.per_layer_specs()

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {name} seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced experiments; runs.jsonl sha256 "
          f"{experiments[0]['runs_jsonl_sha256']}")
    print(f"untraced experiment wall: min {min(walls)!r} s, median "
          f"{statistics.median(walls)!r} s, max {max(walls)!r} s over "
          f"{len(walls)}; set-up median over {len(setup)} probes")
    for error in sorted({e["write_error"] for e in experiments} - {None}):
        print(f"write_report failed: {error}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for metric, unit, _ in specs:
        print(f"{metric} = {values[metric]!r} {unit}")
    reported = tracing.per_layer_specs() if tracer else workloads.END_TO_END
    return {
        "correct": not problems,
        "attempted": sum(e["attempted"] for e in experiments),
        "failed": sum(e["failed"] for e in experiments),
        "metrics": {m: {"value": values[m], "unit": u} for m, u, _ in reported},
    }


def run_all(args) -> int:
    """Each workload in its own process; the last line sums their results."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{m}": v
                                    for m, v in result["metrics"].items()})
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "kanagg" / "__init__.py").is_file():
        print(f"kanagg sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
