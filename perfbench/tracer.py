"""In-memory span tracing of kanagg's layers, installed from outside the package.

The package imports its helpers by name (`from .splines import basis_matrix`),
so a function is traced by rebinding the name at every module that calls it,
for example `kanagg.network.basis_matrix` and `kanagg.harness.load_table`.
A span is (name, start, end, parent, attrs); its self time is its duration
minus the durations of its direct children.

Process-pool workers forked by the harness inherit the installed wrappers.
A worker writes its spans to `<spill_dir>/spans-<pid>.jsonl` after every
`execute_run`, and the parent collects those files after the experiment.
Worker spans are roots: a span's children are always in its own process.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

AGGREGATOR_KINDS = ("sum", "mean", "std", "var", "median", "norm", "min",
                    "max", "multiply")

# (span name, statistic, unit, better). Statistics: calls, self_s, total_s,
# p50_s and p90_s of durations, an attribute's sum, or "<attr>_max".
SPAN_METRICS = (
    ("splines.basis_matrix", "calls", "count", "lower"),
    ("splines.basis_matrix", "self_s", "s", "lower"),
    ("splines.basis_matrix", "points", "count", "lower"),
    ("network.forward.train", "calls", "count", "lower"),
    ("network.forward.train", "self_s", "s", "lower"),
    ("network.forward.train", "total_s", "s", "lower"),
    ("network.forward.eval", "calls", "count", "lower"),
    ("network.forward.eval", "self_s", "s", "lower"),
    ("network.forward.eval", "total_s", "s", "lower"),
    ("network.forward.eval", "rows", "count", "lower"),
    ("network.adherence_counts", "self_s", "s", "lower"),
    ("network.build_network", "self_s", "s", "lower"),
    *((f"aggregators.aggregate_batch.{k}", "self_s", "s", "lower")
      for k in AGGREGATOR_KINDS),
    *((f"aggregators.aggregate_batch_backward.{k}", "self_s", "s", "lower")
      for k in AGGREGATOR_KINDS),
    ("training.train", "self_s", "s", "lower"),
    ("training.backward", "self_s", "s", "lower"),
    ("training.adam_step", "self_s", "s", "lower"),
    ("training.softmax_cross_entropy", "self_s", "s", "lower"),
    ("training.evaluate", "total_s", "s", "lower"),
    ("data.synthetic_dataset", "self_s", "s", "lower"),
    ("data.synthetic_dataset", "rows", "count", "lower"),
    ("data.load_table", "calls", "count", "lower"),
    ("data.load_table", "self_s", "s", "lower"),
    ("data.load_table", "bytes", "bytes", "lower"),
    ("data.preprocess", "calls", "count", "lower"),
    ("data.preprocess", "self_s", "s", "lower"),
    ("stats.wilcoxon_signed_rank", "calls", "count", "lower"),
    ("stats.wilcoxon_signed_rank", "self_s", "s", "lower"),
    ("stats.wilcoxon_signed_rank", "n_effective_max", "count", "lower"),
    ("stats.rank_with_ties", "self_s", "s", "lower"),
    ("harness.execute_run", "calls", "count", "lower"),
    ("harness.execute_run", "p50_s", "s", "lower"),
    ("harness.execute_run", "p90_s", "s", "lower"),
    ("harness.execute_run", "self_s", "s", "lower"),
    ("harness.run_experiment", "self_s", "s", "lower"),
    ("harness.write_report", "self_s", "s", "lower"),
    ("harness.write_report", "bytes", "bytes", "lower"),
    ("harness.write_report", "failed", "count", "lower"),
)
# metrics derived from several spans: (name, unit, better)
DERIVED_METRICS = (
    ("data.parse_reuse", "ratio", "higher"),       # distinct files / load_table calls
    ("harness.pool.busy_share", "share", "higher"),  # sum run time / (wall x workers)
    ("trace.overhead_s", "s", "lower"),            # traced minus untraced wall_s
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in report order."""
    return ([(f"{span}.{stat}", unit, better)
             for span, stat, unit, better in SPAN_METRICS]
            + list(DERIVED_METRICS))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in the same list
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one experiment's spans (all but trace.overhead_s)."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    selfs = defaultdict(float)
    durations = defaultdict(list)
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    paths = set()
    for s, own_s in zip(spans, own):
        calls[s.name] += 1
        total[s.name] += s.duration
        selfs[s.name] += own_s
        durations[s.name].append(s.duration)
        for key, value in s.attrs.items():
            if key == "path":
                paths.add(value)
                continue
            attr_sum[s.name, key] += value
            attr_max[s.name, key] = max(attr_max[s.name, key], value)

    out = {}
    for span, stat, _, _ in SPAN_METRICS:
        if stat == "calls":
            value = calls[span]
        elif stat == "self_s":
            value = selfs[span]
        elif stat == "total_s":
            value = total[span]
        elif stat in ("p50_s", "p90_s"):
            d = durations[span]
            value = _percentile(d, int(stat[1:3])) if d else 0.0
        elif stat.endswith("_max"):
            value = attr_max[span, stat[:-4]]
        else:
            value = attr_sum[span, stat]
        out[f"{span}.{stat}"] = value
    loads = calls["data.load_table"]
    out["data.parse_reuse"] = len(paths) / loads if loads else 0.0
    wall = total["harness.run_experiment"]
    out["harness.pool.busy_share"] = (total["harness.execute_run"] / (wall * workers)
                                      if wall else 0.0)
    return out


class Tracer:
    """Collects spans of one process; forked workers spill theirs to files."""

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._owner = self._pid = os.getpid()
        self._restore = []

    def _check_process(self):
        # a forked worker starts with a copy of the parent's spans: drop them
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
            self._stack = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields its attrs for filling in."""
        self._check_process()
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        """`fn` recording a span per call. `name` is a string or a function of
        (args, kwargs); `attrs(args, kwargs, result)` returns span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            with self.span(span_name) as span_attrs:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span_attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def patch(self, sites, wrapper):
        """Rebind `wrapper` at each (module, attribute) call site."""
        for module, attr in sites:
            self._restore.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def unpatch(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def spill(self):
        """In a pool worker, append the finished spans to this process's file
        as one batch; batch-local parent indices are re-based on collection."""
        if os.getpid() != self._owner and not self._stack and self.spans:
            batch = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
            with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as f:
                f.write(json.dumps(batch) + "\n")
            self.spans = []

    def collect_spilled(self):
        """Move every worker's spilled spans into this process's list."""
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as f:
                for line in f:
                    offset = len(self.spans)
                    for name, start, end, parent, attrs in json.loads(line):
                        self.spans.append(Span(
                            name, start, end,
                            None if parent is None else parent + offset, attrs))
            path.unlink()

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _forward_name(args, kwargs):
    trace = kwargs.get("trace", args[2] if len(args) > 2 else False)
    return "network.forward.train" if trace else "network.forward.eval"


def _rows(x):
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def install(tracer: Tracer):
    """Trace every kanagg layer function at the call sites the package uses."""
    import kanagg.aggregators as aggregators
    import kanagg.data as data
    import kanagg.harness as harness
    import kanagg.network as network
    import kanagg.splines as splines
    import kanagg.stats as stats
    import kanagg.training as training

    wrap = tracer.wrap
    tracer.patch([(network, "basis_matrix")], wrap(
        splines.basis_matrix, "splines.basis_matrix",
        lambda a, k, r: {"points": a[0].size}))
    tracer.patch([(training, "forward")], wrap(
        network.forward, _forward_name, lambda a, k, r: {"rows": _rows(a[1])}))
    tracer.patch([(training, "adherence_counts")], wrap(
        network.adherence_counts, "network.adherence_counts"))
    tracer.patch([(harness, "build_network")], wrap(
        network.build_network, "network.build_network"))
    tracer.patch([(network, "aggregate_batch")], wrap(
        aggregators.aggregate_batch,
        lambda a, k: f"aggregators.aggregate_batch.{a[1].value}"))
    tracer.patch([(training, "aggregate_batch_backward")], wrap(
        aggregators.aggregate_batch_backward,
        lambda a, k: f"aggregators.aggregate_batch_backward.{a[1].value}"))
    tracer.patch([(harness, "train")], wrap(training.train, "training.train"))
    for name in ("backward", "adam_step", "softmax_cross_entropy", "evaluate"):
        tracer.patch([(training, name)],
                     wrap(getattr(training, name), f"training.{name}"))
    tracer.patch([(harness, "synthetic_dataset")], wrap(
        data.synthetic_dataset, "data.synthetic_dataset",
        lambda a, k, r: {"rows": k["n_instances"]}))
    tracer.patch([(harness, "load_table")], wrap(
        data.load_table, "data.load_table",
        lambda a, k, r: {"bytes": os.path.getsize(a[0]), "path": str(a[0])}))
    tracer.patch([(harness, "preprocess")], wrap(data.preprocess, "data.preprocess"))
    tracer.patch([(harness, "wilcoxon_signed_rank")], wrap(
        stats.wilcoxon_signed_rank, "stats.wilcoxon_signed_rank",
        lambda a, k, r: {"n_effective": r.n_effective}))
    tracer.patch([(harness, "rank_with_ties"), (stats, "rank_with_ties")],
                 wrap(stats.rank_with_ties, "stats.rank_with_ties"))

    traced_run = wrap(harness.execute_run, "harness.execute_run")

    # pickled by reference (kanagg.harness.execute_run) when sent to a pool
    @functools.wraps(harness.execute_run)
    def execute_run(spec):
        record = traced_run(spec)
        tracer.spill()
        return record

    tracer.patch([(harness, "execute_run")], execute_run)
