import multiprocessing

import pytest

import tracer as tracing
from tracer import Span, Tracer, layer_metrics, self_times
from workloads import ROOT


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 7.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_nested_spans_record_parents_and_self_times_add_up():
    t = Tracer(".")
    with t.span("outer"):
        with t.span("first"):
            with t.span("deep"):
                pass
        with t.span("second"):
            pass
    spans = t.take()
    assert [(s.name, s.parent) for s in spans] == [
        ("outer", None), ("first", 0), ("deep", 1), ("second", 0)]
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)
    assert t.take() == []


def test_layer_metrics_aggregates_spans():
    spans = [
        Span("harness.run_experiment", 0.0, 10.0, None),
        Span("data.load_table", 1.0, 2.0, 0, {"bytes": 100, "path": "x"}),
        Span("data.load_table", 3.0, 5.0, 0, {"bytes": 100, "path": "x"}),
        Span("harness.execute_run", 0.0, 8.0, None),
        Span("harness.execute_run", 0.0, 6.0, None),
        Span("stats.wilcoxon_signed_rank", 6.0, 6.5, 0, {"n_effective": 19}),
        Span("stats.wilcoxon_signed_rank", 7.0, 7.5, 0, {"n_effective": 20}),
    ]
    m = layer_metrics(spans, workers=2)
    assert m["data.load_table.calls"] == 2
    assert m["data.load_table.self_s"] == pytest.approx(3.0)
    assert m["data.load_table.bytes"] == 200
    assert m["data.parse_reuse"] == pytest.approx(0.5)
    assert m["harness.run_experiment.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert m["harness.execute_run.p50_s"] == pytest.approx(7.0)
    assert m["harness.pool.busy_share"] == pytest.approx(14.0 / 20.0)
    assert m["stats.wilcoxon_signed_rank.n_effective_max"] == 20
    assert m["splines.basis_matrix.calls"] == 0


def _worker(t):
    with t.span("harness.execute_run"):
        with t.span("data.load_table"):
            pass
    t.spill()


def test_forked_worker_spans_are_rebased_into_the_parent(tmp_path):
    t = Tracer(tmp_path)
    with t.span("harness.run_experiment"):
        proc = multiprocessing.get_context("fork").Process(target=_worker, args=(t,))
        proc.start()
        proc.join(timeout=30)
    assert proc.exitcode == 0
    t.collect_spilled()
    spans = t.take()
    assert [(s.name, s.parent) for s in spans] == [
        ("harness.run_experiment", None), ("harness.execute_run", None),
        ("data.load_table", 1)]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("parallelism", [1, 2])
def test_traced_experiment_matches_untraced_and_reaches_every_layer(
        tmp_path, parallelism):
    import kanagg.network
    import kanagg.splines
    from kanagg.harness import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        mode="compare", datasets=(str(ROOT / "manifests/synth-blobs-demo.json"),),
        variants=("kan", "kan-avg"), runs=2, iterations=3, parallelism=parallelism)
    _, plain = run_experiment(config)
    t = Tracer(tmp_path)
    tracing.install(t)
    try:
        with t.span("harness.run_experiment"):
            _, traced = run_experiment(config)
    finally:
        t.unpatch()
    t.collect_spilled()
    assert kanagg.network.basis_matrix is kanagg.splines.basis_matrix
    assert traced == plain
    m = layer_metrics(t.take(), workers=parallelism)
    assert m["harness.execute_run.calls"] == 4
    assert m["network.forward.train.calls"] == 4 * 3
    assert m["network.forward.eval.calls"] == 4 * 3
    assert m["stats.wilcoxon_signed_rank.calls"] == 1
    assert m["aggregators.aggregate_batch_backward.mean.self_s"] > 0
    assert m["data.synthetic_dataset.rows"] == 4 * 600
