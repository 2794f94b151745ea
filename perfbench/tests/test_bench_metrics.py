import json

import checks
import tracer
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_benchmark_file():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END]


def test_per_layer_metrics_match_the_benchmark_file():
    names = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert names == tracer.per_layer_specs()
    computed = set(tracer.layer_metrics([], workers=1)) | {"trace.overhead_s"}
    assert computed == {name for name, _, _ in names}


def test_every_workload_is_declared_and_has_a_reference():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(workloads.WORKLOADS)
    for name in declared:
        assert checks.load_reference(name)["records"] > 0


def test_check_flags_wrong_outputs_and_allows_declared_failures():
    reference = {"records": 2, "may_fail": ["b"],
                 "dataset_accuracy": {"d": [0.9, 0.1]},
                 "accuracy": {"d|a": [0.9, 0.05], "d|b": [0.7, 0.05]},
                 "adherence": {}}
    records = [
        {"dataset": "d", "label": "a", "status": "ok", "test_accuracy": 0.92},
        {"dataset": "d", "label": "b", "status": "failed"},
    ]
    assert checks.check(checks.summarize(records), reference) == []
    records[0]["test_accuracy"] = 0.5
    problems = checks.check(checks.summarize(records[:1] * 3), reference)
    # record count, dataset mean, label a's mean, label b neither ran nor failed
    assert len(problems) == 4
