import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from kanagg import ExperimentConfig, IngestionError, derive_seed, load_manifest, \
    load_table, run_experiment, write_report
from kanagg.cli import main as cli_main
from kanagg.data import ColumnSpec, DatasetManifest
from kanagg.harness import INT_SETTINGS, summarize
from oracles import sort_based_ranks


def blob_manifest(name="mini-blobs", n_features=4, n_instances=160, n_classes=2,
                  **extra):
    return DatasetManifest(name=name, synthetic={
        "kind": "gaussian-blobs", "n_features": n_features,
        "n_instances": n_instances, "n_classes": n_classes, **extra})


def quick_config(mode, **kw):
    kw.setdefault("datasets", (blob_manifest(),))
    kw.setdefault("iterations", 30)
    kw.setdefault("seed", 7)
    return ExperimentConfig(mode=mode, **kw)


def assert_rank_table(payload):
    """Each rank_table row is (label, mean rank, std rank): the plain mean and
    population std of the label's ranks on the datasets that ranked it, rows
    in (mean rank, plan position) order, and summary.txt's rows in that order."""
    position = {c: i for i, c in enumerate(payload["combinations"])}
    keys = []
    for row in payload["rank_table"]:
        assert set(row) == {"label", "mean_rank", "std_rank"}
        got = [payload["ranks"][ds][row["label"]] for ds in payload["datasets"]
               if row["label"] in payload["ranks"][ds]]
        if not got:    # failed everywhere: ranked last
            assert row["mean_rank"] is None and row["std_rank"] is None
            keys.append((math.inf, position[row["label"]]))
            continue
        mean = sum(got) / len(got)
        std = math.sqrt(sum((r - mean) ** 2 for r in got) / len(got))
        assert row["mean_rank"] == pytest.approx(mean, abs=1e-6)
        assert row["std_rank"] == pytest.approx(std, abs=1e-6)
        keys.append((row["mean_rank"], position[row["label"]]))
    assert keys == sorted(keys) and len(keys) == len(position)
    lines = summarize(payload).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("label"))
    assert [line.split()[0] for line in lines[start + 1:]] == \
        [row["label"] for row in payload["rank_table"]]


class TestSeeds:
    def test_sha_based_derivation_is_frozen(self):
        # protects against accidental changes to the derivation scheme
        assert derive_seed(0, "x") == 18280232841950264645
        assert derive_seed(7, "synth-blobs-demo", "kan-avg", 0) \
            == 16895294015382614094

    def test_distinct_coordinates_distinct_seeds(self):
        seeds = {derive_seed(0, ds, combo, i)
                 for ds in ("a", "b") for combo in ("x", "y") for i in range(3)}
        assert len(seeds) == 12

    @pytest.mark.parametrize("mode, settings", [
        ("sweep", {"aggregators": ("sum", "mean")}),
        ("compare", {"variants": ("kan", "kan-avg"), "runs": 2}),
    ])
    def test_records_carry_seeds_and_ids_of_their_coordinates(self, mode, settings):
        config = quick_config(mode, iterations=2, **settings)
        _, records = run_experiment(config)
        assert len(records) == 4
        for r in records:
            assert r["seed"] == derive_seed(config.seed, r["dataset"], r["label"],
                                            r["run_index"])
            assert r["run_id"] == f"{r['dataset']}|{r['label']}|{r['run_index']}"

    def test_a_run_reproduces_in_isolation(self):
        from kanagg.harness import RunSpec, execute_run
        config = quick_config("compare", variants=("kan", "kan-avg"), runs=2,
                              iterations=10)
        _, records = run_experiment(config)
        manifest, = config.datasets
        assert [execute_run(RunSpec(manifest, r["label"], r["run_index"], config))
                for r in records] == records


class TestSweep:
    def test_enumerates_cartesian_product(self):
        config = quick_config("sweep", aggregators=("sum", "mean", "norm"))
        payload, records = run_experiment(config)
        assert len(payload["combinations"]) == 9
        assert len(records) == 9
        assert {r["label"] for r in records} == set(payload["combinations"])

    def test_repeated_aggregator_runs_once(self):
        config = quick_config("sweep", aggregators=("sum", "mean", "sum"))
        payload, records = run_experiment(config)
        assert payload["combinations"] == ["sum|sum", "sum|mean", "mean|sum",
                                           "mean|mean"]
        assert len(records) == 4
        assert all(row["mean_rank"] is not None for row in payload["rank_table"])

    def test_full_nine_gives_81(self):
        config = quick_config("sweep")
        from kanagg.harness import _run_plan
        assert len(_run_plan(config)) == 81

    def test_ranks_are_valid_tied_permutation(self):
        config = quick_config("sweep", aggregators=("sum", "mean", "min"))
        payload, records = run_experiment(config)
        assert not payload["failures"]
        ds = payload["datasets"][0]
        ranks = sorted(payload["ranks"][ds].values())
        # averaged tied ranks must sum to n(n+1)/2 and lie in [1, n]
        n = len(ranks)
        assert sum(ranks) == pytest.approx(n * (n + 1) / 2)
        assert ranks[0] >= 1.0 and ranks[-1] <= n
        means = [row["mean_rank"] for row in payload["rank_table"]]
        assert len(set(means)) < len(means)      # these seeds give tied means
        assert_rank_table(payload)               # tied means in plan order

    def test_accuracies_recomputable_from_records(self):
        config = quick_config("sweep", aggregators=("sum", "mean"))
        payload, records = run_experiment(config)
        ds = payload["datasets"][0]
        for combo, cell in payload["accuracy"][ds].items():
            mean_acc = cell["mean"]
            run_accs = [r["test_accuracy"] for r in records
                        if r["label"] == combo and r["status"] == "ok"]
            assert mean_acc == pytest.approx(float(np.mean(run_accs)))
            assert 0.0 <= mean_acc <= 1.0

    def test_multi_dataset_rank_aggregation(self):
        config = quick_config(
            "sweep", aggregators=("sum", "mean", "norm"),
            datasets=(blob_manifest("ds-a", 4, 160),
                      blob_manifest("ds-b", 6, 160)))
        payload, _ = run_experiment(config)
        combos = payload["combinations"]
        # each dataset's ranks are the oracle's ranks of the reported accuracies
        for ds in payload["datasets"]:
            accs = [payload["accuracy"][ds][c]["mean"] for c in combos]
            expected = sort_based_ranks(accs, higher_is_better=True)
            got = [payload["ranks"][ds][c] for c in combos]
            np.testing.assert_allclose(got, expected, atol=1e-12)
        # each row aggregates the label's two per-dataset ranks
        assert_rank_table(payload)


def test_sweep_and_compare_records_carry_adherence():
    sweep = run_experiment(quick_config("sweep", aggregators=("sum", "mean"),
                                        iterations=5))[1]
    compare = run_experiment(quick_config("compare", variants=("kan", "kan-avg"),
                                          runs=2, iterations=5))[1]
    for r in sweep + compare:
        assert r["status"] == "ok"
        assert len(r["adherence"]) == 1 and 0.0 <= r["adherence"][0] <= 1.0
    # five steps into training on these blobs, the mean keeps every hidden
    # value on the grid
    assert all(r["adherence"] == [1.0] for r in compare if r["label"] == "kan-avg")


@pytest.mark.parametrize("strict", [False, True])
def test_ok_record_holds_each_fact_once(strict):
    # the feature count is widths[0], the final loss loss_curve[-1], and a
    # strict-replication run's widths end in 1
    config = quick_config("compare", variants=("kan",), runs=1, iterations=5,
                          strict_replication=strict)
    [record] = run_experiment(config)[1]
    assert record["status"] == "ok"
    assert set(record) == {
        "adherence", "dataset", "error", "label", "layer_norm", "loss_curve",
        "n_classes", "run_id", "run_index", "seed", "status", "test_accuracy",
        "train_accuracy", "val_accuracy", "warnings", "widths"}
    assert record["widths"][0] == 4
    assert record["widths"][-1] == (1 if strict else record["n_classes"])


class TestComparison:
    def test_structure_two_variants(self):
        config = quick_config("compare", variants=("kan", "kan-avg"), runs=3)
        payload, records = run_experiment(config)
        ds = payload["datasets"][0]
        assert set(payload["accuracy"][ds]) == {"kan", "kan-avg"}
        assert list(payload["wilcoxon"][ds]) == ["kan vs kan-avg"]
        assert len(records) == 6
        stats = payload["accuracy"][ds]["kan"]
        assert stats["n"] == 3
        assert 0.0 <= stats["mean"] <= 1.0
        # report values are pure aggregations of the run records
        for v in ("kan", "kan-avg"):
            accs = [r["test_accuracy"] for r in records if r["label"] == v]
            assert payload["accuracy"][ds][v]["mean"] \
                == pytest.approx(float(np.mean(accs)))
            assert payload["accuracy"][ds][v]["std"] \
                == pytest.approx(float(np.std(accs)))

    def test_variant_against_itself_is_degenerate(self):
        config = quick_config("compare", variants=("kan", "kan"), runs=3)
        payload, records = run_experiment(config)
        ds = payload["datasets"][0]
        res = payload["wilcoxon"][ds]["kan vs kan"]
        assert res["degenerate"] is True
        assert res["p_value"] == 1.0
        assert len(records) == 3  # shared runs, not duplicated

    def test_significant_result_written_to_report(self, tmp_path):
        # numpy scalars in the Wilcoxon result made json.dumps fail here
        config = quick_config(
            "compare", variants=("kan", "kan-avg"), runs=6,
            datasets=(blob_manifest(n_classes=3, noise=0.5),))
        payload, records = run_experiment(config)
        res = payload["wilcoxon"]["mini-blobs"]["kan vs kan-avg"]
        assert res["method"] == "exact" and res["p_value"] < 1.0
        assert type(res["p_value"]) is float and type(res["significant"]) is bool
        out = write_report(payload, records, tmp_path / "cmp")
        report = json.loads((out / "report.json").read_text())["payload"]
        assert report["wilcoxon"] == payload["wilcoxon"]
        lines = (out / "runs.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_variant_listed_twice_pairs_once(self):
        # each unordered pair used to be tested once per listing: kan vs kan-avg
        # and kan-avg vs kan, and kan beat kan-avg twice
        config = quick_config("compare", variants=("kan", "kan-avg", "kan"), runs=8,
                              seed=1, datasets=(DatasetManifest(
                                  name="synth-xor", synthetic={
                                      "kind": "xor", "n_features": 2,
                                      "n_instances": 400}),))
        payload, records = run_experiment(config)
        assert len(records) == 16 and not payload["failures"]
        assert list(payload["wilcoxon"]["synth-xor"]) == ["kan vs kan-avg", "kan vs kan"]
        for cell in payload["accuracy"]["synth-xor"].values():
            beaten = cell.get("significantly_better_than", [])
            assert len(beaten) == len(set(beaten))

    def test_three_way_pairs(self):
        config = quick_config("compare", runs=2)
        payload, _ = run_experiment(config)
        ds = payload["datasets"][0]
        assert list(payload["wilcoxon"][ds]) == [
            "kan vs kan-layernorm", "kan vs kan-avg", "kan-layernorm vs kan-avg"]


class TestAdherence:
    def test_report_and_plot_rows(self, tmp_path):
        config = quick_config(
            "adherence", variants=("kan", "kan-avg"),
            datasets=(blob_manifest("wide", 8, 160),
                      blob_manifest("small", 4, 160)))
        payload, records = run_experiment(config)
        assert payload["datasets"] == ["wide", "small"]          # config order
        assert list(payload["adherence"]) == ["small", "wide"]   # by n_features
        assert "plot_rows" not in payload
        out = write_report(payload, records, tmp_path / "adh")
        tsv = (out / "adherence.tsv").read_text().splitlines()
        assert tsv[0] == "dataset\tn_features\tvariant\tlayer\tfraction"
        # one row per (dataset, variant, layer) of the adherence table
        expected = [f"{ds}\t{nf}\t{v}\t0\t{fracs[0]:.6f}"
                    for ds, nf in (("small", 4), ("wide", 8))
                    for v in ("kan", "kan-avg")
                    for fracs in [payload["adherence"][ds]["variants"][v]]]
        assert tsv[1:] == expected
        assert all(0.0 <= float(row.split("\t")[4]) <= 1.0 for row in tsv[1:])

    def test_adherence_values_recomputable(self):
        config = quick_config("adherence", variants=("kan-avg",), runs=2)
        payload, records = run_experiment(config)
        ds = payload["datasets"][0]
        fracs = [r["adherence"][0] for r in records if r["status"] == "ok"]
        assert payload["adherence"][ds]["variants"]["kan-avg"][0] \
            == pytest.approx(float(np.mean(fracs)))


@pytest.mark.parametrize("mode, settings", [
    ("sweep", {"aggregators": ("sum", "mean"), "runs": 2}),
    ("compare", {"variants": ("kan", "kan-avg"), "runs": 3}),
    ("adherence", {"variants": ("kan-avg", "kan"), "runs": 2}),
])
def test_payload_rebuilt_from_records_alone(monkeypatch, mode, settings):
    # a failed run on "gone" shows that failures keep their order too
    gone = DatasetManifest(
        name="gone", path="/nonexistent/gone.csv",
        columns=(ColumnSpec("a", "feature", "numeric"),
                 ColumnSpec("y", "target", "categorical")))
    config = quick_config(mode, iterations=5, **settings,
                          datasets=(blob_manifest("wide", 6), blob_manifest(), gone))
    payload, records = run_experiment(config)
    assert payload["failures"] and len(records) > len(payload["failures"])
    from kanagg import harness
    monkeypatch.setattr(harness, "execute_run",
                        lambda spec: pytest.fail("a run started"))
    rebuilt = harness._payload(config, ["wide", "mini-blobs", "gone"], records[::-1])
    assert json.dumps(rebuilt, sort_keys=True) == json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("mode, settings", [
    ("sweep", {"aggregators": ("sum", "mean"), "runs": 2}),
    ("compare", {"variants": ("kan", "kan-avg"), "runs": 3}),
    ("adherence", {"variants": ("kan-avg", "kan"), "runs": 2}),
])
def test_every_mode_reports_accuracy_and_adherence_cells(tmp_path, mode, settings):
    gone = DatasetManifest(
        name="gone", path="/nonexistent/gone.csv",
        columns=(ColumnSpec("a", "feature", "numeric"),
                 ColumnSpec("y", "target", "categorical")))
    config = quick_config(mode, iterations=5, **settings,
                          datasets=(blob_manifest("wide", 6), blob_manifest(), gone))
    payload, records = run_experiment(config)
    out = write_report(payload, records, tmp_path / mode)
    assert sorted(p.name for p in out.iterdir()) == [
        "adherence.tsv", "report.json", "runs.jsonl", "summary.txt"]
    # every cell is a plain-loop mean over the successful records
    labels = {r["label"] for r in records}
    assert payload["datasets"] == ["wide", "mini-blobs", "gone"]
    for ds in payload["datasets"]:
        assert set(payload["accuracy"][ds]) == labels
        for label, cell in payload["accuracy"][ds].items():
            accs = [r["test_accuracy"] for r in records if r["status"] == "ok"
                    and r["dataset"] == ds and r["label"] == label]
            assert cell["n"] == len(accs)
            if not accs:
                assert cell["mean"] is None and cell["std"] is None
                continue
            mean = sum(accs) / len(accs)
            std = math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs))
            assert cell["mean"] == pytest.approx(mean, abs=1e-12)
            assert cell["std"] == pytest.approx(std, abs=1e-12)
    assert list(payload["adherence"]) == ["mini-blobs", "wide"]   # by n_features
    for ds, info in payload["adherence"].items():
        assert info["n_features"] == {"wide": 6, "mini-blobs": 4}[ds]
        assert set(info["variants"]) == labels
        for label, fracs in info["variants"].items():
            shares = [r["adherence"][0] for r in records
                      if r["dataset"] == ds and r["label"] == label]
            assert fracs == pytest.approx([sum(shares) / len(shares)], abs=1e-12)
    report = json.loads((out / "report.json").read_text())["payload"]
    assert summarize(report) == (out / "summary.txt").read_text()


@pytest.mark.parametrize("mode, settings", [
    ("sweep", {"aggregators": ("sum", "mean")}),
    ("compare", {"variants": ("kan", "kan-layernorm", "kan-avg"), "runs": 6}),
])
def test_summary_rows_are_the_cells(tmp_path, monkeypatch, mode, settings):
    # every (mean, mean) network fails to build, so one label has no
    # successful run anywhere; "gone" has none for any label
    from kanagg import harness
    build = harness.build_network

    def build_unless_mean(widths, aggregators, **kw):
        if tuple(aggregators) == ("mean", "mean"):
            raise ValueError("no mean network")
        return build(widths, aggregators, **kw)

    monkeypatch.setattr(harness, "build_network", build_unless_mean)
    gone = DatasetManifest(
        name="gone", path="/nonexistent/gone.csv",
        columns=(ColumnSpec("a", "feature", "numeric"),
                 ColumnSpec("y", "target", "categorical")))
    config = quick_config(mode, iterations=10, seed=1, **settings, datasets=(
        blob_manifest("wide", 6, noise=0.5, n_classes=3), blob_manifest(), gone))
    payload, records = run_experiment(config)
    out = write_report(payload, records, tmp_path)
    lines = (out / "summary.txt").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("label"))
    header = lines[start]
    for ds, n in (("wide", 6), ("mini-blobs", 4), ("gone", "-")):
        assert f"{ds}      in range ({n})" in header
    failing = "mean|mean" if mode == "sweep" else "kan-avg"
    if mode == "sweep":
        assert_rank_table(payload)
        labels = [r["label"] for r in payload["rank_table"]]
        ranks = [["-" if x is None else f"{x:.2f}"
                  for x in (r["mean_rank"], r["std_rank"])] for r in payload["rank_table"]]
        assert ranks[-1] == ["-", "-"] and labels[-1] == "mean|mean"
    else:
        labels, ranks = list(config.variants), [[]] * 3
        assert lines[-1] == "(one * per label beaten with p < 0.05)"
        lines = lines[:-1]
    rows = lines[start + 1:]
    assert [row.split()[0] for row in rows] == labels
    stars = 0
    for row, label, rank in zip(rows, labels, ranks):
        expected = [label, *rank]
        for ds in payload["datasets"]:
            cell = payload["accuracy"][ds][label]
            marks = len(cell.get("significantly_better_than", []))
            stars += marks
            info = payload["adherence"].get(ds, {"variants": {}})
            fracs = info["variants"].get(label)
            expected += [
                "failed" if cell["mean"] is None else
                f"{100 * cell['mean']:.2f}% ±{100 * cell['std']:.2f}" + "*" * marks,
                "-" if fracs is None else "/".join(f"{f:.4f}" for f in fracs)]
            if label == failing or ds == "gone":
                assert expected[-2:] == ["failed", "-"]
        assert re.split(r"\s{2,}", row.strip()) == expected
    assert "".join(rows).count("*") == stars
    # at these seeds kan-layernorm beats kan on "wide" in all six runs
    assert stars == (mode == "compare")


def test_adherence_is_compare_with_one_run_by_default():
    settings = {"variants": ("kan", "kan-avg"), "iterations": 5,
                "datasets": (blob_manifest("wide", 6), blob_manifest())}
    adherence, adherence_records = run_experiment(quick_config("adherence", **settings))
    compare, compare_records = run_experiment(quick_config("compare", runs=1, **settings))
    assert adherence_records == compare_records and len(compare_records) == 4
    assert {key for key in adherence.keys() | compare.keys()
            if adherence.get(key) != compare.get(key)} == {"mode", "config", "config_hash"}


@pytest.mark.parametrize("mode, plans, unread", [
    ("sweep", {"aggregators": ("sum", "mean")}, {"variants": ("kan-avg",)}),
    ("compare", {"variants": ("kan", "kan-avg"), "runs": 2}, {"aggregators": ("sum",)}),
    ("adherence", {"variants": ("kan",)}, {"aggregators": ("sum",)}),
])
def test_config_holds_only_the_planning_setting_of_its_mode(mode, plans, unread):
    # the other planning setting leaves every record as it is, so it used to
    # change config_hash alone
    config = quick_config(mode, iterations=2, **plans)
    payload, records = run_experiment(config)
    other, other_records = run_experiment(replace(config, **unread))
    assert other_records == records and other == payload
    assert set(unread).isdisjoint(payload["config"])
    assert set(plans) <= set(payload["config"])


def test_run_memory_is_bounded_by_its_dataset():
    # a run holds its dataset and, while training, one bounded block; its
    # evaluation reads each split by its row indices, one block of rows at a
    # time, so it holds no copy of a split: its allocation peak stays a
    # small multiple of the feature matrix (about 1.5-1.6x)
    import tracemalloc
    from kanagg.harness import RunSpec, execute_run
    n_instances, n_features = 20000, 30
    config = quick_config("compare", variants=("kan",), runs=1, iterations=20,
                          datasets=(blob_manifest("big-blobs", n_features, n_instances,
                                                  separation=0.06, noise=0.45),))
    spec = RunSpec(config.datasets[0], "kan", 0, config)
    tracemalloc.start()
    try:
        record = execute_run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["status"] == "ok"
    assert peak <= 1.8 * n_instances * n_features * 8


def test_serial_import_loads_no_process_pool():
    # only an experiment with parallelism > 1 imports the pool's modules
    import kanagg
    src = str(Path(kanagg.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kanagg, kanagg.cli; "
         "print('concurrent.futures' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestDeterminismAndFailures:
    def test_identical_config_identical_payload(self, tmp_path):
        config = quick_config("compare", variants=("kan", "kan-avg"), runs=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            payload, records = run_experiment(config)
            write_report(payload, records, out)
        assert (out_a / "runs.jsonl").read_bytes() \
            == (out_b / "runs.jsonl").read_bytes()
        pa = json.loads((out_a / "report.json").read_text())["payload"]
        pb = json.loads((out_b / "report.json").read_text())["payload"]
        assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)

    def test_parallel_equals_serial(self):
        serial = quick_config("sweep", aggregators=("sum", "mean"))
        parallel = quick_config("sweep", aggregators=("sum", "mean"),
                                parallelism=2)
        ps, rs = run_experiment(serial)
        pp, rp = run_experiment(parallel)
        assert json.dumps(ps, sort_keys=True) == json.dumps(pp, sort_keys=True)
        assert rs == rp

    def test_failed_runs_recorded_and_excluded(self):
        # a diverging run ends as a failure record, with no RuntimeWarning
        # (the suite makes one an error, in pool workers too)
        for parallelism in (1, 2):
            config = quick_config("compare", variants=("kan", "kan-avg"), runs=2,
                                  learning_rate=1e160, parallelism=parallelism)
            payload, records = run_experiment(config)
            assert len(payload["failures"]) == 4
            assert all(r["status"] == "failed" for r in records)
            assert all("iteration" in r["error"] or "logits" in r["error"]
                       for r in records)
            ds = payload["datasets"][0]
            assert payload["accuracy"][ds]["kan"]["mean"] is None

    def test_unplanned_label_is_a_failed_record(self):
        # execute_run never raises: it used to raise KeyError: 'bogus'
        from kanagg.harness import RunSpec, execute_run
        config = quick_config("compare", variants=("kan",), runs=1)
        record = execute_run(RunSpec(blob_manifest(), "bogus", 0, config))
        assert (record["status"], record["error"]) == (
            "failed", "ValueError: run label 'bogus' is not planned by its config")

    @pytest.mark.parametrize("strict", [False, True], ids=["softmax", "scalar"])
    def test_out_of_range_label_is_one_failed_record(self, monkeypatch, strict):
        import kanagg.harness as harness
        load_dataset = harness.load_dataset

        def one_bad_label(*args, **kwargs):
            data = load_dataset(*args, **kwargs)
            data.labels[data.val_idx[0]] = data.n_classes
            return data

        monkeypatch.setattr(harness, "load_dataset", one_bad_label)
        payload, records = run_experiment(quick_config(
            "compare", variants=("kan",), runs=1, strict_replication=strict))
        assert [(r["status"], r["error"]) for r in records] == [
            ("failed", "ConfigError: label 2 lies outside [0, 2)")]
        assert payload["failures"] == records

    def test_sweep_with_unreadable_dataset(self):
        broken = DatasetManifest(
            name="gone", path="/nonexistent/gone.csv",
            columns=(ColumnSpec("a", "feature", "numeric"),
                     ColumnSpec("y", "target", "categorical")))
        config = quick_config("sweep", aggregators=("sum", "mean"),
                              datasets=(blob_manifest(), broken))
        payload, records = run_experiment(config)
        assert len(payload["failures"]) == 4          # every combo on "gone"
        assert all(f["error"].startswith(
            "IngestionError: cannot open /nonexistent/gone.csv: [Errno 2]")
            for f in payload["failures"])
        assert payload["ranks"]["gone"] == {}
        ok_ranks = payload["ranks"][blob_manifest().name]
        assert len(ok_ranks) == 4                      # healthy dataset unaffected
        # every row's ranks come from the healthy dataset alone
        assert_rank_table(payload)
        assert all(row["std_rank"] == 0.0 for row in payload["rank_table"])

    def test_sweep_whose_only_dataset_is_unreadable(self):
        # every combination failed everywhere: no ranks and no RuntimeWarning
        broken = DatasetManifest(
            name="gone", path="/nonexistent/gone.csv",
            columns=(ColumnSpec("a", "feature", "numeric"),
                     ColumnSpec("y", "target", "categorical")))
        payload, records = run_experiment(quick_config(
            "sweep", aggregators=("sum", "mean"), datasets=(broken,)))
        assert len(payload["failures"]) == len(records) == 4
        assert payload["ranks"] == {"gone": {}}
        assert all(row["mean_rank"] is None and row["std_rank"] is None
                   for row in payload["rank_table"])

    def test_malformed_synthetic_manifest_rejected_before_any_run(
            self, tmp_path, monkeypatch):
        # a missing n_features used to abort the sweep with a KeyError; a
        # code-built manifest cannot be malformed, so the bad one is a file
        from kanagg import harness
        monkeypatch.setattr(harness, "execute_run",
                            lambda spec: pytest.fail("a run started"))
        bad = tmp_path / "bad.json"
        # the last four passed these checks, then failed every run
        for spec, problem in (
                ({"kind": "gaussian-blobs", "n_instances": 100},
                 "missing keys ['n_features']"),
                ({"kind": "gaussian-blobs", "n_features": 4,
                  "n_instances": 100, "nosie": 0.3}, "unknown keys ['nosie']"),
                ({"kind": "blobs", "n_features": 4, "n_instances": 100},
                 "unknown synthetic kind 'blobs'"),
                ({"kind": "gaussian-blobs", "n_features": 4, "n_instances": 5},
                 "need at least 10 instances, got 5"),
                ({"kind": "xor", "n_features": 1, "n_instances": 100},
                 "need at least 2 features, got 1"),
                ({"kind": "gaussian-blobs", "n_features": 4, "n_instances": 100,
                  "n_classes": 1}, "cannot place 1 distinct classes")):
            bad.write_text(json.dumps({"name": "bad", "synthetic": spec}))
            config = quick_config("sweep", datasets=(blob_manifest(), str(bad)))
            with pytest.raises(IngestionError, match=r"bad\.json: manifest 'bad'"):
                run_experiment(config)
            with pytest.raises(IngestionError, match="'bad'") as raised:
                DatasetManifest(name="bad", synthetic=spec)
            assert problem in str(raised.value)

    def test_duplicate_dataset_names_rejected_before_any_run(self, monkeypatch):
        # run ids and seeds derive from the name: two datasets named alike
        # would share them, and the report would mix their runs
        from kanagg import harness
        monkeypatch.setattr(harness, "execute_run",
                            lambda spec: pytest.fail("a run started"))
        xor = DatasetManifest(name="x", synthetic={
            "kind": "xor", "n_features": 3, "n_instances": 60})
        config = quick_config("compare", variants=("kan", "kan-avg"), runs=1,
                              datasets=(blob_manifest("x"), xor))
        with pytest.raises(ValueError, match="^two datasets are named 'x'$"):
            run_experiment(config)

    def test_each_manifest_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        from kanagg import harness
        calls = []

        def counting_load_manifest(path):
            calls.append(path)
            return load_manifest(path)

        monkeypatch.setattr(harness, "load_manifest", counting_load_manifest)
        paths = []
        for name, n_features in (("ds-a", 3), ("ds-b", 4)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, "synthetic": {
                "kind": "gaussian-blobs", "n_features": n_features,
                "n_instances": 40, "n_classes": 2}}))
            paths.append(str(path))
        payload, records = run_experiment(quick_config(
            "sweep", datasets=tuple(paths), iterations=1))
        assert len(records) == 2 * 81 and not payload["failures"]
        assert payload["datasets"] == ["ds-a", "ds-b"]
        assert calls == paths

    @staticmethod
    def spy_parses(monkeypatch, tmp_path):
        """Empty the harness's tables and log every harness.load_table call,
        made in this process or in a pool worker forked from it, as a line
        "pid path" of a file; returns a function reading the calls so far."""
        from kanagg import harness
        log = tmp_path / "parses.log"
        log.touch()

        def spy(path, manifest):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {path}\n")
            return load_table(path, manifest)

        monkeypatch.setattr(harness, "_tables", {})
        monkeypatch.setattr(harness, "load_table", spy)
        return lambda: [tuple(line.split(" ", 1))
                        for line in log.read_text().splitlines()]

    @staticmethod
    def write_file_dataset(tmp_path, n_rows, labels="xy", mtime_ns=None,
                           name="demo"):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(f"{'rb'[i % 2]},{i},{labels[i % len(labels)]}\n"
                                for i in range(n_rows)))
        if mtime_ns is not None:
            os.utime(path, ns=(mtime_ns, mtime_ns))
        return DatasetManifest(
            name=name, path=str(path), expected_instances=40, expected_classes=2,
            columns=(ColumnSpec("c", "feature", "categorical"),
                     ColumnSpec("v", "feature", "numeric"),
                     ColumnSpec("y", "target", "categorical")))

    def test_file_parsed_once_per_process(self, tmp_path, monkeypatch):
        calls = self.spy_parses(monkeypatch, tmp_path)
        manifest = self.write_file_dataset(tmp_path, 40)
        payload, records = run_experiment(quick_config(
            "adherence", datasets=(manifest,), iterations=3, parallelism=2))
        assert len(records) == 3 and not payload["failures"]
        # parsed once, by the process that planned the experiment
        assert calls() == [(str(os.getpid()), manifest.path)]

    def test_rewritten_file_parsed_again(self, tmp_path, monkeypatch):
        calls = self.spy_parses(monkeypatch, tmp_path)
        mtime = 1_700_000_000 * 10 ** 9
        manifest = self.write_file_dataset(tmp_path, 40, mtime_ns=mtime)
        config = quick_config("adherence", datasets=(manifest,), variants=("kan",),
                              runs=2, iterations=3, parallelism=2)

        def warnings():
            payload, records = run_experiment(config)
            assert records[0]["warnings"] == records[1]["warnings"]
            return records[0]["warnings"]

        # a second experiment on the unchanged file parses nothing
        assert warnings() == [] and warnings() == [] and len(calls()) == 1
        # a new size with the same mtime, then the same size with a new mtime
        self.write_file_dataset(tmp_path, 50, mtime_ns=mtime)
        assert warnings() == ["expected 40 instances, found 50"]
        self.write_file_dataset(tmp_path, 50, labels="xyz", mtime_ns=mtime + 10 ** 9)
        assert warnings() == ["expected 40 instances, found 50",
                              "expected 2 classes, found 3"]
        assert calls() == [(str(os.getpid()), manifest.path)] * 3

    def test_each_file_parsed_once_per_experiment(self, tmp_path, monkeypatch):
        calls = self.spy_parses(monkeypatch, tmp_path)
        a = self.write_file_dataset(tmp_path, 40, name="a")
        b = self.write_file_dataset(tmp_path, 60, name="b")
        payload, records = run_experiment(quick_config(
            "adherence", datasets=(a, blob_manifest(), b, a), variants=("kan",),
            runs=2, iterations=3, parallelism=2))
        # a listed twice is one dataset: 3 datasets x 2 runs
        assert len(records) == 6 and not payload["failures"]
        assert payload["datasets"] == ["a", "mini-blobs", "b"]
        assert sorted(calls()) == [(str(os.getpid()), a.path),
                                   (str(os.getpid()), b.path)]

    def test_failed_file_parsed_once_per_process(self, tmp_path, monkeypatch):
        calls = self.spy_parses(monkeypatch, tmp_path)
        manifest = self.write_file_dataset(tmp_path, 2000)
        with open(manifest.path, "a") as f:
            f.write("r,not-a-number,x\n")       # row 2001: a bad numeric cell
        payload, records = run_experiment(quick_config(
            "adherence", datasets=(manifest,), iterations=3, parallelism=2))
        assert calls() == [(str(os.getpid()), manifest.path)]
        assert len(records) == 3 and all(r["status"] == "failed" for r in records)
        assert {r["error"] for r in records} == {
            f"IngestionError: {manifest.path}: row 2001, column 'v': "
            f"cannot parse 'not-a-number' as a finite number"}

    def test_file_failures_same_in_parallel(self, tmp_path, monkeypatch):
        calls = self.spy_parses(monkeypatch, tmp_path)
        bad = self.write_file_dataset(tmp_path, 40, name="bad")
        with open(bad.path, "a") as f:
            f.write("r,1,x,extra\n")
        gone = self.write_file_dataset(tmp_path, 40, name="gone")
        os.remove(gone.path)
        huge = self.write_file_dataset(tmp_path, 40, name="huge")
        with open(huge.path, "a") as f:    # a field the csv module will not read
            f.write('"' + "r" * 140_000 + '",1,x\n')
        config = quick_config("adherence", datasets=(bad, gone, huge),
                              variants=("kan",), runs=2, iterations=3)
        serial = run_experiment(config)[1]
        parallel = run_experiment(replace(config, parallelism=2))[1]
        assert parallel == serial and len(serial) == 6
        assert [r["error"] for r in serial] == 2 * [
            f"IngestionError: {bad.path}: row 41 has 4 fields, manifest 'bad' "
            f"declares 3 columns"] + 2 * [
            f"IngestionError: cannot open {gone.path}: [Errno 2] "
            f"No such file or directory: {gone.path!r}"] + 2 * [
            f"IngestionError: {huge.path}: row 41: field larger than field "
            f"limit (131072)"]
        # the unparseable files' failures are kept; the missing file is tried again
        pid = str(os.getpid())
        assert calls() == [(pid, bad.path), (pid, gone.path), (pid, huge.path),
                           (pid, gone.path)]

    def test_file_run_reproduces_in_isolation(self, tmp_path, monkeypatch):
        # a run started outside an experiment used to raise KeyError: only
        # an experiment put its file's table where the run reads it
        from kanagg import harness
        from kanagg.harness import RunSpec, execute_run
        manifest = self.write_file_dataset(tmp_path, 40)
        config = quick_config("compare", datasets=(manifest,),
                              variants=("kan", "kan-avg"), runs=2, iterations=5)
        payload, records = run_experiment(config)
        assert len(records) == 4 and not payload["failures"]
        specs = [RunSpec(manifest, r["label"], r["run_index"], config) for r in records]
        monkeypatch.setattr(harness, "_tables", {})
        assert [execute_run(s) for s in specs] == records
        other = self.write_file_dataset(tmp_path, 60, name="other")
        run_experiment(replace(config, datasets=(other,)))
        assert manifest not in harness._tables
        assert [execute_run(s) for s in specs] == records

    def test_two_row_file_fails_on_its_empty_evaluation_split(self, tmp_path):
        # the 2-row split has empty val and test splits; evaluating either fails
        manifest = self.write_file_dataset(tmp_path, 2)
        _, records = run_experiment(quick_config(
            "compare", datasets=(manifest,), variants=("kan",), runs=1, iterations=3))
        assert [(r["status"], r["error"]) for r in records] == [
            ("failed", "ValueError: evaluation set is empty")]

    def test_file_dataset_parallel_equals_serial(self, tmp_path, monkeypatch):
        calls = self.spy_parses(monkeypatch, tmp_path)
        manifest = self.write_file_dataset(tmp_path, 200)
        config = quick_config("compare", datasets=(manifest,), runs=2, iterations=5)
        ps, rs = run_experiment(config)
        pp, rp = run_experiment(replace(config, parallelism=2))
        assert json.dumps(ps, sort_keys=True) == json.dumps(pp, sort_keys=True)
        assert rs == rp and not ps["failures"]
        assert calls() == [(str(os.getpid()), manifest.path)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            quick_config("nonsense").validate()
        with pytest.raises(ValueError):
            quick_config("compare", variants=("kan", "mystery")).validate()
        with pytest.raises(ValueError):
            quick_config("sweep", runs=0).validate()
        for bad in ({"iterations": 0}, {"batch_size": 0}, {"learning_rate": -1.0},
                    {"hidden_width": 0}, {"parallelism": -2}):
            with pytest.raises(ValueError):
                quick_config("compare", **bad).validate()
        quick_config("compare", learning_rate=0.0).validate()   # lr = 0 is legal

    def test_int_settings_are_the_integer_fields(self):
        # annotations are postponed, so a field's type is its source text
        assert set(INT_SETTINGS) == {f.name for f in fields(ExperimentConfig)
                                     if f.type in ("int", "int | None")}

    @pytest.mark.parametrize("name, value", [
        ("datasets", "manifests/synth-xor.json"), ("variants", "kan"),
        ("aggregators", "sum"), ("datasets", blob_manifest())])
    def test_list_settings_must_be_lists(self, name, value):
        # a string used to be read as its characters: manifest 'm', variant 'k'
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a list, "
                                                       f"got {value!r}")):
            quick_config("compare", **{name: value}).validate()
        quick_config("compare", datasets=[blob_manifest()], variants=["kan"],
                     aggregators=["sum"]).validate()    # a list is one


class TestCli:
    def _write_synth_manifest(self, tmp_path, **extra):
        p = tmp_path / "blobs.json"
        p.write_text(json.dumps({
            "name": "cli-blobs",
            "synthetic": {"kind": "gaussian-blobs", "n_features": 4,
                          "n_instances": 140, "n_classes": 2, **extra}}))
        return p

    def test_sweep_verb(self, tmp_path, capsys):
        manifest = self._write_synth_manifest(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--dataset", str(manifest),
                       "--aggregators", "sum", "mean",
                       "--iterations", "25", "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["payload"]["mode"] == "sweep"
        assert len(report["payload"]["combinations"]) == 4
        assert (out / "summary.txt").exists()
        assert "mean rank" in capsys.readouterr().out

    def test_compare_verb_with_config_file(self, tmp_path):
        manifest = self._write_synth_manifest(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "datasets": [str(manifest)],
            "variants": ["kan", "kan-avg"],
            "runs": 2, "iterations": 20, "seed": 5}))
        out = tmp_path / "out"
        rc = cli_main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["config"]["runs"] == 2
        assert payload["config"]["strict_replication"] is False
        runs = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        assert all(r["widths"][-1] == r["n_classes"] for r in runs)

    def test_adherence_verb(self, tmp_path):
        manifest = self._write_synth_manifest(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["adherence", "--dataset", str(manifest),
                       "--variants", "kan", "kan-avg",
                       "--iterations", "20", "--out", str(out)])
        assert rc == 0
        assert (out / "adherence.tsv").exists()

    def test_dataset_warnings_in_run_records(self, tmp_path):
        (tmp_path / "demo.csv").write_text("\n".join(
            f"{'rb'[i % 2]},{i},{'xy'[i % 2]}" for i in range(40)) + "\n")
        manifest = tmp_path / "demo.json"
        manifest.write_text(json.dumps({
            "name": "demo", "path": "demo.csv",
            "columns": [
                {"name": "c", "role": "feature", "type": "categorical"},
                {"name": "v", "role": "feature", "type": "numeric"},
                {"name": "y", "role": "target", "type": "categorical"}],
            "expected": {"instances": 50, "classes": 2}}))
        out = tmp_path / "out"
        rc = cli_main(["compare", "--dataset", str(manifest),
                       "--variants", "kan", "--runs", "1",
                       "--iterations", "5", "--out", str(out)])
        assert rc == 0
        run = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        assert run["warnings"] == ["expected 50 instances, found 40"]

    def test_failed_runs_exit_nonzero(self, tmp_path, capsys):
        manifest = tmp_path / "broken.json"
        manifest.write_text(json.dumps({
            "name": "broken", "path": "missing.csv",
            "columns": [{"name": "a", "role": "feature", "type": "numeric"},
                        {"name": "y", "role": "target", "type": "categorical"}]}))
        out = tmp_path / "out"
        rc = cli_main(["compare", "--dataset", str(manifest),
                       "--variants", "kan", "--runs", "1",
                       "--iterations", "5", "--out", str(out)])
        assert rc == 1
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["failures"]

    def test_strict_replication_flag_recorded(self, tmp_path):
        manifest = self._write_synth_manifest(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["compare", "--dataset", str(manifest),
                       "--variants", "kan-avg", "--runs", "1",
                       "--iterations", "20", "--strict-replication",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["config"]["strict_replication"] is True
        run = [json.loads(l) for l in
               (out / "runs.jsonl").read_text().splitlines()][0]
        assert run["widths"][-1] == 1

    def test_malformed_manifest_is_one_line_error(self, tmp_path, capsys):
        manifest = tmp_path / "typo.json"
        manifest.write_text(json.dumps({
            "name": "typo", "delimter": ";",
            "synthetic": {"kind": "xor", "n_features": 2, "n_instances": 60}}))
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--dataset", str(manifest), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("kanagg: error: manifest ")
        assert "typo.json" in err and "delimter" in err
        assert not out.exists()

    def test_duplicate_dataset_names_are_one_line_error(self, tmp_path, capsys):
        blobs = self._write_synth_manifest(tmp_path)
        xor = tmp_path / "xor.json"
        xor.write_text(json.dumps({"name": "cli-blobs", "synthetic": {
            "kind": "xor", "n_features": 3, "n_instances": 60}}))
        out = tmp_path / "out"
        rc = cli_main(["compare", "--dataset", str(blobs), "--dataset", str(xor),
                       "--iterations", "5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "kanagg: error: two datasets are named 'cli-blobs'\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "bad-flag-value", "unknown-config-key", "missing-manifest",
        "zero-iterations", "zero-hidden-width", "zero-batch-size",
        "negative-learning-rate", "negative-parallelism", "string-datasets",
        "string-runs", "float-iterations", "nan-learning-rate", "bool-batch-size",
        "string-strict-replication", "array-config", "null-config",
        "number-dataset", "object-dataset", "list-variant", "list-aggregator",
        "string-missing-values", "number-out-dir", "out-under-a-file",
        "empty-variants", "empty-aggregators", "null-variants", "null-aggregators",
        "null-out-dir", "other-mode"])
    def test_invalid_settings_are_one_line_errors(self, tmp_path, capsys, case):
        manifest = str(self._write_synth_manifest(tmp_path))
        na_manifest = tmp_path / "na.json"
        na_manifest.write_text(json.dumps({
            "name": "na", "path": "na.csv", "missing_values": "NA", "columns": [
                {"name": "a", "role": "feature", "type": "numeric"},
                {"name": "y", "role": "target", "type": "categorical"}]}))
        # (config-file settings, its JSON text, or None; flags; message)
        settings, flags, message = {
            "bad-flag-value": (None, ["--dataset", manifest, "--runs", "0"],
                               "runs must be >= 1"),
            "unknown-config-key": ({"datasets": [manifest], "runz": 3}, [],
                                   "unexpected keyword argument 'runz'"),
            "missing-manifest": (None, ["--dataset", str(tmp_path / "missing.json")],
                                 "missing.json"),
            "zero-iterations": (None, ["--dataset", manifest, "--iterations", "0"],
                                "iterations must be >= 1"),
            "zero-hidden-width": ({"datasets": [manifest], "hidden_width": 0}, [],
                                  "hidden_width must be >= 1"),
            "zero-batch-size": ({"datasets": [manifest], "batch_size": 0}, [],
                                "batch_size must be >= 1"),
            "negative-learning-rate": ({"datasets": [manifest], "learning_rate": -1},
                                       [], "learning_rate must be a finite number "
                                           ">= 0, got -1"),
            "negative-parallelism": ({"datasets": [manifest], "parallelism": -2}, [],
                                     "parallelism must be >= 1"),
            "string-datasets": ({"datasets": manifest}, [], "datasets must be a list"),
            "string-runs": ({"datasets": [manifest], "runs": "3"}, [],
                            "runs must be an integer, got '3'"),
            "float-iterations": ({"datasets": [manifest], "iterations": 2.5}, [],
                                 "iterations must be an integer, got 2.5"),
            "nan-learning-rate": ({"datasets": [manifest], "learning_rate": math.nan},
                                  [], "learning_rate must be a finite number"),
            "bool-batch-size": ({"datasets": [manifest], "batch_size": True}, [],
                                "batch_size must be an integer, got True"),
            "string-strict-replication": (
                {"datasets": [manifest], "strict_replication": "no"}, [],
                "strict_replication must be true or false"),
            "array-config": ("[1, 2]", [], "top level is a list, not an object"),
            "null-config": ("null", [], "top level is a NoneType, not an object"),
            "number-dataset": ({"datasets": [manifest, 3]}, [],
                               "datasets must be manifest paths, got [3]"),
            "object-dataset": ({"datasets": [{"name": "x"}]}, [],
                               "datasets must be manifest paths, got [{'name': 'x'}]"),
            "list-variant": ({"datasets": [manifest], "variants": [["kan"]]}, [],
                             "unknown variants [['kan']]"),
            "list-aggregator": ({"datasets": [manifest], "aggregators": [["sum"]]}, [],
                                "unknown aggregators [['sum']]"),
            "string-missing-values": (None, ["--dataset", str(na_manifest)],
                                      "missing_values must be a list of strings, "
                                      "got 'NA'"),
            # both used to run every experiment, then fail writing the report
            "number-out-dir": ({"datasets": [manifest], "out_dir": 5}, [],
                               "out_dir must be a path, got 5"),
            "out-under-a-file": (None, ["--dataset", manifest,
                                        "--out", f"{manifest}/out"], "Not a directory"),
            # the first ran nothing and exited 0, the second failed after its runs
            "empty-variants": ({"datasets": [manifest], "variants": []}, [],
                               "variants is empty: a compare plans its runs from it"),
            "empty-aggregators": ({"datasets": [manifest], "aggregators": []}, [],
                                  "aggregators is empty: a sweep plans its runs from it"),
            # the first two ended in a TypeError traceback, the third after its runs
            "null-variants": ({"datasets": [manifest], "variants": None}, [],
                              "keys ['variants'] are null; "
                              "leave a key out for its default"),
            "null-aggregators": ({"datasets": [manifest], "aggregators": None}, [],
                                 "keys ['aggregators'] are null"),
            "null-out-dir": ({"datasets": [manifest], "out_dir": None},
                             ["--runs", "1", "--iterations", "2"],
                             "keys ['out_dir'] are null"),
            # a compare used to run, and exit 0
            "other-mode": ({"datasets": [manifest], "mode": "sweep"},
                           ["--runs", "1", "--iterations", "2"],
                           "mode 'sweep' is not 'compare'; the verb sets the mode"),
        }[case]
        mode = "sweep" if case.endswith("-aggregators") else "compare"
        if settings is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(settings if isinstance(settings, str)
                           else json.dumps(settings))
            flags = ["--config", str(cfg), *flags]
        out = tmp_path / "out"
        own_out = "--out" in flags or isinstance(settings, dict) and "out_dir" in settings
        rc = cli_main([mode, *flags, *([] if own_out else ["--out", str(out)])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("kanagg: error: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("name, least", [
        ("runs", 1), ("iterations", 1), ("batch_size", 1), ("hidden_width", 1),
        ("parallelism", 1)])
    def test_integer_setting_below_its_least_value(self, tmp_path, capsys, name, least):
        # iterations and batch_size were checked by TrainConfig, whose message
        # named the whole training config
        manifest = str(self._write_synth_manifest(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datasets": [manifest], name: least - 1}))
        out = tmp_path / "out"
        assert cli_main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"kanagg: error: {name} must be >= {least}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--variants", "kan"],
        ["compare", "--aggregators", "sum"],
        ["adherence", "--aggregators", "sum"]])
    def test_verb_offers_only_its_planning_flag(self, capsys, argv):
        # every verb used to accept both flags and ignore the one its mode
        # does not plan from
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("broken, code", [(False, 0), (True, 1)])
    def test_closed_stdout_is_not_a_failure(self, tmp_path, broken, code):
        # a reader that stops early (`kanagg ... | head -1`) used to leave a
        # BrokenPipeError traceback and a non-zero exit; the exit code still
        # tells whether every run completed
        import kanagg
        manifest = self._write_synth_manifest(tmp_path)
        if broken:
            manifest.write_text(json.dumps({
                "name": "broken", "path": "missing.csv", "columns": [
                    {"name": "a", "role": "feature", "type": "numeric"},
                    {"name": "y", "role": "target", "type": "categorical"}]}))
        src = str(Path(kanagg.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read, write = os.pipe()
        os.close(read)      # every write to the child's stdout fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kanagg.cli", "compare", "--dataset",
                 str(manifest), "--variants", "kan", "--runs", "1",
                 "--iterations", "2", "--out", str(tmp_path / "out")],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_config_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = ExperimentConfig.validate
        monkeypatch.setattr(ExperimentConfig, "validate",
                            lambda self: calls.append(1) or validate(self))
        manifest = self._write_synth_manifest(tmp_path)
        rc = cli_main(["compare", "--dataset", str(manifest), "--variants", "kan",
                       "--runs", "1", "--iterations", "2",
                       "--out", str(tmp_path / "out")])
        assert rc == 0 and len(calls) == 1
