"""Acceptance suite: one test per release criterion, each at its stated
tolerance. The conftest hook prints one PASS/FAIL line per criterion after
the run. UCI-backed criteria need the raw files under data/ (see
data/README.md); without them those tests skip with instructions.
"""

import json
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from kanagg import (ExperimentConfig, NetworkConfig, backward,
                    build_network, forward, load_manifest, load_table,
                    mean_to_scaled_sum, preprocess, rank_with_ties,
                    run_adherence, run_comparison, run_sweep,
                    softmax_cross_entropy, wilcoxon_signed_rank,
                    write_report)
from kanagg.aggregators import AGGREGATOR_NAMES
from kanagg.data import ColumnSpec, DatasetManifest
from kanagg.splines import basis_matrix, make_grid

from oracles import brute_force_wilcoxon, naive_basis_vector, naive_silu, \
    relative_error, sort_based_ranks

REPO = Path(__file__).resolve().parent.parent
MANIFESTS = REPO / "manifests"
DATA = REPO / "data"


def _require_data(*filenames):
    missing = [f for f in filenames if not (DATA / f).exists()]
    if missing:
        pytest.skip(
            f"UCI file(s) {missing} not present under {DATA}; download them "
            f"from the UCI repository and retry (no auto-download by design)")


@pytest.mark.acceptance("1", "spline correctness")
def test_criterion_1_spline_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for G, k in product((1, 3, 5), (0, 1, 3)):
        grid = make_grid(-1.0, 1.0, G, k)
        xs = rng.uniform(-1.0, 1.0 - 1e-12, 1000)
        vals, derivs = basis_matrix(xs, grid)
        assert np.all(np.abs(vals[:, :-1].sum(axis=1) - 1.0) < 1e-9)
        for x in xs[:40]:
            i = xs.tolist().index(x)
            np.testing.assert_allclose(vals[i, :-1], naive_basis_vector(x, grid),
                                       atol=1e-10)
            # the last column is the silu residual, the last derivative silu'
            np.testing.assert_allclose(vals[i, -1], naive_silu(x), atol=1e-10)
            np.testing.assert_allclose(
                derivs[i, -1], (naive_silu(x + 1e-6) - naive_silu(x - 1e-6)) / 2e-6,
                atol=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


@pytest.mark.acceptance("2", "gradient integrity")
def test_criterion_2_gradient_integrity():
    started = time.perf_counter()
    step = 1e-5
    n_points = 20
    for agg_i, agg in enumerate(AGGREGATOR_NAMES):
        rng = np.random.default_rng(500 + agg_i)
        net = build_network(NetworkConfig((3, 4, 2), (agg, agg), seed=300 + agg_i))
        for layer in net.layers:
            layer.w_base[...] = rng.normal(1.0, 0.25, layer.w_base.shape)
            layer.w_spline[...] = rng.normal(1.0, 0.25, layer.w_spline.shape)
        xs = rng.uniform(-1.3, 1.3, (n_points, 3))
        labels = rng.integers(0, 2, n_points)
        params = net.params

        analytic = np.zeros((n_points, params.size))
        for j in range(n_points):
            logits, trace = forward(net, xs[j: j + 1], trace=True)
            _, d_logits = softmax_cross_entropy(logits, labels[j: j + 1])
            analytic[j] = backward(net, trace, d_logits)

        def batch_losses():
            losses, _ = softmax_cross_entropy(forward(net, xs), labels)
            return losses

        for idx in range(params.size):
            orig = params[idx]
            params[idx] = orig + step
            hi = batch_losses()
            params[idx] = orig - step
            lo = batch_losses()
            params[idx] = orig
            fd = (hi - lo) / (2 * step)
            err = relative_error(analytic[:, idx], fd, floor=1e-6)
            assert err.max() < 1e-3, \
                f"{agg}: param {idx} err {err.max():.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"


@pytest.mark.acceptance("3", "mean equals scaled-sum identity")
def test_criterion_3_scaled_sum_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    for _ in range(100):
        depth = int(rng.integers(2, 4))
        widths = tuple(int(rng.integers(1, 8)) for _ in range(depth + 1))
        net = build_network(NetworkConfig(
            widths, ("mean",) * depth, seed=int(rng.integers(1 << 30)),
            grid_size=int(rng.choice([1, 3, 5])), degree=int(rng.choice([0, 1, 3]))))
        for layer in net.layers:
            layer.coeffs[...] = rng.normal(0, 0.4, layer.coeffs.shape)
            layer.w_base[...] = rng.normal(size=layer.w_base.shape)
            layer.w_spline[...] = rng.normal(size=layer.w_spline.shape)
        twin = mean_to_scaled_sum(net)
        x = rng.uniform(-2.0, 2.0, (100, widths[0]))
        diff = np.abs(forward(net, x) - forward(twin, x)).max()
        assert diff < 1e-9, f"widths {widths}: max deviation {diff:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"


@pytest.mark.acceptance("4", "wilcoxon exactness")
def test_criterion_4_wilcoxon_exactness():
    rng = np.random.default_rng(44)
    for case in range(200):
        n = int(rng.integers(1, 13))
        b = rng.normal(size=n)
        a = b + rng.normal(size=n)
        if case % 3 == 0:  # ties in |d|
            a = b + rng.choice([-1.0, 1.0], n) * rng.integers(0, 3, n) * 0.5
        if case % 4 == 0 and n > 1:  # exact zero differences
            a[: n // 2] = b[: n // 2]
        res = wilcoxon_signed_rank(a, b)
        w_oracle, p_oracle = brute_force_wilcoxon(a.tolist(), b.tolist())
        assert res.w_plus == pytest.approx(w_oracle, abs=1e-12)
        assert res.p_value == pytest.approx(p_oracle, abs=1e-12)
        m = res.n_effective
        assert res.w_plus + res.w_minus == pytest.approx(m * (m + 1) / 2, abs=1e-9)


@pytest.mark.acceptance("5", "tied ranking")
def test_criterion_5_ranking():
    rng = np.random.default_rng(55)
    for case in range(500):
        n = int(rng.integers(1, 60))
        if case % 2 == 0:  # heavy ties
            scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)
        else:
            scores = rng.normal(size=n)
        mine = rank_with_ties(scores)
        oracle = sort_based_ranks(scores.tolist())
        np.testing.assert_allclose(mine, oracle, atol=1e-12)


def _uci_compare_config(names, runs, iterations, seed=2024):
    manifests = tuple(load_manifest(MANIFESTS / f"{name}.json") for name in names)
    return ExperimentConfig(
        mode="compare", datasets=manifests, variants=("kan", "kan-avg"),
        runs=runs, iterations=iterations, seed=seed)


@pytest.mark.acceptance("6", "kan-avg beats kan on dermatology and german")
def test_criterion_6_table4_directional():
    _require_data("dermatology.data", "german.data-numeric")
    started = time.perf_counter()
    payload, _ = run_comparison(_uci_compare_config(
        ("dermatology", "german"), runs=5, iterations=500))
    assert not payload["failures"], payload["failures"]
    for ds in ("dermatology", "german"):
        avg = payload["accuracy"][ds]["kan-avg"]["mean"]
        kan = payload["accuracy"][ds]["kan"]["mean"]
        assert avg > kan, f"{ds}: kan-avg {avg:.4f} not above kan {kan:.4f}"
    assert payload["accuracy"]["dermatology"]["kan-avg"]["mean"] >= 0.85
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"criterion 6 took {elapsed:.0f}s"


@pytest.mark.acceptance("7a", "adherence on 30-feature synthetic data")
def test_criterion_7a_adherence_synthetic():
    manifest = load_manifest(MANIFESTS / "synth-adherence-30f.json")
    config = ExperimentConfig(
        mode="adherence", datasets=(manifest,), variants=("kan", "kan-avg"),
        iterations=2000, seed=31)
    payload, _ = run_adherence(config)
    assert not payload["failures"]
    variants = payload["adherence"]["synth-adherence-30f"]["variants"]
    avg = variants["kan-avg"][0]
    kan = variants["kan"][0]
    assert avg >= 0.99, f"kan-avg adherence {avg:.4f} below 0.99"
    assert kan < avg, f"plain kan adherence {kan:.4f} not strictly lower"


@pytest.mark.acceptance("7b", "abalone adherence matches reported rate")
def test_criterion_7b_adherence_abalone():
    _require_data("abalone.data")
    manifest = load_manifest(MANIFESTS / "abalone.json")
    config = ExperimentConfig(
        mode="adherence", datasets=(manifest,), variants=("kan-avg",),
        runs=3, iterations=2000, seed=7)
    payload, _ = run_adherence(config)
    assert not payload["failures"]
    frac = payload["adherence"]["abalone"]["variants"]["kan-avg"][0]
    assert abs(frac - 0.9651) <= 0.025, \
        f"abalone kan-avg adherence {frac:.4f} not within 0.9651 +/- 0.025"


@pytest.mark.acceptance("8", "experiment determinism")
def test_criterion_8_determinism(tmp_path):
    manifest = DatasetManifest(name="det-blobs", synthetic={
        "kind": "gaussian-blobs", "n_features": 4, "n_instances": 160,
        "n_classes": 2})
    config = ExperimentConfig(mode="compare", datasets=(manifest,),
                              variants=("kan", "kan-avg"), runs=2,
                              iterations=40, seed=99)
    outputs = []
    for tag in ("a", "b"):
        payload, records = run_comparison(config)
        out = write_report(payload, records, tmp_path / tag)
        outputs.append((
            json.dumps(json.loads((out / "report.json").read_text())["payload"],
                       sort_keys=True),
            (out / "runs.jsonl").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


@pytest.mark.acceptance("9", "preprocessing splits and leakage")
def test_criterion_9_preprocessing(tmp_path):
    manifest = DatasetManifest(name="split-check", columns=(
        ColumnSpec("cat", "feature", "categorical"),
        ColumnSpec("num", "feature", "numeric"),
        ColumnSpec("y", "target", "categorical")))
    for n, expected in ((100, (60, 20, 20)), (101, (61, 20, 20)),
                        (99, (59, 20, 20))):
        path = tmp_path / f"{n}.csv"
        path.write_text("\n".join(
            f"{'abc'[i % 3]},{i * 0.37},{'xy'[i % 2]}" for i in range(n)) + "\n")
        raw = load_table(path, manifest)
        data = preprocess(raw, manifest, seed=5)
        sizes = (len(data.train_idx), len(data.val_idx), len(data.test_idx))
        assert sizes == expected
        for got, want in zip(sizes, (0.6 * n, 0.2 * n, 0.2 * n)):
            assert abs(got - want) <= 1.0

    def leak_table(mutated):
        # rows in `mutated` get a new numeric value and a new category
        path = tmp_path / "leak.csv"
        path.write_text("".join(
            f"{'mutant' if i in mutated else 'abc'[i % 3]},"
            f"{-9999.0 if i in mutated else i * 1.13},{'xy'[i % 2]}\n"
            for i in range(80)))
        return load_table(path, manifest)

    before = preprocess(leak_table(()), manifest, seed=11)
    after = preprocess(leak_table(set(before.test_idx.tolist())), manifest, seed=11)
    np.testing.assert_array_equal(before.features[before.train_idx],
                                  after.features[after.train_idx])


@pytest.mark.acceptance("S", "structural sweep over all 81 combinations")
def test_criterion_structural_sweep(tmp_path):
    manifest = DatasetManifest(name="sweep-blobs", synthetic={
        "kind": "gaussian-blobs", "n_features": 4, "n_instances": 160,
        "n_classes": 2})
    config = ExperimentConfig(mode="sweep", datasets=(manifest,),
                              iterations=100, seed=11)
    payload, records = run_sweep(config)
    assert len(payload["combinations"]) == 81
    assert not payload["failures"]
    ranks = sorted(payload["ranks"]["sweep-blobs"].values())
    assert len(ranks) == 81
    assert sum(ranks) == pytest.approx(81 * 82 / 2)
    assert ranks[0] >= 1.0 and ranks[-1] <= 81.0
    rows = payload["rank_table"]
    assert [r["mean_rank"] for r in rows] == sorted(r["mean_rank"] for r in rows)
    write_report(payload, records, tmp_path / "sweep")
    assert (tmp_path / "sweep" / "report.json").exists()
