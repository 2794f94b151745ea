"""Shipped manifests must parse, self-validate, and ingest files with the
documented UCI layouts. The stand-in files below only mimic the schema
(column counts, delimiters, sentinels); accuracy-level criteria run against
the real files when they are placed under data/.
"""

from pathlib import Path

import numpy as np
import pytest

from kanagg import load_manifest, load_table, preprocess
from kanagg.harness import ExperimentConfig, run_experiment

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
ALL_MANIFESTS = sorted(MANIFESTS.glob("*.json"))


@pytest.mark.parametrize("path", ALL_MANIFESTS, ids=lambda p: p.stem)
def test_manifest_loads_and_validates(path):
    m = load_manifest(path)
    assert m.name
    if m.synthetic is None:
        assert m.target_column() is not None
        if m.expected_features is not None:
            assert m.expected_features == len(m.feature_columns())


def _standin_rows(manifest, n, rng):
    rows = []
    for _ in range(n):
        cells = []
        for col in manifest.columns:
            if col.role == "target":
                cells.append(str(rng.integers(1, 4)))
            elif col.type == "numeric":
                cells.append(f"{rng.uniform(0, 9):.3f}")
            else:
                cells.append(rng.choice(["aa", "bb", "cc"]))
        rows.append(cells)
    return rows


@pytest.mark.parametrize("name,delim,line_format", [
    ("dermatology", ",", None),
    ("german", "whitespace", None),
    ("abalone", ",", None),
    ("car", ",", None),
    ("adult", ",", None),
    ("connect-4", ",", None),
])
def test_uci_schema_ingestion(tmp_path, name, delim, line_format):
    manifest = load_manifest(MANIFESTS / f"{name}.json")
    rng = np.random.default_rng(1)
    rows = _standin_rows(manifest, 60, rng)
    if manifest.missing_values:  # exercise the sentinel path
        rows[3][0] = manifest.missing_values[0]
    sep = " " if delim == "whitespace" else delim
    path = tmp_path / Path(manifest.path).name
    path.write_text("\n".join(sep.join(r) for r in rows) + "\n")
    standin = type(manifest)(**{**manifest.__dict__, "path": str(path),
                                "expected_instances": None,
                                "expected_classes": None})
    raw = load_table(path, standin)
    assert raw.n_rows == 60
    data = preprocess(raw, standin, seed=3)
    assert data.n_features == len(manifest.feature_columns())
    assert np.all(np.isfinite(data.features))


def test_bank_full_header_and_quotes(tmp_path):
    manifest = load_manifest(MANIFESTS / "bank-full.json")
    header = ";".join(f'"{c.name}"' for c in manifest.columns)
    rng = np.random.default_rng(2)
    rows = _standin_rows(manifest, 40, rng)
    quoted = [";".join(f'"{c}"' for c in r) for r in rows]
    path = tmp_path / "bank-full.csv"
    path.write_text(header + "\n" + "\n".join(quoted) + "\n")
    standin = type(manifest)(**{**manifest.__dict__, "path": str(path),
                                "expected_instances": None,
                                "expected_classes": None})
    raw = load_table(path, standin)
    assert raw.n_rows == 40


def test_synthetic_manifests_run_end_to_end(tmp_path):
    manifest = load_manifest(MANIFESTS / "synth-blobs-demo.json")
    config = ExperimentConfig(mode="compare", datasets=(manifest,),
                              variants=("kan-avg",), runs=1, iterations=20,
                              seed=1)
    payload, records = run_experiment(config)
    assert not payload["failures"]
    assert records[0]["widths"][0] == 6
