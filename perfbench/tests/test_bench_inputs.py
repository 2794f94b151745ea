import json

import adult
from workloads import ROOT


def test_generator_is_deterministic_in_its_seed(tmp_path):
    a = adult.write_inputs(7, tmp_path / "a")
    b = adult.write_inputs(7, tmp_path / "b")
    c = adult.write_inputs(8, tmp_path / "c")
    data = [(p.parent / "adult.data").read_bytes() for p in (a, b, c)]
    assert data[0] == data[1]
    assert data[0] != data[2]
    assert a.read_text() == b.read_text()


def test_generated_file_has_the_adult_schema_and_shape(tmp_path):
    from kanagg.data import load_manifest, load_table, preprocess

    repo = json.loads((ROOT / "manifests/adult.json").read_text())
    manifest = load_manifest(adult.write_inputs(0, tmp_path))
    assert [(c.name, c.role, c.type) for c in manifest.columns] == [
        (c["name"], c["role"], c["type"]) for c in repo["columns"]]
    raw = load_table(manifest.path, manifest)
    assert raw.n_rows == adult.N_ROWS
    assert 0.008 < raw.n_missing / (raw.n_rows * len(manifest.columns)) < 0.012
    data = preprocess(raw, manifest, seed=0)
    assert data.warnings == []
    assert abs(data.labels.mean() - adult.POSITIVE_SHARE) < 0.005
    first = (tmp_path / "adult.data").read_text().splitlines()[0]
    assert first.count(", ") == len(manifest.columns) - 1
