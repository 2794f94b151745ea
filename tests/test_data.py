import json

import numpy as np
import pytest

from kanagg import IngestionError, PreprocessError, load_manifest, load_table, \
    preprocess, synthetic_dataset
from kanagg.data import ColumnSpec, DatasetManifest, RawTable

from oracles import naive_encode_categorical


def manifest_for(columns, **kw):
    return DatasetManifest(name=kw.pop("name", "t"), columns=tuple(columns), **kw)


MIXED = manifest_for([
    ColumnSpec("color", "feature", "categorical"),
    ColumnSpec("size", "feature", "numeric"),
    ColumnSpec("label", "target", "categorical"),
])
CATEGORICAL = manifest_for([
    ColumnSpec("color", "feature", "categorical"),
    ColumnSpec("label", "target", "categorical"),
])
BLOBS = {"kind": "gaussian-blobs", "n_features": 4, "n_instances": 100}


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadTable:
    def test_missing_sentinel_recorded(self, tmp_path):
        p = write(tmp_path, "red,1.0,a\nblue,?,b\nred,3.0,a\n")
        raw = load_table(p, MIXED)
        assert raw.n_rows == 3
        assert raw.n_missing == 1
        assert raw.columns["size"][1] is None

    def test_column_count_enforced(self, tmp_path):
        ok = write(tmp_path, "red,1.0,a\nblue,2.0,b\n")
        assert load_table(ok, MIXED).n_rows == 2
        bad = write(tmp_path, "red,1.0,a\nblue,2.0\n", name="bad.csv")
        with pytest.raises(IngestionError, match="row 2"):
            load_table(bad, MIXED)

    def test_feature_count_expectation(self):
        # checked when the manifest is built, before any file is read
        with pytest.raises(IngestionError, match="expects 3"):
            manifest_for(MIXED.columns, expected_features=3)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(IngestionError, match="no data rows"):
            load_table(p, MIXED)

    def test_unparseable_numeric_located(self, tmp_path):
        p = write(tmp_path, "red,1.0,a\nblue,oops,b\n")
        with pytest.raises(IngestionError, match="row 2, column 'size'"):
            load_table(p, MIXED)

    def test_non_finite_numeric_rejected(self, tmp_path):
        # float() parses these; a NaN min/max would silently zero the column
        for cell in ("nan", "inf", "-Infinity"):
            p = write(tmp_path, f"red,1.0,a\nblue,{cell},b\n")
            with pytest.raises(IngestionError, match="row 2, column 'size'"):
                load_table(p, MIXED)

    def test_whitespace_delimiter_and_header(self, tmp_path):
        m = manifest_for(MIXED.columns, delimiter="whitespace", has_header=True)
        p = write(tmp_path, "color size label\nred 1.0 a\nblue  2.0\tb\n")
        raw = load_table(p, m)
        assert raw.n_rows == 2
        assert raw.columns["size"] == [1.0, 2.0]

    def test_missing_file(self):
        with pytest.raises(IngestionError):
            load_table("/nonexistent/file.csv", MIXED)


class TestPreprocess:
    def test_first_appearance_codes(self, tmp_path):
        rows = "\n".join(f"{'red' if i % 2 else 'blue'},{i},{'ab'[i % 2]}"
                         for i in range(10))
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=1, scale_features=False)
        col = data.features[:, 0]
        codes = {}
        for i in data.train_idx:   # first appearance in shuffled train order
            codes.setdefault(raw.columns["color"][i], col[i])
        assert codes[raw.columns["color"][data.train_idx[0]]] == 0.0
        assert sorted(codes.values()) == [0.0, 1.0]

    def test_split_sizes_60_20_20(self, tmp_path):
        rows = "\n".join(f"v{i % 7},{i},{'a' if i % 2 else 'b'}" for i in range(100))
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=3)
        assert (len(data.train_idx), len(data.val_idx), len(data.test_idx)) \
            == (60, 20, 20)
        all_idx = np.concatenate([data.train_idx, data.val_idx, data.test_idx])
        assert sorted(all_idx.tolist()) == list(range(100))

    def test_split_remainder_goes_to_train(self, tmp_path):
        rows = "\n".join(f"v,{i},{'a' if i % 2 else 'b'}" for i in range(101))
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=3)
        assert (len(data.train_idx), len(data.val_idx), len(data.test_idx)) \
            == (61, 20, 20)

    def test_affine_scaling_from_train_minmax(self, tmp_path):
        # values 2..10 among train rows map to [-1, 1]; 6 maps to 0
        rows = "\n".join(f"c,{v},{l}" for v, l in
                         [(2, "a"), (10, "b"), (6, "a"), (4, "b"), (8, "a")] * 4)
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=0)
        st = data.stats["size"]
        assert (st.lo, st.hi) == (2.0, 10.0)
        scaled = data.features[:, 1]
        raw_vals = np.array(raw.columns["size"])
        np.testing.assert_allclose(scaled, (raw_vals - 2) / 8 * 2 - 1, atol=1e-12)

    def test_constant_feature_maps_to_zero(self, tmp_path):
        rows = "\n".join(f"c,5.0,{'a' if i % 2 else 'b'}" for i in range(20))
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=0)
        np.testing.assert_array_equal(data.features[:, 1], 0.0)

    def test_imputation_with_train_statistics(self, tmp_path):
        rows = ["red,1.0,a", "red,?,b", "blue,3.0,a", "?,4.0,b"] * 5
        raw = load_table(write(tmp_path, "\n".join(rows) + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=2, scale_features=False)
        assert np.all(np.isfinite(data.features))
        st = data.stats["size"]
        observed_train = [raw.columns["size"][i] for i in data.train_idx
                          if raw.columns["size"][i] is not None]
        assert st.impute_value == pytest.approx(np.mean(observed_train))
        assert data.stats["color"].impute_value in ("red", "blue")

    def test_unseen_category_gets_reserved_code(self, tmp_path):
        # 10 rows: category "zeta" appears once; with this seed that row
        # falls outside the train split, so it must map to the reserved code
        rows = ["red,1,a", "blue,2,b"] * 5
        for seed in range(50):
            rng_rows = rows.copy()
            raw = load_table(write(tmp_path, "\n".join(rng_rows) + "\n"), MIXED)
            data = preprocess(raw, MIXED, seed=seed, scale_features=False)
            n_cats = len(data.stats["color"].categories)
            assert data.stats["color"].reserved_code == n_cats
        # direct check: mutate a val/test row to an unknown category
        raw = load_table(write(tmp_path, "\n".join(rows) + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=1, scale_features=False)
        outside = int(data.test_idx[0])
        raw.columns["color"][outside] = "zeta"
        data2 = preprocess(raw, MIXED, seed=1, scale_features=False)
        assert data2.features[outside, 0] == data2.stats["color"].reserved_code

    def test_no_train_test_leakage(self, tmp_path):
        rows = "\n".join(f"{'rgb'[i % 3]},{i * 1.7},{'ab'[i % 2]}"
                         for i in range(50))
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        before = preprocess(raw, MIXED, seed=7)
        # mutate every test row's numeric value; train transforms must not move
        for i in before.test_idx:
            raw.columns["size"][int(i)] = 1e6
        after = preprocess(raw, MIXED, seed=7)
        np.testing.assert_array_equal(before.features[before.train_idx],
                                      after.features[after.train_idx])
        np.testing.assert_array_equal(before.train_idx, after.train_idx)
        assert before.stats["size"].impute_value == after.stats["size"].impute_value

    def test_deterministic(self, tmp_path):
        rows = "\n".join(f"{'rgb'[i % 3]},{i * 1.3},{'ab'[i % 2]}"
                         for i in range(30))
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        a = preprocess(raw, MIXED, seed=5)
        b = preprocess(raw, MIXED, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = preprocess(raw, MIXED, seed=6)
        assert not np.array_equal(a.train_idx, c.train_idx)

    def test_single_class_target_rejected(self, tmp_path):
        raw = load_table(write(tmp_path, "red,1,a\nblue,2,a\n"), MIXED)
        with pytest.raises(PreprocessError, match="single class"):
            preprocess(raw, MIXED, seed=0)

    def test_all_missing_feature_rejected(self, tmp_path):
        raw = load_table(write(tmp_path, "?,1,a\n?,2,b\n?,3,a\n"), MIXED)
        with pytest.raises(PreprocessError, match="no observed values"):
            preprocess(raw, MIXED, seed=0)

    def test_categorical_encoding_matches_oracle(self):
        rng = np.random.default_rng(11)
        ties = 0
        for seed in range(60):
            n = int(rng.integers(10, 40))
            pool = ["a", "b", "c", "d"][:int(rng.integers(2, 5))]
            color = [None if rng.random() < 0.2 else str(rng.choice(pool))
                     for _ in range(n)]
            label = ["x", "y"] * (n // 2) + ["x"] * (n % 2)
            raw = RawTable(columns={"color": color, "label": label}, n_rows=n,
                           n_missing=color.count(None))
            first = preprocess(raw, CATEGORICAL, seed=seed, scale_features=False)
            # same seed and row count give the same split: unseen categories
            # can now be placed outside the train split
            for k, i in enumerate(np.concatenate([first.val_idx, first.test_idx])[:2]):
                color[int(i)] = f"unseen{k}"
            data = preprocess(raw, CATEGORICAL, seed=seed, scale_features=False)
            codes, mode, encoded = naive_encode_categorical(
                color, data.train_idx.tolist())
            st = data.stats["color"]
            assert st.categories == codes
            assert st.impute_value == mode
            assert st.reserved_code == len(codes)
            np.testing.assert_array_equal(data.features[:, 0], encoded)
            train_counts = [sum(color[i] == v for i in data.train_idx) for v in codes]
            ties += train_counts.count(max(train_counts)) > 1
        assert ties >= 5

    def test_mode_ties_go_to_first_category_in_shuffled_train_order(self):
        n = 20
        train = preprocess(RawTable({"color": ["a"] * n, "label": ["x", "y"] * 10},
                                    n, 0), CATEGORICAL, seed=3).train_idx.tolist()
        # alternate b, a, b, a, ... in shuffled train order: 6 each, a tie;
        # "b" comes first there, "a" first in file order and alphabetically
        color = [None] * n
        for k, i in enumerate(train):
            color[i] = "ba"[k % 2]
        assert color[min(train)] == "a" and len(train) % 2 == 0
        raw = RawTable({"color": color, "label": ["x", "y"] * 10}, n, n - len(train))
        data = preprocess(raw, CATEGORICAL, seed=3, scale_features=False)
        assert data.stats["color"].impute_value == "b"
        assert data.stats["color"].categories == {"b": 0, "a": 1}
        missing = [i for i in range(n) if color[i] is None]
        np.testing.assert_array_equal(data.features[missing, 0], 0.0)

    def test_expected_count_warnings(self, tmp_path):
        m = manifest_for(MIXED.columns, expected_instances=99, expected_classes=3)
        raw = load_table(write(tmp_path, "red,1,a\nblue,2,b\nred,3,a\n"), m)
        data = preprocess(raw, m, seed=0, scale_features=False)
        assert len(data.warnings) == 2


class TestSynthetic:
    def test_xor_balance_and_determinism(self):
        d = synthetic_dataset("xor", 2, 200, seed=9)
        balance = d.labels.mean()
        assert 0.45 <= balance <= 0.55
        d2 = synthetic_dataset("xor", 2, 200, seed=9)
        np.testing.assert_array_equal(d.features, d2.features)
        np.testing.assert_array_equal(d.labels, d2.labels)

    def test_blob_values_mostly_in_range(self):
        d = synthetic_dataset("gaussian-blobs", 6, 500, seed=2, n_classes=4)
        train_vals = d.features[d.train_idx]
        assert np.all(train_vals >= -1.0) and np.all(train_vals <= 1.0)
        frac = np.mean((d.features >= -1.5) & (d.features <= 1.5))
        assert frac >= 0.99

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            synthetic_dataset("xor", 1, 100, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset("gaussian-blobs", 4, 5, seed=0)
        with pytest.raises(ValueError):
            synthetic_dataset("nope", 4, 100, seed=0)

    def test_split_cover(self):
        d = synthetic_dataset("gaussian-blobs", 4, 123, seed=1)
        all_idx = np.concatenate([d.train_idx, d.val_idx, d.test_idx])
        assert sorted(all_idx.tolist()) == list(range(123))


class TestManifestAndCache:
    def test_manifest_json_round_trip(self, tmp_path):
        doc = {
            "name": "demo",
            "path": "demo.csv",
            "delimiter": ",",
            "missing_values": ["?", "NA"],
            "columns": [
                {"name": "a", "role": "feature", "type": "numeric"},
                {"name": "b", "role": "feature", "type": "categorical"},
                {"name": "y", "role": "target", "type": "categorical"},
            ],
            "expected": {"features": 2, "classes": 2},
        }
        mp = tmp_path / "demo.json"
        mp.write_text(json.dumps(doc))
        (tmp_path / "demo.csv").write_text("1.5,x,a\n2.5,y,b\nNA,x,a\n")
        m = load_manifest(mp)
        assert m.name == "demo"
        raw = load_table(m.path, m)
        assert raw.n_missing == 1

    def test_synthetic_manifest(self, tmp_path):
        mp = tmp_path / "synth.json"
        mp.write_text(json.dumps({
            "name": "blob-demo",
            "synthetic": {"kind": "gaussian-blobs", "n_features": 4,
                          "n_instances": 100, "n_classes": 2},
        }))
        m = load_manifest(mp)
        assert m.synthetic["kind"] == "gaussian-blobs"


class TestSyntheticSpec:
    """Malformed synthetic specs are rejected whether the manifest comes from
    a file or is built in code."""

    @staticmethod
    def check_rejected(tmp_path, spec, match):
        mp = tmp_path / "synth.json"
        mp.write_text(json.dumps({"name": "s", "synthetic": spec}))
        with pytest.raises(IngestionError, match=match):
            load_manifest(mp)
        with pytest.raises(IngestionError, match=match):
            DatasetManifest(name="s", synthetic=spec)

    def test_missing_required_key(self, tmp_path):
        for key in BLOBS:
            spec = {k: v for k, v in BLOBS.items() if k != key}
            self.check_rejected(tmp_path, spec, rf"missing keys \['{key}'\]")

    def test_unknown_key(self, tmp_path):
        self.check_rejected(tmp_path, {**BLOBS, "nosie": 0.3},
                            r"unknown keys \['nosie'\]")

    def test_spec_not_an_object(self, tmp_path):
        for spec in ([["kind", "xor"]], "gaussian-blobs"):
            self.check_rejected(tmp_path, spec, "synthetic spec must be an object")

    def test_non_integer_sizes(self, tmp_path):
        for key, value in (("n_features", 4.0), ("n_instances", "100"),
                           ("n_instances", True), ("n_classes", 2.5)):
            self.check_rejected(tmp_path, {**BLOBS, key: value},
                                rf"wrong type \['{key}'\]")


COLUMNS = [{"name": "a", "role": "feature", "type": "numeric"},
           {"name": "y", "role": "target", "type": "categorical"}]


class TestManifestChecks:
    """A manifest is checked once, when it is built; a malformed file is an
    IngestionError that names the file."""

    @pytest.mark.parametrize("doc", [
        [{"name": "m", "synthetic": BLOBS}],                      # top level a list
        {"path": "m.csv", "columns": COLUMNS},                   # no name
        {"name": "m", "path": "m.csv",
         "columns": [{"name": "a", "typ": "numeric"}, COLUMNS[1]]},  # typo'd key
        {"name": "m", "synthetic": [["kind", "xor"]]},           # spec a list
        {"name": "m", "synthetic": "gaussian-blobs"},            # spec a string
    ], ids=["top-level-list", "missing-name", "unknown-column-key",
            "synthetic-list", "synthetic-string"])
    def test_malformed_file_names_it(self, tmp_path, doc):
        mp = tmp_path / "broken-manifest.json"
        mp.write_text(json.dumps(doc))
        with pytest.raises(IngestionError, match="broken-manifest.json"):
            load_manifest(mp)

    def test_unknown_column_role_rejected(self, tmp_path):
        # "featuer" used to drop the column from the features without a word
        mp = tmp_path / "roles.json"
        mp.write_text(json.dumps({"name": "m", "path": "m.csv", "columns": [
            COLUMNS[0], {"name": "b", "role": "featuer"}, COLUMNS[1]]}))
        with pytest.raises(IngestionError,
                           match=r"roles\.json: column 'b': role 'featuer'"):
            load_manifest(mp)
        with pytest.raises(IngestionError, match="column 'b': role 'featuer'"):
            ColumnSpec("b", "featuer")

    def test_unknown_column_type_rejected(self, tmp_path):
        # "numerc" used to abort the experiment with a numpy TypeError
        mp = tmp_path / "types.json"
        mp.write_text(json.dumps({"name": "m", "path": "m.csv", "columns": [
            {"name": "a", "type": "numerc"}, COLUMNS[1]]}))
        with pytest.raises(IngestionError,
                           match=r"types\.json: column 'a': type 'numerc'"):
            load_manifest(mp)
        with pytest.raises(IngestionError, match="column 'a': type 'numerc'"):
            ColumnSpec("a", "feature", "numerc")

    @pytest.mark.parametrize("doc, unknown", [
        ({"name": "m", "delimter": ";", "path": "m.csv", "columns": COLUMNS},
         r"unknown keys \['delimter'\]"),
        ({"name": "m", "path": "m.csv", "columns": COLUMNS,
          "expected": {"features": 1, "clases": 2}},
         r"unknown expected keys \['clases'\]"),
        ({"name": "m", "path": "m.csv", "columns": COLUMNS, "expected": [1, 2]},
         "expected is a list, not an object"),
    ], ids=["top-level", "expected", "expected-not-object"])
    def test_unknown_keys_rejected(self, tmp_path, doc, unknown):
        # a misspelt key used to load with its default and no error
        mp = tmp_path / "keys.json"
        mp.write_text(json.dumps(doc))
        with pytest.raises(IngestionError, match=r"keys\.json: " + unknown):
            load_manifest(mp)
