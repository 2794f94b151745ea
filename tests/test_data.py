import itertools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanagg import IngestionError, PreprocessError, load_manifest, load_table, \
    preprocess, synthetic_dataset
from kanagg.cli import main as cli_main
from kanagg.data import ColumnSpec, DatasetManifest, RawTable

from oracles import naive_encode_categorical, naive_gaussian_blobs, naive_preprocess


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
BOTH_DELIMITERS = pytest.mark.parametrize(
    "delimiter, sep", [(",", ","), ("whitespace", " ")], ids=["csv", "whitespace"])
TWO_OF_EACH = manifest_for([
    ColumnSpec("c1", "feature", "categorical"),
    ColumnSpec("x1", "feature", "numeric"),
    ColumnSpec("c2", "feature", "categorical"),
    ColumnSpec("x2", "feature", "numeric"),
    ColumnSpec("label", "target", "categorical"),
])


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def table_from_cells(manifest, **cells):
    """A RawTable from plain column lists (None for a missing cell), coded as
    load_table codes a file."""
    columns, values = {}, {}
    for spec in manifest.columns:
        col = cells[spec.name]
        if spec.role == "feature" and spec.type == "numeric":
            columns[spec.name] = np.array([np.nan if v is None else v for v in col])
        else:
            index = {}
            columns[spec.name] = np.array(
                [-1 if v is None else index.setdefault(v, len(index)) for v in col],
                dtype=np.int64)
            values[spec.name] = tuple(index)
    return RawTable(columns=columns, values=values, n_rows=len(col))


def cells_of(raw, name):
    """One column of a RawTable as a plain list, None for a missing cell."""
    col = raw.columns[name].tolist()
    if name in raw.values:
        return [None if c < 0 else raw.values[name][c] for c in col]
    return [None if np.isnan(v) else v for v in col]


def oracle_features(raw, manifest, seed, scale_features=True):
    """naive_preprocess's feature matrix of a RawTable."""
    cells = {spec.name: cells_of(raw, spec.name) for spec in manifest.columns}
    return np.array(naive_preprocess(cells, manifest, seed, scale_features)[1])


def count_missing(raw):
    return sum(cells_of(raw, name).count(None) for name in raw.columns)


@st.composite
def small_tables(draw):
    """Column lists for TWO_OF_EACH: few rows and small pools, so missing
    cells, mode ties, categories unseen in train, constant columns and
    features never observed in train all occur."""
    n = draw(st.integers(5, 24))

    def column(pool):
        return draw(st.lists(st.sampled_from([None, *pool]), min_size=n, max_size=n))

    cells = {}
    for name in ("c1", "c2"):
        cells[name] = column(draw(st.lists(st.sampled_from("abcdef"), min_size=1,
                                           max_size=4, unique=True)))
    for name in ("x1", "x2"):
        cells[name] = column(draw(st.lists(st.floats(-1e6, 1e6), min_size=1,
                                           max_size=5)))
    cells["label"] = draw(st.lists(st.sampled_from(["0", "1", "1.0", "nan", "b"]),
                                   min_size=n, max_size=n))
    return cells


class TestLoadTable:
    def test_missing_sentinel_recorded(self, tmp_path):
        p = write(tmp_path, "red,1.0,a\nblue,?,b\nred,3.0,a\n")
        raw = load_table(p, MIXED)
        assert raw.n_rows == 3
        assert count_missing(raw) == 1
        assert raw.columns["size"].dtype == np.float64
        np.testing.assert_array_equal(raw.columns["size"], [1.0, np.nan, 3.0])
        # other columns: int64 codes by first appearance in the file
        assert raw.columns["color"].dtype == np.int64
        assert raw.columns["color"].tolist() == [0, 1, 0]
        assert raw.values["color"] == ("red", "blue")
        assert raw.values["label"] == ("a", "b")

    def test_missing_coded_cell_is_minus_one(self, tmp_path):
        raw = load_table(write(tmp_path, "red,1.0,a\n?,2.0,b\n,3.0,a\n"), MIXED)
        assert raw.columns["color"].tolist() == [0, -1, -1]
        assert raw.values["color"] == ("red",)
        assert count_missing(raw) == 2

    def test_columns_are_read_only(self, tmp_path):
        # one parsed table serves every run of its dataset in a process
        raw = load_table(write(tmp_path, "red,1.0,a\nblue,2.0,b\n"), MIXED)
        for col in raw.columns.values():
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 0

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

    def test_unreadable_csv_record_located(self, tmp_path):
        # the csv module's own error, here a field over its size limit
        p = write(tmp_path, 'red,1.0,a\n"' + "r" * 140_000 + '",2.0,b\n')
        with pytest.raises(IngestionError, match=re.escape(
                f"{p}: row 2: field larger than field limit (131072)")):
            load_table(p, MIXED)

    def test_whitespace_delimiter_and_header(self, tmp_path):
        m = manifest_for(MIXED.columns, delimiter="whitespace", has_header=True)
        p = write(tmp_path, "color size label\nred 1.0 a\nblue  2.0\tb\n")
        raw = load_table(p, m)
        assert raw.n_rows == 2
        assert raw.columns["size"].tolist() == [1.0, 2.0]

    @BOTH_DELIMITERS
    def test_header_is_first_non_blank_line(self, tmp_path, delimiter, sep):
        # a blank first line used to make the header a data row in csv mode
        m = manifest_for(MIXED.columns, delimiter=delimiter, has_header=True)
        text = "\n\n" + "\n".join(sep.join(r) for r in (
            ("color", "size", "label"), ("red", "1.0", "a"), ("blue", "2.0", "b")))
        raw = load_table(write(tmp_path, text + "\n"), m)
        assert raw.n_rows == 2
        assert raw.columns["size"].tolist() == [1.0, 2.0]
        assert raw.values["label"] == ("a", "b")

    @BOTH_DELIMITERS
    def test_errors_name_the_file_line(self, tmp_path, delimiter, sep):
        # whitespace mode used to count non-blank lines only
        m = manifest_for(MIXED.columns, delimiter=delimiter, has_header=True)
        lines = ["", "color size label", "", "red 1.0 a", "", "blue oops b"]
        text = "\n".join(line.replace(" ", sep) for line in lines) + "\n"
        with pytest.raises(IngestionError, match="row 6, column 'size'"):
            load_table(write(tmp_path, text), m)
        lines[5] = "blue 2.0"
        text = "\n".join(line.replace(" ", sep) for line in lines) + "\n"
        with pytest.raises(IngestionError, match="row 6 has 2 fields"):
            load_table(write(tmp_path, text), m)

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
        color = cells_of(raw, "color")
        codes = {}
        for i in data.train_idx:   # first appearance in shuffled train order
            codes.setdefault(color[i], col[i])
        assert codes[color[data.train_idx[0]]] == 0.0
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

    def test_val_and_test_splits_are_the_same_size(self):
        # so an empty val split always comes with an empty test split
        from kanagg.data import _split
        for n in range(1, 201):
            _, val, test = _split(n, np.random.default_rng(n))
            assert len(val) == len(test)

    def test_affine_scaling_from_train_minmax(self, tmp_path):
        # values 2..10 among train rows map to [-1, 1]; 6 maps to 0
        rows = "\n".join(f"c,{v},{l}" for v, l in
                         [(2, "a"), (10, "b"), (6, "a"), (4, "b"), (8, "a")] * 4)
        raw = load_table(write(tmp_path, rows + "\n"), MIXED)
        data = preprocess(raw, MIXED, seed=0)
        raw_vals = np.array(raw.columns["size"])
        train_vals = raw_vals[data.train_idx]
        assert (train_vals.min(), train_vals.max()) == (2.0, 10.0)
        np.testing.assert_allclose(data.features[:, 1], (raw_vals - 2) / 8 * 2 - 1,
                                   atol=1e-12)
        assert data.features.tobytes() == oracle_features(raw, MIXED, 0).tobytes()

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
        size, color = cells_of(raw, "size"), cells_of(raw, "color")
        observed_train = [size[i] for i in data.train_idx if size[i] is not None]
        missing_size = [i for i, v in enumerate(size) if v is None]
        np.testing.assert_allclose(data.features[missing_size, 1],
                                   np.mean(observed_train))
        # a missing color takes the code of a category observed in train
        train_codes = {data.features[i, 0] for i in data.train_idx
                       if color[i] is not None}
        assert len(train_codes) == 2
        assert {data.features[i, 0] for i, v in enumerate(color) if v is None} \
            <= train_codes
        np.testing.assert_array_equal(
            data.features, oracle_features(raw, MIXED, 2, scale_features=False))

    def test_unseen_category_gets_reserved_code(self, tmp_path):
        # 10 rows: category "zeta" appears once; with this seed that row
        # falls outside the train split, so it must map to the reserved code
        rows = ["red,1,a", "blue,2,b"] * 5
        raw = load_table(write(tmp_path, "\n".join(rows) + "\n"), MIXED)
        for seed in range(50):
            # the train categories take codes 0 and 1, so 2 is the reserved code
            data = preprocess(raw, MIXED, seed=seed, scale_features=False)
            assert sorted(set(data.features[data.train_idx, 0])) == [0.0, 1.0]
        # direct check: rewrite a val/test row with an unknown category
        data = preprocess(raw, MIXED, seed=1, scale_features=False)
        outside = int(data.test_idx[0])
        rows[outside] = "zeta," + rows[outside].split(",", 1)[1]
        raw = load_table(write(tmp_path, "\n".join(rows) + "\n"), MIXED)
        data2 = preprocess(raw, MIXED, seed=1, scale_features=False)
        assert data2.features[outside, 0] == 2.0
        np.testing.assert_array_equal(
            data2.features, oracle_features(raw, MIXED, 1, scale_features=False))

    def test_no_train_test_leakage(self, tmp_path):
        # every tenth size is missing, so the imputed value shows too
        rows = [f"{'rgb'[i % 3]},{'?' if i % 10 == 0 else i * 1.7},{'ab'[i % 2]}"
                for i in range(50)]
        raw = load_table(write(tmp_path, "\n".join(rows) + "\n"), MIXED)
        before = preprocess(raw, MIXED, seed=7)
        keep = np.concatenate([before.train_idx, before.val_idx])
        assert any(i % 10 == 0 for i in keep)
        # rewrite every test row's numeric value; the transforms fitted on
        # train, and so the train and val features, must not move
        for i in before.test_idx:
            rows[i] = f"{'rgb'[i % 3]},1e6,{'ab'[i % 2]}"
        raw = load_table(write(tmp_path, "\n".join(rows) + "\n"), MIXED)
        after = preprocess(raw, MIXED, seed=7)
        np.testing.assert_array_equal(before.train_idx, after.train_idx)
        np.testing.assert_array_equal(before.features[keep], after.features[keep])

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
            raw = table_from_cells(CATEGORICAL, color=color, label=label)
            first = preprocess(raw, CATEGORICAL, seed=seed, scale_features=False)
            # same seed and row count give the same split: unseen categories
            # can now be placed outside the train split
            for k, i in enumerate(np.concatenate([first.val_idx, first.test_idx])[:2]):
                color[int(i)] = f"unseen{k}"
            raw = table_from_cells(CATEGORICAL, color=color, label=label)
            data = preprocess(raw, CATEGORICAL, seed=seed, scale_features=False)
            codes, _, encoded = naive_encode_categorical(color, data.train_idx.tolist())
            np.testing.assert_array_equal(data.features[:, 0], encoded)
            train_counts = [sum(color[i] == v for i in data.train_idx) for v in codes]
            ties += train_counts.count(max(train_counts)) > 1
        assert ties >= 5

    def test_mode_ties_go_to_first_category_in_shuffled_train_order(self):
        n = 20
        train = preprocess(table_from_cells(CATEGORICAL, color=["a"] * n,
                                            label=["x", "y"] * 10),
                           CATEGORICAL, seed=3).train_idx.tolist()
        # alternate b, a, b, a, ... in shuffled train order: 6 each, a tie;
        # "b" comes first there, "a" first in file order and alphabetically
        color = [None] * n
        for k, i in enumerate(train):
            color[i] = "ba"[k % 2]
        assert color[min(train)] == "a" and len(train) % 2 == 0
        raw = table_from_cells(CATEGORICAL, color=color, label=["x", "y"] * 10)
        data = preprocess(raw, CATEGORICAL, seed=3, scale_features=False)
        assert {color[i]: data.features[i, 0] for i in train} == {"b": 0.0, "a": 1.0}
        # the missing cells take the mode, "b"
        missing = [i for i in range(n) if color[i] is None]
        np.testing.assert_array_equal(data.features[missing, 0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(cells=small_tables(), seed=st.integers(0, 2 ** 32 - 1), scale=st.booleans())
    def test_matches_per_cell_oracle(self, cells, seed, scale):
        raw = table_from_cells(TWO_OF_EACH, **cells)
        if len(set(cells["label"])) < 2:
            with pytest.raises(PreprocessError, match="single class"):
                preprocess(raw, TWO_OF_EACH, seed, scale_features=scale)
            return
        try:
            splits, features, labels, n_classes = naive_preprocess(
                cells, TWO_OF_EACH, seed, scale_features=scale)
        except ValueError:
            with pytest.raises(PreprocessError, match="no observed values"):
                preprocess(raw, TWO_OF_EACH, seed, scale_features=scale)
            return
        data = preprocess(raw, TWO_OF_EACH, seed, scale_features=scale)
        assert [data.train_idx.tolist(), data.val_idx.tolist(),
                data.test_idx.tolist()] == list(splits)
        expected = np.array(features, dtype=np.float64)
        assert data.features.shape == expected.shape
        assert data.features.tobytes() == expected.tobytes()      # bit for bit
        assert data.labels.tolist() == labels
        assert data.n_classes == n_classes

    def test_label_order_does_not_depend_on_hash_seed(self, tmp_path):
        # labels that parse to the same number used to keep set iteration
        # order, which PYTHONHASHSEED changes from one invocation to the next
        labels = ["1", "1.0", "01", "1.00", "+1", "1e0", "2"]
        write(tmp_path, "".join(f"red,{i},{labels[i % 7]}\n" for i in range(28)))
        manifest = tmp_path / "labels.json"
        manifest.write_text(json.dumps({"name": "labels", "path": "data.csv", "columns": [
            {"name": c.name, "role": c.role, "type": c.type} for c in MIXED.columns]}))
        code = ("import sys; from kanagg import load_manifest, load_table, preprocess; "
                "m = load_manifest(sys.argv[1]); "
                "print(preprocess(load_table(m.path, m), m, seed=0).labels.tolist())")
        src = os.path.dirname(os.path.dirname(sys.modules["kanagg"].__file__))
        outputs = {subprocess.run(
            [sys.executable, "-c", code, str(manifest)], check=True,
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src},
        ).stdout for hash_seed in (1, 2, 3, 4)}
        # numeric order, ties in string order: +1 01 1 1.0 1.00 1e0 2
        rank = {"+1": 0, "01": 1, "1": 2, "1.0": 3, "1.00": 4, "1e0": 5, "2": 6}
        assert outputs == {f"{[rank[labels[i % 7]] for i in range(28)]}\n"}

    def test_nan_label_orders_as_a_string_in_any_row_order(self):
        # "nan" parses as a number but has no numeric place: ("nan", "1", "0")
        # used to map to 0, 2, 1 and ("1", "nan", "0") to 0, 1, 2
        manifest = manifest_for([ColumnSpec("x", "feature", "numeric"),
                                 ColumnSpec("label", "target", "categorical")])
        for order in itertools.permutations(("1", "nan", "0")):
            raw = table_from_cells(manifest, x=[1.0, 2.0, 3.0], label=list(order))
            data = preprocess(raw, manifest, seed=0)
            assert dict(zip(order, data.labels.tolist())) == \
                {"0": 0, "1": 1, "nan": 2}, order

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

    @pytest.mark.parametrize("kind", ["xor", "gaussian-blobs"])
    def test_scaling_matches_per_cell_loop(self, kind):
        # the unscaled draw, scaled cell by cell with the train min/max of
        # each column in plain Python, must give the scaled dataset exactly
        raw = synthetic_dataset(kind, 5, 157, seed=4, scale_features=False)
        d = synthetic_dataset(kind, 5, 157, seed=4)
        train = d.train_idx.tolist()
        for j in range(5):
            col = raw.features[:, j].tolist()
            lo, hi = min(col[i] for i in train), max(col[i] for i in train)
            assert d.features[:, j].tolist() == [
                (v - lo) / (hi - lo) * 2.0 - 1.0 for v in col]

    @pytest.mark.parametrize("scale_features", [True, False])
    @pytest.mark.parametrize("n_features, n_instances, n_classes, separation, noise", [
        (5, 157, 2, 0.35, 0.12),
        (30, 400, 3, 0.06, 0.45),
        (7, 1000, 4, 0.5, 0.3),
    ])
    def test_blobs_equal_out_of_place_oracle(self, n_features, n_instances, n_classes,
                                             separation, noise, scale_features):
        d = synthetic_dataset("gaussian-blobs", n_features, n_instances, seed=12,
                              n_classes=n_classes, separation=separation,
                              noise=noise, scale_features=scale_features)
        features, labels, splits = naive_gaussian_blobs(
            n_features, n_instances, 12, n_classes, separation, noise, scale_features)
        assert d.features.tolist() == features
        assert d.labels.tolist() == labels
        assert [s.tolist() for s in (d.train_idx, d.val_idx, d.test_idx)] == list(splits)
        assert d.n_classes == n_classes

    def test_build_peak_is_about_the_matrix(self):
        # built and scaled in place: no matrix-sized temporary, and no copy
        # of the train split's rows, lives beside the feature matrix
        import tracemalloc
        n_instances, n_features = 20000, 30
        synthetic_dataset("gaussian-blobs", 4, 20, seed=3)   # lazy imports, untraced
        tracemalloc.start()
        try:
            d = synthetic_dataset("gaussian-blobs", n_features, n_instances, seed=3,
                                  separation=0.06, noise=0.45)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.features.shape == (n_instances, n_features)
        assert peak <= 1.3 * n_instances * n_features * 8

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
        assert count_missing(raw) == 1

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

    @pytest.mark.parametrize("key, value, field, field_value", [
        ("path", "blobs.csv", "path", "blobs.csv"),
        ("columns", [{"name": "a"}], "columns", (ColumnSpec("a"),)),
        ("delimiter", ";", "delimiter", ";"),
        ("missing_values", ["NA"], "missing_values", ("NA",)),
        ("has_header", True, "has_header", True),
        ("expected", {"instances": 100}, "expected_instances", 100),
    ])
    def test_file_settings_rejected(self, tmp_path, key, value, field, field_value):
        """A synthetic dataset reads no file; a setting for one is an error,
        not silently ignored, and kanagg exits with code 2."""
        mp = tmp_path / "synth.json"
        mp.write_text(json.dumps({"name": "s", "synthetic": BLOBS, key: value}))
        with pytest.raises(IngestionError, match=rf"synth\.json: .*\['{key}'\]$"):
            load_manifest(mp)
        with pytest.raises(IngestionError, match=rf"^manifest 's': .*\['{field}'\]$"):
            DatasetManifest(name="s", synthetic=BLOBS, **{field: field_value})
        assert cli_main(["sweep", "--dataset", str(mp), "--out",
                         str(tmp_path / "out")]) == 2


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

    @pytest.mark.parametrize("key, value, message", [
        ("missing_values", "NA", "missing_values must be a list of strings, got 'NA'"),
        ("missing_values", ["NA", 0], "missing_values must be a list of strings"),
        ("has_header", "false", "has_header must be true or false, got 'false'"),
        ("delimiter", 1, "delimiter must be one character or 'whitespace', got 1"),
        ("delimiter", ",,", "delimiter must be one character or 'whitespace'"),
        ("expected_features", "1",
         "expected_features must be a non-negative integer, got '1'"),
        ("expected_instances", "x",
         "expected_instances must be a non-negative integer, got 'x'"),
        ("expected_classes", True,
         "expected_classes must be a non-negative integer, got True"),
        ("expected_instances", -5, "expected_instances must be a non-negative integer"),
        ("expected_classes", 2.0, "expected_classes must be a non-negative integer"),
    ], ids=["string-missing-values", "number-missing-value", "string-has-header",
            "number-delimiter", "two-character-delimiter", "string-expected-features",
            "string-expected-instances", "bool-expected-classes",
            "negative-expected-instances", "float-expected-classes"])
    def test_parsing_field_types_checked(self, tmp_path, key, value, message):
        # "NA" used to become the sentinels N and A, "false" a header row, and
        # a bad delimiter a TypeError that aborted the whole experiment; a
        # string count of the right number was reported as a mismatch ("declares
        # 1 feature columns but expects 1"), and other wrong counts loaded
        mp = tmp_path / "fields.json"
        expected_key = key.removeprefix("expected_")
        doc = {"expected": {expected_key: value}} if expected_key != key else {key: value}
        mp.write_text(json.dumps({"name": "m", "path": "m.csv", "columns": COLUMNS,
                                  **doc}))
        with pytest.raises(IngestionError,
                           match=r"fields\.json: manifest 'm': " + re.escape(message)):
            load_manifest(mp)
        columns = tuple(ColumnSpec(**c) for c in COLUMNS)
        with pytest.raises(IngestionError, match=re.escape(message)):
            DatasetManifest(name="m", path="m.csv", columns=columns, **{key: value})

    def test_repeated_column_name_rejected(self, tmp_path):
        # load_table kept only the last of two columns named "x": both
        # features read it
        columns = [{"name": "x"}, {"name": "x"}, COLUMNS[1]]
        mp = tmp_path / "twice.json"
        mp.write_text(json.dumps({"name": "m", "path": "m.csv", "columns": columns}))
        message = "manifest 'm' declares two columns named 'x'"
        with pytest.raises(IngestionError,
                           match=r"twice\.json: " + re.escape(message)):
            load_manifest(mp)
        with pytest.raises(IngestionError, match=re.escape(message)):
            DatasetManifest(name="m", path="m.csv",
                            columns=tuple(ColumnSpec(**c) for c in columns))

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
