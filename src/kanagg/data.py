"""Tabular dataset ingestion and preprocessing.

Ingestion rejects numeric cells that do not parse as finite numbers. The
pipeline then runs, in order, with all statistics fitted on the train split
only:
  1. shuffle rows by seed, split 60/20/20 in shuffled order (rounding
     remainder goes to train),
  2. encode categorical features as integer codes in first-appearance order
     over the train split; categories unseen in train get one reserved code,
  3. impute missing numerics with the train mean, missing categoricals with
     the train mode (ties go to the category that appeared first),
  4. affinely scale each feature to [-1, 1] using train min/max (constant
     features map to 0); val/test are transformed with the train statistics,
     so they may fall slightly outside the range.

Scaling exists because the spline grids live on [-1, 1]; it can be disabled
for strict replication of the upstream recipe, which never mentions scaling.
Synthetic datasets go through the same split and scaling code (`_split`,
`_scale_column`) as file-backed ones.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRAIN_FRACTION, VAL_FRACTION, TEST_FRACTION = 0.6, 0.2, 0.2
# a manifest's "synthetic" spec: the keyword arguments it may pass to
# synthetic_dataset, with their types; synthetic_dataset owns the defaults
SYNTHETIC_TYPES = {"kind": str, "n_features": int, "n_instances": int,
                   "n_classes": int, "separation": (int, float), "noise": (int, float)}
SYNTHETIC_REQUIRED = ("kind", "n_features", "n_instances")
COLUMN_ROLES = ("feature", "target", "ignore")
COLUMN_TYPES = ("numeric", "categorical")
# the keys a manifest file may hold at its top level and under "expected"
MANIFEST_KEYS = ("name", "path", "columns", "delimiter", "missing_values",
                 "has_header", "expected", "synthetic")
EXPECTED_KEYS = ("instances", "features", "classes")


class IngestionError(ValueError):
    pass


class PreprocessError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    """One column of a file-backed dataset; checks its role and type when built."""

    name: str
    role: str = "feature"    # feature | target | ignore
    type: str = "numeric"    # numeric | categorical

    def __post_init__(self):
        for attr, allowed in (("role", COLUMN_ROLES), ("type", COLUMN_TYPES)):
            value = getattr(self, attr)
            if value not in allowed:
                raise IngestionError(f"column {self.name!r}: {attr} {value!r} "
                                     f"is not one of {'/'.join(allowed)}")


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset description that is valid by construction: building one
    checks its name, its synthetic spec or its columns and expectations."""

    name: str
    path: str | None = None
    columns: tuple = ()
    delimiter: str = ","          # "whitespace" splits on any run of blanks
    missing_values: tuple = ("?",)
    has_header: bool = False
    expected_instances: int | None = None
    expected_features: int | None = None
    expected_classes: int | None = None
    synthetic: dict | None = None  # {"kind", "n_features", "n_instances", ...}

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise IngestionError(
                f"manifest name must be a non-empty string, got {self.name!r}")
        if self.synthetic is not None:
            self._validate_synthetic()
            return
        self.target_column()
        n_features = len(self.feature_columns())
        if not n_features:
            raise IngestionError(f"manifest {self.name!r} declares no feature columns")
        if self.expected_features is not None and self.expected_features != n_features:
            raise IngestionError(
                f"manifest {self.name!r} declares {n_features} "
                f"feature columns but expects {self.expected_features}")

    def feature_columns(self):
        return [c for c in self.columns if c.role == "feature"]

    def target_column(self):
        targets = [c for c in self.columns if c.role == "target"]
        if len(targets) != 1:
            raise IngestionError(
                f"manifest {self.name!r} must declare exactly one target column, "
                f"found {len(targets)}")
        return targets[0]

    def _validate_synthetic(self):
        spec = self.synthetic
        if not isinstance(spec, dict):
            raise IngestionError(f"manifest {self.name!r}: synthetic spec must be "
                                 f"an object, got {type(spec).__name__}")
        problems = {
            "missing keys": [k for k in SYNTHETIC_REQUIRED if k not in spec],
            "unknown keys": sorted(set(spec) - set(SYNTHETIC_TYPES)),
            "keys of the wrong type": sorted(
                k for k, v in spec.items() if k in SYNTHETIC_TYPES
                and (isinstance(v, bool) or not isinstance(v, SYNTHETIC_TYPES[k]))),
        }
        for problem, keys in problems.items():
            if keys:
                raise IngestionError(
                    f"manifest {self.name!r}: synthetic spec has {problem} {keys}")


def load_manifest(path) -> DatasetManifest:
    """Read a JSON manifest; unreadable or malformed content of any shape is
    an IngestionError that names the file."""
    path = Path(path)
    try:
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise IngestionError(f"top level is a {type(doc).__name__}, not an object")
        expected = doc.get("expected", {})
        if not isinstance(expected, dict):
            raise IngestionError(f"expected is a {type(expected).__name__}, "
                                 f"not an object")
        for where, keys, allowed in (("", doc, MANIFEST_KEYS),
                                     ("expected ", expected, EXPECTED_KEYS)):
            unknown = sorted(set(keys) - set(allowed))
            if unknown:
                raise IngestionError(f"unknown {where}keys {unknown}; "
                                     f"allowed: {', '.join(allowed)}")
        return DatasetManifest(
            name=doc.get("name"),
            path=str((path.parent / doc["path"]).resolve()) if doc.get("path") else None,
            columns=tuple(ColumnSpec(**c) for c in doc.get("columns", [])),
            delimiter=doc.get("delimiter", ","),
            missing_values=tuple(doc.get("missing_values", ["?"])),
            has_header=bool(doc.get("has_header", False)),
            expected_instances=expected.get("instances"),
            expected_features=expected.get("features"),
            expected_classes=expected.get("classes"),
            synthetic=doc.get("synthetic"),
        )
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise IngestionError(f"manifest {path}: {exc}") from exc


@dataclass
class RawTable:
    """Typed columns with missing cells as None; shape checked against the manifest."""

    columns: dict            # column name -> list of float | str | None
    n_rows: int
    n_missing: int


def load_table(path, manifest: DatasetManifest) -> RawTable:
    """Parse a delimited text file per the manifest's column specs."""
    sentinels = set(manifest.missing_values)
    specs = list(manifest.columns)
    columns = {c.name: [] for c in specs}
    n_missing = 0
    n_rows = 0
    try:
        f = open(path, newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    with f:
        if manifest.delimiter == "whitespace":
            rows = (line.split() for line in f if line.strip())
        else:
            rows = csv.reader(f, delimiter=manifest.delimiter)
        for row_no, row in enumerate(rows, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if manifest.has_header and row_no == 1:
                continue
            if len(row) != len(specs):
                raise IngestionError(
                    f"{path}: row {row_no} has {len(row)} fields, manifest "
                    f"{manifest.name!r} declares {len(specs)} columns")
            n_rows += 1
            for spec, cell in zip(specs, row):
                cell = cell.strip()
                if cell in sentinels or cell == "":
                    columns[spec.name].append(None)
                    n_missing += 1
                    continue
                if spec.role == "feature" and spec.type == "numeric":
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan      # reported with the non-finite cells
                    if not math.isfinite(value):
                        raise IngestionError(
                            f"{path}: row {row_no}, column {spec.name!r}: "
                            f"cannot parse {cell!r} as a finite number")
                    columns[spec.name].append(value)
                else:
                    columns[spec.name].append(cell)
    if n_rows == 0:
        raise IngestionError(f"{path}: no data rows")
    return RawTable(columns=columns, n_rows=n_rows, n_missing=n_missing)


@dataclass
class FeatureStats:
    impute_value: object = None
    categories: dict | None = None  # category -> code, fitted on train
    reserved_code: int | None = None
    lo: float | None = None        # train min/max before scaling
    hi: float | None = None


@dataclass
class Dataset:
    features: np.ndarray           # (instances, features) float64
    labels: np.ndarray             # (instances,) int64 in [0, n_classes)
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    n_classes: int
    stats: dict = field(default_factory=dict)   # feature name -> FeatureStats
    scaled: bool = True
    warnings: list = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]


def _split(n: int, rng):
    """Shuffled (train, val, test) row indices, 60/20/20. Rounding (not
    flooring) keeps every split within one row of its fraction; the
    remainder lands in train."""
    perm = rng.permutation(n)
    n_val = round(n * VAL_FRACTION)
    n_train = n - n_val - round(n * TEST_FRACTION)
    return perm[:n_train], perm[n_train: n_train + n_val], perm[n_train + n_val:]


def _scale_column(matrix: np.ndarray, j: int, train_rows) -> tuple[float, float]:
    """Map column j in place affinely onto [-1, 1] by its train min/max (a
    constant column maps to 0); returns that (min, max)."""
    lo = float(matrix[train_rows, j].min())
    hi = float(matrix[train_rows, j].max())
    matrix[:, j] = (matrix[:, j] - lo) / (hi - lo) * 2.0 - 1.0 if hi > lo else 0.0
    return lo, hi


def _encode_labels(values, name):
    observed = [v for v in values if v is not None]
    if len(observed) != len(values):
        raise PreprocessError(f"{name}: target column has missing values")
    distinct = set(observed)
    if len(distinct) < 2:
        raise PreprocessError(f"{name}: target has a single class")
    # stable vocabulary: numeric order when every label parses as a number
    try:
        vocab = sorted(distinct, key=float)
    except (TypeError, ValueError):
        vocab = sorted(str(v) for v in distinct)
    code = {v: i for i, v in enumerate(vocab)}
    return np.array([code[v] for v in values], dtype=np.int64), len(vocab)


def preprocess(raw: RawTable, manifest: DatasetManifest, seed: int,
               scale_features: bool = True) -> Dataset:
    """Shuffle, split, encode, impute, and scale one raw table."""
    n = raw.n_rows
    train_rows, val_rows, test_rows = _split(n, np.random.default_rng(seed))
    train_list = train_rows.tolist()

    labels, n_classes = _encode_labels(raw.columns[manifest.target_column().name],
                                       manifest.name)
    warnings = []
    if manifest.expected_instances is not None and manifest.expected_instances != n:
        warnings.append(f"expected {manifest.expected_instances} instances, found {n}")
    if (manifest.expected_classes is not None
            and manifest.expected_classes != n_classes):
        warnings.append(f"expected {manifest.expected_classes} classes, "
                        f"found {n_classes}")

    feature_specs = manifest.feature_columns()
    matrix = np.empty((n, len(feature_specs)), dtype=np.float64)
    stats = {}
    for j, spec in enumerate(feature_specs):
        col = raw.columns[spec.name]
        observed_train = [col[i] for i in train_list if col[i] is not None]
        if not observed_train:
            raise PreprocessError(
                f"{manifest.name}: feature {spec.name!r} has no observed values "
                f"in the train split")
        if spec.type == "categorical":
            # codes in first appearance in shuffled train order; max keeps the
            # first of equally frequent categories, so the mode's ties go to
            # the earliest one
            codes = {v: k for k, v in enumerate(dict.fromkeys(observed_train))}
            counts = Counter(observed_train)
            impute = max(codes, key=counts.__getitem__)
            reserved = len(codes)
            st = FeatureStats(impute_value=impute, categories=codes,
                              reserved_code=reserved)
            matrix[:, j] = [codes.get(impute if v is None else v, reserved)
                            for v in col]
        else:
            impute = float(np.mean(observed_train))
            st = FeatureStats(impute_value=impute)
            matrix[:, j] = [impute if v is None else v for v in col]
        if scale_features:
            st.lo, st.hi = _scale_column(matrix, j, train_rows)
        stats[spec.name] = st

    return Dataset(
        features=matrix,
        labels=labels,
        train_idx=train_rows,
        val_idx=val_rows,
        test_idx=test_rows,
        n_classes=n_classes,
        stats=stats,
        scaled=scale_features,
        warnings=warnings,
    )


def synthetic_dataset(kind: str, n_features: int, n_instances: int, seed: int,
                      n_classes: int = 3, separation: float = 0.35,
                      noise: float = 0.12) -> Dataset:
    """Deterministic labeled data for desk-scale experiments.

    "xor": class = xor of the signs of the first two features; a thin band
    around those two axes is excluded so labels stay unambiguous.
    "gaussian-blobs": class c is an isotropic Gaussian (std = noise) around a
    class-specific sign pattern scaled by `separation`, so every feature
    carries signal. The defaults give well-separated clusters; small
    separation with large noise gives a weak-signal task whose optimum keeps
    activations moderate.
    """
    if n_features < 2:
        raise ValueError(f"need at least 2 features, got {n_features}")
    if n_instances < 10:
        raise ValueError(f"need at least 10 instances, got {n_instances}")
    rng = np.random.default_rng(seed)
    if kind == "xor":
        x = rng.uniform(-1.0, 1.0, size=(n_instances, n_features))
        margin = 0.05
        for j in (0, 1):
            tight = np.abs(x[:, j]) < margin
            x[tight, j] = np.sign(x[tight, j] + 1e-12) * (
                margin + np.abs(x[tight, j]))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(np.int64)
        n_classes = 2
    elif kind == "gaussian-blobs":
        if not 2 <= n_classes <= 2 ** min(n_features, 20):
            raise ValueError(f"cannot place {n_classes} distinct classes")
        seen = set()
        patterns = np.empty((n_classes, n_features))
        for c in range(n_classes):
            while True:
                p = rng.choice([-1.0, 1.0], size=n_features)
                key = p.tobytes()
                if key not in seen:
                    seen.add(key)
                    patterns[c] = p
                    break
        y = rng.integers(0, n_classes, size=n_instances).astype(np.int64)
        x = np.clip(patterns[y] * separation
                    + rng.normal(0.0, noise, size=(n_instances, n_features)),
                    -1.0, 1.0)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")

    train_rows, val_rows, test_rows = _split(n_instances, rng)
    for j in range(n_features):
        _scale_column(x, j, train_rows)
    return Dataset(
        features=x,
        labels=y,
        train_idx=train_rows,
        val_idx=val_rows,
        test_idx=test_rows,
        n_classes=int(n_classes),
        scaled=True,
    )
