"""Tabular dataset ingestion and preprocessing.

`load_table` parses a file once into a `RawTable` of typed, read-only
column arrays: numeric features as float64 with NaN for a missing cell,
every other column as int64 codes (first appearance in the file, -1 for a
missing cell) into its tuple of distinct cells. It rejects numeric cells
that do not parse as finite numbers. The harness parses each file once per
experiment, so the runs of one dataset share one table; `preprocess` only
reads the table and does every step below with array operations, in
order, with all statistics fitted on the train split only:
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
`_scale_columns`) as file-backed ones. The fitted statistics are used and
dropped: a `Dataset` holds only the feature matrix, the labels, the split
indices, the class count and any warnings against the manifest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

VAL_FRACTION, TEST_FRACTION = 0.2, 0.2     # train holds the rest
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
    delimiter: str = ","          # one character, or "whitespace": any run of blanks
    missing_values: tuple = ("?",)  # of strings
    has_header: bool = False
    expected_instances: int | None = None
    expected_features: int | None = None
    expected_classes: int | None = None
    synthetic: dict | None = None  # {"kind", "n_features", "n_instances", ...}

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise IngestionError(
                f"manifest name must be a non-empty string, got {self.name!r}")
        d, mv = self.delimiter, self.missing_values
        counts = {f"expected_{k}": getattr(self, f"expected_{k}") for k in EXPECTED_KEYS}
        for attr, ok, wanted in (
                ("delimiter", d == "whitespace" or isinstance(d, str) and len(d) == 1,
                 "one character or 'whitespace'"),
                ("missing_values", isinstance(mv, tuple)
                 and all(isinstance(v, str) for v in mv), "a list of strings"),
                ("has_header", isinstance(self.has_header, bool), "true or false"),
                *((attr, v is None or isinstance(v, int) and not isinstance(v, bool)
                   and v >= 0, "a non-negative integer") for attr, v in counts.items())):
            if not ok:
                raise IngestionError(f"manifest {self.name!r}: {attr} must be {wanted}, "
                                     f"got {getattr(self, attr)!r}")
        if self.synthetic is not None:
            self._validate_synthetic()
            return
        names = [c.name for c in self.columns]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise IngestionError(
                    f"manifest {self.name!r} declares two columns named {name!r}")
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
        ignored = [f.name for f in fields(self) if f.name not in ("name", "synthetic")
                   and getattr(self, f.name) != f.default]
        if ignored:
            raise IngestionError(f"manifest {self.name!r}: a synthetic dataset "
                                 f"reads no file, so it cannot set {ignored}")
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
        try:
            _check_synthetic(**spec)
        except ValueError as exc:
            raise IngestionError(
                f"manifest {self.name!r}: synthetic spec: {exc}") from None


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
        ignored = sorted(set(doc) - {"name", "synthetic"}) if "synthetic" in doc else []
        if ignored:
            raise IngestionError(f"a synthetic dataset reads no file, so it cannot "
                                 f"set keys {ignored}")
        missing = doc.get("missing_values", ["?"])
        return DatasetManifest(
            name=doc.get("name"),
            path=str((path.parent / doc["path"]).resolve()) if doc.get("path") else None,
            columns=tuple(ColumnSpec(**c) for c in doc.get("columns", [])),
            delimiter=doc.get("delimiter", ","),
            # tuple() would split a string into characters
            missing_values=tuple(missing) if isinstance(missing, list) else missing,
            has_header=doc.get("has_header", False),
            expected_instances=expected.get("instances"),
            expected_features=expected.get("features"),
            expected_classes=expected.get("classes"),
            synthetic=doc.get("synthetic"),
        )
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise IngestionError(f"manifest {path}: {exc}") from exc


@dataclass(frozen=True)
class RawTable:
    """One parsed file as typed, read-only column arrays.

    A numeric feature column is float64 with NaN for a missing cell (no valid
    cell is NaN: ingestion rejects non-finite numbers). Every other column is
    int64 codes into `values[name]`, its distinct cells numbered by first
    appearance in the file, with -1 for a missing cell.
    """

    columns: dict            # column name -> np.ndarray, float64 or int64 codes
    values: dict             # coded column name -> tuple of its distinct cells
    n_rows: int

    @property
    def n_missing(self) -> int:
        """Missing cells over every column, counted from the arrays."""
        return sum(int(np.count_nonzero(np.isnan(c) if c.dtype.kind == "f" else c < 0))
                   for c in self.columns.values())


def _csv_rows(f, path, delimiter):
    """(file line, fields) of each CSV record of f; a record the csv module
    cannot read (say, a field over its size limit) raises IngestionError."""
    reader = csv.reader(f, delimiter=delimiter)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise IngestionError(f"{path}: row {reader.line_num}: {exc}") from exc


def load_table(path, manifest: DatasetManifest) -> RawTable:
    """Parse a delimited text file per the manifest's column specs into
    typed columns. Blank lines are skipped; with `has_header` the first
    non-blank line is the header. Errors name the row by its file line."""
    sentinels = set(manifest.missing_values)
    specs = list(manifest.columns)
    numeric = [c.role == "feature" and c.type == "numeric" for c in specs]
    cells = [[] for _ in specs]      # a float per numeric column, else a code
    index = [{} for _ in specs]      # coded column: distinct cell -> code
    header = manifest.has_header
    n_rows = 0
    try:
        f = open(path, newline="")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    with f:
        if manifest.delimiter == "whitespace":
            rows = ((line_no, line.split()) for line_no, line in enumerate(f, start=1))
        else:
            rows = _csv_rows(f, path, manifest.delimiter)
        for row_no, row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if header:
                header = False
                continue
            if len(row) != len(specs):
                raise IngestionError(
                    f"{path}: row {row_no} has {len(row)} fields, manifest "
                    f"{manifest.name!r} declares {len(specs)} columns")
            n_rows += 1
            for j, cell in enumerate(row):
                cell = cell.strip()
                missing = cell in sentinels or cell == ""
                if not numeric[j]:
                    code = -1 if missing else index[j].setdefault(cell, len(index[j]))
                    cells[j].append(code)
                    continue
                value = math.nan
                if not missing:
                    try:
                        value = float(cell)
                    except ValueError:
                        pass                  # reported with the non-finite cells
                    if not math.isfinite(value):
                        raise IngestionError(
                            f"{path}: row {row_no}, column {specs[j].name!r}: "
                            f"cannot parse {cell!r} as a finite number")
                cells[j].append(value)
    if n_rows == 0:
        raise IngestionError(f"{path}: no data rows")
    columns, values = {}, {}
    for spec, col, distinct, is_numeric in zip(specs, cells, index, numeric):
        array = np.array(col, dtype=np.float64 if is_numeric else np.int64)
        array.flags.writeable = False     # one table serves every run that reads it
        columns[spec.name] = array
        if not is_numeric:
            values[spec.name] = tuple(distinct)
    return RawTable(columns=columns, values=values, n_rows=n_rows)


@dataclass
class Dataset:
    features: np.ndarray           # (instances, features) float64
    labels: np.ndarray             # (instances,) int64 in [0, n_classes)
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    n_classes: int
    warnings: list = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _split(n: int, rng):
    """Shuffled (train, val, test) row indices, 60/20/20. Rounding (not
    flooring) keeps every split within one row of its fraction; the
    remainder lands in train."""
    perm = rng.permutation(n)
    n_val = round(n * VAL_FRACTION)
    n_train = n - n_val - round(n * TEST_FRACTION)
    return perm[:n_train], perm[n_train: n_train + n_val], perm[n_train + n_val:]


def _scale_columns(matrix: np.ndarray, train_rows):
    """Map every column in place affinely onto [-1, 1] by its train min/max
    (a constant column maps to 0). A val/test value far outside a tiny train
    range overflows to +-inf, as the per-cell arithmetic does; the network
    then rejects it and the run fails."""
    # a row mask, not matrix[train_rows]: min/max read the train rows in place
    train = np.zeros((len(matrix), 1), dtype=bool)
    train[train_rows] = True
    lo = matrix.min(axis=0, where=train, initial=np.inf)
    hi = matrix.max(axis=0, where=train, initial=-np.inf)
    varying = hi > lo
    with np.errstate(over="ignore"):
        matrix -= lo
        # a constant column is divided by 1, not by 0, then set to 0
        matrix /= np.where(varying, hi - lo, 1.0)
        matrix *= 2.0
        matrix -= 1.0
    matrix[:, ~varying] = 0.0


def _encode_labels(codes: np.ndarray, values: tuple, name):
    """Class indices from a coded target column. The vocabulary is in numeric
    order when every label parses as a number other than NaN (labels that
    parse to the same number, such as "1" and "1.0", in string order), else
    in string order: NaN has no place in the numeric order."""
    if np.any(codes < 0):
        raise PreprocessError(f"{name}: target column has missing values")
    if len(values) < 2:
        raise PreprocessError(f"{name}: target has a single class")
    try:
        numeric = not any(math.isnan(float(v)) for v in values)
    except ValueError:
        numeric = False
    vocab = sorted(values, key=lambda v: (float(v), v)) if numeric else sorted(values)
    rank = {v: i for i, v in enumerate(vocab)}
    return np.array([rank[v] for v in values], dtype=np.int64)[codes], len(vocab)


def _encode_categorical(codes: np.ndarray, missing: np.ndarray, n_values: int,
                        train_codes: np.ndarray) -> np.ndarray:
    """Re-code one coded column by first appearance in `train_codes` (the
    observed train cells in shuffled order); missing cells take the train
    mode, of equally frequent categories the one that appeared first, and
    categories unseen in train the reserved code, one past the last."""
    distinct, first_at = np.unique(train_codes, return_index=True)
    order = distinct[np.argsort(first_at)]
    mode = int(np.argmax(np.bincount(train_codes, minlength=n_values)[order]))
    recode = np.full(n_values, len(order), dtype=np.int64)
    recode[order] = np.arange(len(order))
    return np.where(missing, mode, recode[codes])


def preprocess(raw: RawTable, manifest: DatasetManifest, seed: int,
               scale_features: bool = True) -> Dataset:
    """Shuffle, split, encode, impute, and scale one raw table; the table
    itself is only read."""
    n = raw.n_rows
    train_rows, val_rows, test_rows = _split(n, np.random.default_rng(seed))

    target = manifest.target_column().name
    labels, n_classes = _encode_labels(raw.columns[target], raw.values[target],
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
    for j, spec in enumerate(feature_specs):
        col = raw.columns[spec.name]
        missing = col < 0 if spec.type == "categorical" else np.isnan(col)
        # the observed train cells, in shuffled order
        train = col[train_rows[~missing[train_rows]]]
        if not train.size:
            raise PreprocessError(
                f"{manifest.name}: feature {spec.name!r} has no observed values "
                f"in the train split")
        if spec.type == "categorical":
            matrix[:, j] = _encode_categorical(col, missing,
                                               len(raw.values[spec.name]), train)
        else:
            matrix[:, j] = np.where(missing, np.mean(train), col)
    if scale_features:
        _scale_columns(matrix, train_rows)

    return Dataset(
        features=matrix,
        labels=labels,
        train_idx=train_rows,
        val_idx=val_rows,
        test_idx=test_rows,
        n_classes=n_classes,
        warnings=warnings,
    )


def _check_synthetic(kind: str, n_features: int, n_instances: int,
                     n_classes: int = 3, **_):
    """Raise ValueError unless synthetic_dataset can build data from these
    arguments (n_classes defaults as there; the other keywords are free)."""
    if kind not in ("xor", "gaussian-blobs"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if n_features < 2:
        raise ValueError(f"need at least 2 features, got {n_features}")
    if n_instances < 10:
        raise ValueError(f"need at least 10 instances, got {n_instances}")
    if kind == "gaussian-blobs" and not 2 <= n_classes <= 2 ** min(n_features, 20):
        raise ValueError(f"cannot place {n_classes} distinct classes")


def synthetic_dataset(kind: str, n_features: int, n_instances: int, seed: int,
                      n_classes: int = 3, separation: float = 0.35,
                      noise: float = 0.12, scale_features: bool = True) -> Dataset:
    """Deterministic labeled data for desk-scale experiments.

    "xor": class = xor of the signs of the first two features; a thin band
    around those two axes is excluded so labels stay unambiguous.
    "gaussian-blobs": class c is an isotropic Gaussian (std = noise) around a
    class-specific sign pattern scaled by `separation`, so every feature
    carries signal. The defaults give well-separated clusters; small
    separation with large noise gives a weak-signal task whose optimum keeps
    activations moderate. As in preprocess, each feature is mapped onto
    [-1, 1] by its train min/max unless scale_features is False.

    The feature matrix is built in place: no matrix-sized temporary lives
    beside it, so building a dataset needs little more than the dataset
    (scaling reads the train split's min/max in place).
    """
    _check_synthetic(kind, n_features, n_instances, n_classes)
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
    else:    # gaussian-blobs
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
        # clip(patterns[y] * separation + normal(0, noise)), built in x's own
        # buffer: normal(0, noise) is 0.0 + noise * standard_normal, so the
        # bits are the same, and each class's shift goes to its rows
        x = rng.standard_normal((n_instances, n_features))
        x *= noise
        for c in range(n_classes):
            np.add(x, patterns[c] * separation, out=x, where=(y == c)[:, np.newaxis])
        np.clip(x, -1.0, 1.0, out=x)

    train_rows, val_rows, test_rows = _split(n_instances, rng)
    if scale_features:
        _scale_columns(x, train_rows)
    return Dataset(
        features=x,
        labels=y,
        train_idx=train_rows,
        val_idx=val_rows,
        test_idx=test_rows,
        n_classes=int(n_classes),
    )
