"""Deterministic generator for an input shaped like the UCI `adult` file.

The file follows the column schema of `manifests/adult.json`: 32 561 rows,
", " separators, the category counts of the real file, about 1% `?` cells
(only in workclass, occupation and native_country, as in the real file) and
about 24% of rows in the positive class `>50K`. The label depends on a few
features, so the networks trained on it learn something.

Only the seed decides the output: the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

N_ROWS = 32561
POSITIVE_SHARE = 0.24

# (name, role, type) in file order, as in manifests/adult.json
COLUMNS = (
    ("age", "feature", "numeric"),
    ("workclass", "feature", "categorical"),
    ("fnlwgt", "feature", "numeric"),
    ("education", "feature", "categorical"),
    ("education_num", "feature", "numeric"),
    ("marital_status", "feature", "categorical"),
    ("occupation", "feature", "categorical"),
    ("relationship", "feature", "categorical"),
    ("race", "feature", "categorical"),
    ("sex", "feature", "categorical"),
    ("capital_gain", "feature", "numeric"),
    ("capital_loss", "feature", "numeric"),
    ("hours_per_week", "feature", "numeric"),
    ("native_country", "feature", "categorical"),
    ("income", "target", "categorical"),
)

WORKCLASS = ("Private", "Self-emp-not-inc", "Local-gov", "State-gov",
             "Self-emp-inc", "Federal-gov", "Without-pay", "Never-worked")
# education level -> education_num, as in the real file
EDUCATION = (("HS-grad", 9), ("Some-college", 10), ("Bachelors", 13),
             ("Masters", 14), ("Assoc-voc", 11), ("11th", 7), ("Assoc-acdm", 12),
             ("10th", 6), ("7th-8th", 4), ("Prof-school", 15), ("9th", 5),
             ("12th", 8), ("Doctorate", 16), ("5th-6th", 3), ("1st-4th", 2),
             ("Preschool", 1))
MARITAL = ("Married-civ-spouse", "Never-married", "Divorced", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse")
OCCUPATION = ("Prof-specialty", "Craft-repair", "Exec-managerial",
              "Adm-clerical", "Sales", "Other-service", "Machine-op-inspct",
              "Transport-moving", "Handlers-cleaners", "Farming-fishing",
              "Tech-support", "Protective-serv", "Priv-house-serv",
              "Armed-Forces")
RELATIONSHIP = ("Husband", "Not-in-family", "Own-child", "Unmarried", "Wife",
                "Other-relative")
RACE = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
SEX = ("Male", "Female")
COUNTRY = ("United-States", "Mexico", "Philippines", "Germany", "Canada",
           "Puerto-Rico", "El-Salvador", "India", "Cuba", "England", "Jamaica",
           "South", "China", "Italy", "Dominican-Republic", "Vietnam",
           "Guatemala", "Japan", "Poland", "Columbia", "Taiwan", "Haiti", "Iran",
           "Portugal", "Nicaragua", "Peru", "France", "Greece", "Ecuador",
           "Ireland", "Hong", "Cambodia", "Trinadad&Tobago", "Laos", "Thailand",
           "Yugoslavia", "Outlying-US(Guam-USVI-etc)", "Honduras", "Hungary",
           "Scotland", "Holand-Netherlands")
# share of `?` cells per column; 0.147 of one row's 15 cells is about 1%
MISSING_SHARE = {"workclass": 0.06, "occupation": 0.062, "native_country": 0.025}


def _skewed(rng, n, k, head):
    """Category indices with `head` mass on index 0 and a geometric tail."""
    tail = 0.7 ** np.arange(k - 1)
    p = np.concatenate([[head], (1.0 - head) * tail / tail.sum()])
    return rng.choice(k, size=n, p=p)


def generate_rows(seed: int, n_rows: int = N_ROWS) -> list[str]:
    """The data lines (without newlines) of one adult-shaped file."""
    rng = np.random.default_rng(seed)
    age = np.clip(rng.normal(38.6, 13.6, n_rows), 17, 90).astype(np.int64)
    fnlwgt = np.clip(rng.lognormal(np.log(178000.0), 0.5, n_rows),
                     12285, 1484705).astype(np.int64)
    workclass = _skewed(rng, n_rows, len(WORKCLASS), 0.74)
    education = _skewed(rng, n_rows, len(EDUCATION), 0.32)
    education_num = np.array([num for _, num in EDUCATION])[education]
    marital = _skewed(rng, n_rows, len(MARITAL), 0.46)
    occupation = rng.integers(0, len(OCCUPATION), n_rows)
    relationship = _skewed(rng, n_rows, len(RELATIONSHIP), 0.40)
    race = _skewed(rng, n_rows, len(RACE), 0.85)
    sex = (rng.random(n_rows) < 0.33).astype(np.int64)
    gain = np.where(rng.random(n_rows) < 0.083,
                    np.clip(rng.lognormal(8.5, 1.0, n_rows), 114, 99999), 0
                    ).astype(np.int64)
    loss = np.where(rng.random(n_rows) < 0.047,
                    np.clip(rng.normal(1870, 360, n_rows), 155, 4356), 0
                    ).astype(np.int64)
    hours = np.clip(rng.normal(40.4, 12.3, n_rows), 1, 99).astype(np.int64)
    country = _skewed(rng, n_rows, len(COUNTRY), 0.90)

    score = (0.35 * (education_num - 10) + 0.04 * (age - 38)
             + 0.03 * (hours - 40) + 1.2 * (marital == 0) + 1.5 * (gain > 0)
             + 0.4 * (sex == 0) + rng.normal(0.0, 1.0, n_rows))
    positive = score >= np.quantile(score, 1.0 - POSITIVE_SHARE)

    cells = {
        "age": age.astype(str),
        "workclass": np.array(WORKCLASS)[workclass],
        "fnlwgt": fnlwgt.astype(str),
        "education": np.array([name for name, _ in EDUCATION])[education],
        "education_num": education_num.astype(str),
        "marital_status": np.array(MARITAL)[marital],
        "occupation": np.array(OCCUPATION)[occupation],
        "relationship": np.array(RELATIONSHIP)[relationship],
        "race": np.array(RACE)[race],
        "sex": np.array(SEX)[sex],
        "capital_gain": gain.astype(str),
        "capital_loss": loss.astype(str),
        "hours_per_week": hours.astype(str),
        "native_country": np.array(COUNTRY)[country],
        "income": np.where(positive, ">50K", "<=50K"),
    }
    for name, share in MISSING_SHARE.items():
        col = cells[name].astype(object)
        col[rng.random(n_rows) < share] = "?"
        cells[name] = col
    columns = [cells[name].tolist() for name, _, _ in COLUMNS]
    return [", ".join(row) for row in zip(*columns)]


def write_inputs(seed: int, directory) -> Path:
    """Write `adult.data` and its manifest into `directory`; return the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data = directory / "adult.data"
    data.write_text("\n".join(generate_rows(seed)) + "\n")
    manifest = {
        "name": "adult",
        "path": data.name,
        "delimiter": ",",
        "missing_values": ["?"],
        "columns": [{"name": n, "role": r, "type": t} for n, r, t in COLUMNS],
        "expected": {"instances": N_ROWS, "features": len(COLUMNS) - 1,
                     "classes": 2},
    }
    path = directory / "adult.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path
