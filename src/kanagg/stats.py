"""Tied ranking across datasets and the Wilcoxon signed-rank test.

Wilcoxon conventions: zero differences are discarded, absolute differences
get averaged tie ranks, and the two-sided p-value is exact up to EXACT_LIMIT
effective pairs, switching to a normal approximation with tie-corrected
variance and continuity correction beyond that. The exact p-value counts the
2^n sign assignments by their rank sum with a dynamic programme over doubled
rank sums: tie ranks are multiples of 0.5, so doubled sums are integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_LIMIT = 20
SIGNIFICANCE_LEVEL = 0.05


def rank_with_ties(scores, higher_is_better: bool = True) -> np.ndarray:
    """Averaged-tie competition ranks; rank 1 is the best score."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError(f"scores must be a non-empty vector, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    key = -s if higher_is_better else s
    order = np.argsort(key, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and key[order[j + 1]] == key[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0   # mean of positions i..j, 1-based
        i = j + 1
    return ranks


def average_rank(per_dataset_ranks) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of each row across datasets. NaN entries
    (failed runs) are ignored per row."""
    m = np.asarray(per_dataset_ranks, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a 2-D rank matrix, got shape {m.shape}")
    with np.errstate(invalid="ignore"):
        means = np.nanmean(m, axis=1)
        stds = np.nanstd(m, axis=1)
    return means, stds


@dataclass(frozen=True)
class WilcoxonResult:
    w_plus: float
    w_minus: float
    n_effective: int
    p_value: float
    method: str                 # "exact" | "normal-approximation"
    degenerate: bool = False    # all differences were zero

    @property
    def significant(self) -> bool:
        return self.p_value < SIGNIFICANCE_LEVEL


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test on a - b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"need equal-length vectors, got {a.shape} and {b.shape}")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 0, 1.0, "exact", degenerate=True)
    ranks = rank_with_ties(np.abs(d), higher_is_better=False)  # smallest |d| -> rank 1
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    if n <= EXACT_LIMIT:
        p = _exact_p(ranks, w_plus)
        method = "exact"
    else:
        p = _normal_p(d, ranks, w_plus)
        method = "normal-approximation"
    return WilcoxonResult(w_plus, w_minus, n, p, method)


def _exact_p(ranks: np.ndarray, w_plus: float) -> float:
    """Doubled one-sided tail over all sign assignments, capped at 1."""
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    # counts[s]: sign assignments whose positive ranks sum to s / 2
    counts = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[:-r]
    w = int(round(2.0 * w_plus))
    total = 1 << ranks.size
    p_le = int(counts[: w + 1].sum()) / total
    p_ge = int(counts[w:].sum()) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_p(d: np.ndarray, ranks: np.ndarray, w_plus: float) -> float:
    n = d.size
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= (counts ** 3 - counts).sum() / 48.0
    dev = w_plus - mean
    if var <= 0:
        return 1.0
    z = (dev - 0.5 * np.sign(dev)) / math.sqrt(var)   # continuity correction
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
