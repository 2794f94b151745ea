"""B-spline basis and silu residual of the per-edge activation functions.

Each edge carries phi(x) = w_base * silu(x) + w_spline * sum_i c_i * B_i(x),
where B_i are degree-k B-spline basis functions on a fixed uniform knot grid.
Outside the knot span every B_i vanishes, so only the silu residual remains;
this is intentional (out-of-range inputs are a regime we want to observe, not
clamp away). network.py stores every edge of a layer stacked and evaluates
them for a whole batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _require_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite, got {x!r}")


@dataclass(frozen=True, eq=False)
class KnotGrid:
    """Uniform knot vector over [range_lo, range_hi], extended k knots past each end.

    G intervals inside the active range, degree k, G + 2k + 1 knots,
    G + k basis functions.
    """

    range_lo: float
    range_hi: float
    grid_size: int
    degree: int
    knots: np.ndarray = field(repr=False)

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.degree

    @property
    def spacing(self) -> float:
        return (self.range_hi - self.range_lo) / self.grid_size


def make_grid(range_lo: float = -1.0, range_hi: float = 1.0,
              grid_size: int = 3, degree: int = 3) -> KnotGrid:
    """Build the shared knot grid for a layer of edge activations."""
    _require_finite([range_lo, range_hi], "grid range")
    if not range_lo < range_hi:
        raise ValueError(f"range_lo must be < range_hi, got [{range_lo}, {range_hi}]")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    h = (range_hi - range_lo) / grid_size
    knots = range_lo + h * np.arange(-degree, grid_size + degree + 1, dtype=np.float64)
    return KnotGrid(float(range_lo), float(range_hi), int(grid_size), int(degree), knots)


def basis_matrix(x: np.ndarray, grid: KnotGrid) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all basis functions and their first derivatives at many points.

    x may have any shape; returns (values, derivs) with shape x.shape + (n_basis,).
    Cox-de Boor recursion on the half-open intervals [t_i, t_{i+1}); all basis
    values are exactly zero outside the extended knot span.
    """
    x = np.asarray(x, dtype=np.float64)
    t = grid.knots
    k = grid.degree
    flat = x.reshape(-1, 1)
    # degree 0: indicator of the half-open knot interval
    b = ((flat >= t[:-1]) & (flat < t[1:])).astype(np.float64)
    b_prev = b
    for d in range(1, k + 1):
        left = (flat - t[: -d - 1]) / (t[d:-1] - t[: -d - 1])
        right = (t[d + 1:] - flat) / (t[d + 1:] - t[1:-d])
        b_prev = b
        b = left * b[:, :-1] + right * b[:, 1:]
    if k == 0:
        db = np.zeros_like(b)
    else:
        # derivative of the final step from the degree k-1 values
        db = k * (b_prev[:, :-1] / (t[k:-1] - t[: -k - 1])
                  - b_prev[:, 1:] / (t[k + 1:] - t[1:-k]))
    shape = x.shape + (grid.n_basis,)
    return b.reshape(shape), db.reshape(shape)


def sigmoid(x):
    """Overflow-free logistic function; silu(x) = x * sigmoid(x) is the smooth
    residual under every spline."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out

