"""B-spline basis and silu residual of the per-edge activation functions.

Each edge carries phi(x) = w_base * silu(x) + w_spline * sum_i c_i * B_i(x),
where B_i are degree-k B-spline basis functions on a fixed uniform knot grid.
Outside the knot span every B_i vanishes, so only the silu residual remains;
this is intentional (out-of-range inputs are a regime we want to observe, not
clamp away). basis_matrix returns a layer's extended basis [B_1, ..., B_n,
silu], so an edge is its dot product with the coefficients [w_spline * c,
w_base]. On the uniform grid only k+1 basis functions are non-zero at a
point, so basis_matrix finds each point's knot span, runs de Boor's recursion
on those k+1 values alone and scatters them into one buffer whose spare
column holds silu. network.py stores every edge of a layer stacked and
evaluates them for a whole batch at once.
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


def basis_matrix(x: np.ndarray, grid: KnotGrid, derivs: bool = True):
    """Evaluate the extended basis [B_1, ..., B_n, silu], and optionally its
    x-derivatives [B'_1, ..., B'_n, silu'], at many points.

    x may have any shape; returns (values, derivs) with shape x.shape +
    (n_basis + 1,), derivs None when not asked for. Each point lies in one
    half-open knot interval [t_s, t_{s+1}), where only the k+1 basis
    functions s-k..s are non-zero: the span comes from one floor, those k+1
    values from de Boor's recursion, and they are scattered into a dense
    buffer whose spare column then takes silu. Points outside the extended
    knot span, and non-finite points, give all-zero B-spline columns.
    """
    x = np.asarray(x, dtype=np.float64)
    t = grid.knots
    k = grid.degree
    n_spans = len(t) - 1
    flat = x.reshape(-1)
    # non-finite points (diverged hidden values) overflow or give nan here
    with np.errstate(over="ignore", invalid="ignore"):
        u = (flat - t[0]) / grid.spacing
        # fmin/fmax send nan to the last span and clamp +-inf; such points
        # are marked invalid below
        s = np.fmax(np.fmin(np.floor(u), n_spans - 1), 0).astype(np.intp)
        # sigmoid without overflow from e = exp(-|x|); minimum keeps a nan's
        # sign, as exp(x) of a nan does
        e = np.exp(np.minimum(flat, -flat))
        sig = np.where(flat >= 0, 1.0, e) / (1.0 + e)
        silu = flat * sig
        silu_grad = sig * (1.0 + flat * (1.0 - sig)) if derivs else None
    # settle the span against the stored knots, so that a point one ulp from
    # a knot falls in the interval whose bounds it satisfies; a point past
    # either end may step off the spans and is clamped back
    s -= flat < t[s]
    s += flat >= t[s + 1]
    np.minimum(np.maximum(s, 0, out=s), n_spans - 1, out=s)
    valid = (t[0] <= flat) & (flat < t[-1])
    # position inside the span in units of the knot spacing, 0 when invalid
    f = np.where(valid, u - s, 0.0)

    # de Boor on the uniform grid: at degree d, row r of b holds B_{s-k+r}
    # for r = k-d..k, and B_{s-k+r} = ((f + k-r) B_{s-k+r}^{d-1}
    # + (r+d+1-k - f) B_{s-k+r+1}^{d-1}) / d
    b = valid.astype(np.float64)[np.newaxis]
    low = None
    for d in range(1, k + 1):
        low = b
        c = np.arange(d, dtype=np.float64)[:, np.newaxis]
        prev = b / d
        b = np.zeros((d + 1, f.size))
        b[1:] = (f + c[::-1]) * prev
        b[:-1] += (c + 1.0 - f) * prev
    shape = x.shape + (grid.n_basis + 1,)
    values = _scatter(b, s, silu, grid).reshape(shape)
    if not derivs:
        return values, None
    # d/dx B_{s-k+r} = (B_{s-k+r}^{k-1} - B_{s-k+r+1}^{k-1}) / h; 0 for k = 0
    db = np.zeros_like(b)
    if low is not None:
        db[1:] = low
        db[:-1] -= low
        db /= grid.spacing
    return values, _scatter(db, s, silu_grad, grid).reshape(shape)


def _scatter(local, s, last, grid):
    """Place the k+1 local values of each point (the columns of `local`) at
    basis columns s-k..s of a dense (points, n_basis + 1) view, and `last` in
    its final column; basis columns past either end are dropped."""
    k, n = grid.degree, grid.n_basis
    # k spill columns on each side take basis columns past either end; the
    # first right one then takes `last` (at k = 0 one column is added for it)
    width = n + k + max(k, 1)
    dense = np.zeros((s.size, width))
    flat = dense.reshape(-1)
    start = np.arange(s.size) * width + s
    for r in range(k + 1):
        flat[start + r] = local[r]
    dense[:, k + n] = last   # after the scatter: it overwrites a spill column
    return dense[:, k: k + n + 1]

