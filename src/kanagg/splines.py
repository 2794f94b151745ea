"""B-spline basis and silu residual of the per-edge activation functions.

Each edge carries phi(x) = w_base * silu(x) + w_spline * sum_i c_i * B_i(x),
where B_i are degree-k B-spline basis functions on a fixed uniform knot grid.
Outside the knot span every B_i vanishes, so only the silu residual remains;
this is intentional (out-of-range inputs are a regime we want to observe, not
clamp away). basis_matrix returns a layer's extended basis [B_1, ..., B_n,
silu], so an edge is its dot product with the coefficients [w_spline * c,
w_base]. On the uniform grid only k+1 basis functions are non-zero at a
point, and in the point's position f inside its knot span they are the same
k+1 polynomials of degree k for every span. make_grid computes their power
coefficients once, by de Boor's recursion on coefficient rows, and stores
them as KnotGrid.poly; basis_matrix finds each point's knot span, evaluates
the table at f by Horner's rule and scatters the k+1 values into one buffer
whose spare column holds silu. network.py stores every edge of a layer
stacked and evaluates them for a whole batch at once.
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
    G + k basis functions. poly[r, j] is the coefficient of f^j in
    B_{s-k+r}(t_s + f h), the r-th non-zero basis function at local position
    0 <= f < 1 in any span s; deriv_poly holds the same for its x-derivative
    (one zero column at k = 0).
    """

    range_lo: float
    range_hi: float
    grid_size: int
    degree: int
    knots: np.ndarray = field(repr=False)
    poly: np.ndarray = field(repr=False)
    deriv_poly: np.ndarray = field(repr=False)

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
    poly = _local_polynomials(degree)
    deriv_poly = np.zeros((degree + 1, max(degree, 1)))
    deriv_poly[:, :degree] = poly[:, 1:] * np.arange(1, degree + 1) / h
    return KnotGrid(float(range_lo), float(range_hi), int(grid_size), int(degree),
                    knots, poly, deriv_poly)


def _local_polynomials(k: int) -> np.ndarray:
    """(k+1, k+1) power coefficients in f of the k+1 non-zero B-splines of a
    span. de Boor on the uniform grid, run on coefficient rows: at degree d,
    row r holds B_{s-k+r} for r = k-d..k, and B_{s-k+r} = ((f + k-r)
    B_{s-k+r}^{d-1} + (r+d+1-k - f) B_{s-k+r+1}^{d-1}) / d."""
    poly = np.eye(1, k + 1)
    for d in range(1, k + 1):
        c = np.arange(d, dtype=np.float64)[:, np.newaxis]
        prev = poly / d
        # f * prev: every row has degree d-1 < k, so the roll wraps in a zero
        f_prev = np.roll(prev, 1, axis=1)
        poly = np.zeros((d + 1, k + 1))
        poly[1:] = c[::-1] * prev + f_prev
        poly[:-1] += (c + 1.0) * prev - f_prev
    return poly


def _horner(table, f, valid):
    """Row r of the result: the polynomial table[r] (power coefficients,
    lowest first) at every f, 0 where not valid. Evaluated in place on one
    buffer: a matmul of the table with the powers of f would also allocate
    the powers, and its BLAS call raised a compare's peak RSS by 3 MB."""
    out = np.empty((table.shape[0], f.size))
    out[...] = table[:, -1:]
    for j in range(table.shape[1] - 2, -1, -1):
        out *= f
        out += table[:, j: j + 1]
    out *= valid
    return out


def basis_matrix(x: np.ndarray, grid: KnotGrid, derivs: bool = True):
    """Evaluate the extended basis [B_1, ..., B_n, silu], and optionally its
    x-derivatives [B'_1, ..., B'_n, silu'], at many points.

    x may have any shape; returns (values, derivs) with shape x.shape +
    (n_basis + 1,), derivs None when not asked for. Each point lies in one
    half-open knot interval [t_s, t_{s+1}), where only the k+1 basis
    functions s-k..s are non-zero: the span comes from one floor, those k+1
    values from grid.poly (grid.deriv_poly) by Horner's rule at the point's
    position in the span, and they are scattered into a dense buffer whose
    spare column then takes silu. Points outside the extended knot span, and
    non-finite points, give all-zero B-spline columns.
    """
    x = np.asarray(x, dtype=np.float64)
    t = grid.knots
    n_spans = len(t) - 1
    flat = x.reshape(-1)
    # non-finite points (diverged hidden values) overflow or give nan here
    with np.errstate(over="ignore", invalid="ignore"):
        u = (flat - t[0]) / grid.spacing
        # fmin/fmax send nan to the last span and clamp +-inf; such points
        # are marked invalid below
        s = np.fmax(np.fmin(np.floor(u), n_spans - 1), 0).astype(np.intp)
        # sigmoid without overflow from e = exp(-|x|); minimum keeps a nan's
        # sign, as exp(x) of a nan does. The numerator is 1 for x >= 0, else
        # e; maximum gives it without the branch np.where mispredicts on
        # mixed signs (e <= 1, and a nan stays a nan)
        e = np.exp(np.minimum(flat, -flat))
        sig = np.maximum(e, flat >= 0) / (1.0 + e)
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
    shape = x.shape + (grid.n_basis + 1,)
    # k spill columns on each side of the dense buffer take basis columns
    # past either end; the first right one then takes silu (at k = 0 one
    # column is added for it). Point i's k+1 local values go to the flat
    # buffer at start[i] onwards, for values and derivatives alike.
    k, n = grid.degree, grid.n_basis
    width = n + k + max(k, 1)
    start = np.arange(0, s.size * width, width)
    start += s
    values = _scatter(_horner(grid.poly, f, valid), start, silu, width, k, n)
    if not derivs:
        return values.reshape(shape), None
    db = _horner(grid.deriv_poly, f, valid)
    return (values.reshape(shape),
            _scatter(db, start, silu_grad, width, k, n).reshape(shape))


def _scatter(local, start, last, width, k, n):
    """Place the k+1 local values of each point (the columns of `local`) at
    flat positions start..start+k of a zeroed (points, width) buffer, put
    `last` in its column k + n, and return its basis columns k..k+n (the
    n basis functions, then `last`)."""
    dense = np.zeros((start.size, width))
    flat = dense.reshape(-1)
    for r in range(k + 1):
        flat[r:][start] = local[r]   # flat[start + r], without the sum
    dense[:, k + n] = last   # after the scatter: it overwrites a spill column
    return dense[:, k: k + n + 1]

