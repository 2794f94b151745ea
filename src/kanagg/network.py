"""KAN assembly: edge-activation layers, node aggregation, optional layer norm.

A network with widths [n_in, h_1, ..., n_out] has one KANLayer per width
transition. Layer l holds an (n_out x n_in) matrix of edge activations that
all share the layer's knot grid, that layer's aggregator and, when
layer_norm is enabled and the layer is hidden, the norm applied to its node
vector before the next layer's splines read it (never to the raw inputs or
the final logits); build_network puts every layer's grid on [-1, 1]. A
hidden vector adheres where it lies in the range of the grid of the layer
that reads it (adherence_counts).

An edge w_base * silu(x) + w_spline * sum_i c_i B_i(x) is the dot product of
the extended basis [B_1(x), ..., B_n(x), silu(x)], built by splines.py in one
buffer, with the folded coefficients [w_spline * c, w_base]; a layer is one
(batch x n_basis+1) by (n_basis+1 x n_out) matrix product per input.
Untraced forward passes (evaluation) run in blocks of
block_rows(net) rows, a fixed number of layer-0 points each, so a wide input
gets shorter blocks, and may read a split of a dataset as its row indices,
one block of rows at a time; traced passes keep every intermediate that
backward reads.

A Network is its parameters and its layers. Every trainable value lives in
one float64 vector, Network.params, laid out layer by layer as each layer's
coeffs, w_base, w_spline, then norm gain and bias. Each per-layer choice
(grid, aggregator, a norm or none) and array shape is held once, by the
layer's KANLayer: Network.views(vec) gives a copy of each layer whose
coeffs, w_base, w_spline and norm gain and bias are reshaped views of a
vector laid out like params, and Network.layers is views(params). Training
updates and checks the whole network with one array operation, and backward
writes each layer's gradient by field into the views of one gradient
vector. A traced forward pass records one LayerTrace per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .aggregators import Aggregator, aggregate_batch
from .splines import KnotGrid, basis_matrix, make_grid

LAYER_NORM_EPS = 1e-5
# layer-0 points (rows x n_in) per block of an untraced forward pass and of
# train's layer-0 basis: a block's buffers then have the same size whatever
# the input width
FORWARD_BLOCK_POINTS = 8192


class ConfigError(ValueError):
    pass


@dataclass
class LayerNormParams:
    gain: np.ndarray
    bias: np.ndarray


@dataclass
class KANLayer:
    """All edges of one width transition, stored stacked for vectorized math,
    and the layer norm applied to its node vector (hidden layers of a
    layer-norm network only)."""

    coeffs: np.ndarray    # (n_out, n_in, n_basis)
    w_base: np.ndarray    # (n_out, n_in)
    w_spline: np.ndarray  # (n_out, n_in)
    grid: KnotGrid
    aggregator: Aggregator
    norm: LayerNormParams | None = None   # gain, bias: (n_out,)

    @property
    def n_in(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_out(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class Network:
    params: np.ndarray  # every trainable value; the layers' arrays are views of it
    # one per layer, in layout order: each layer's grid, aggregator, whether it
    # has a norm and its arrays' shapes; __post_init__ rebinds its arrays to
    # views of params
    layers: list

    def __post_init__(self):
        self.layers = self.views(self.params)

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out

    def views(self, vec: np.ndarray) -> list[KANLayer]:
        """A vector laid out like params, as one KANLayer per layer whose
        coeffs, w_base, w_spline and norm gain and bias are views of it; the
        grid and aggregator of each are those of the network's layer."""
        layers, start = [], 0
        for layer in self.layers:
            norm = () if layer.norm is None else (layer.norm.gain, layer.norm.bias)
            parts = []
            for a in (layer.coeffs, layer.w_base, layer.w_spline, *norm):
                parts.append(vec[start: start + a.size].reshape(a.shape))
                start += a.size
            coeffs, w_base, w_spline, *norm = parts
            layers.append(replace(
                layer, coeffs=coeffs, w_base=w_base, w_spline=w_spline,
                norm=None if layer.norm is None else LayerNormParams(*norm)))
        return layers


@dataclass
class LayerTrace:
    """One layer's intermediates of a traced forward pass.

    inputs        (B, n_in)  spline inputs: the network input, then hidden
                  values after any norm
    basis, basis_deriv  (B, n_in, n_basis+1)  B-spline values then silu, and
                  their x-derivatives (None for layer 0: nothing reads them)
    coeffs        (n_out, n_in, n_basis+1)  folded coefficients
    edge_outputs  (B, n_out, n_in)  edge outputs
    ln_zhat, ln_inv_std  layer-norm intermediates; None without a norm
    """

    inputs: np.ndarray
    basis: np.ndarray
    basis_deriv: np.ndarray | None
    coeffs: np.ndarray
    edge_outputs: np.ndarray
    ln_zhat: np.ndarray | None
    ln_inv_std: np.ndarray | None


@dataclass
class ForwardTrace:
    """What backward and adherence_counts read of one traced forward pass:
    one LayerTrace per layer of the network. The logits are forward's return
    value."""

    network: Network
    layers: list = field(default_factory=list)


def build_network(widths, aggregators, layer_norm: bool = False,
                  grid_size: int = 3, degree: int = 3, seed: int = 0) -> Network:
    """Deterministically initialize a network from its seed.

    One layer per width transition, with the aggregator given for it (an
    Aggregator or its name); with layer_norm, every hidden layer has a norm.
    Every layer's grid is make_grid(-1, 1, grid_size, degree).
    coeffs ~ Normal(0, 0.1), drawn layer by layer; w_base = w_spline = 1;
    layer-norm gain/bias = 1/0. Each layer's arrays, in that order, follow
    the previous layer's in params.
    """
    widths = tuple(int(w) for w in widths)
    aggregators = tuple(Aggregator(a) for a in aggregators)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ConfigError(f"widths must be >= 2 entries, all >= 1: {widths}")
    if len(aggregators) != len(widths) - 1:
        raise ConfigError(f"need {len(widths) - 1} aggregators for widths {widths}, "
                          f"got {len(aggregators)}")
    rng = np.random.default_rng(seed)
    grid = make_grid(-1.0, 1.0, grid_size, degree)
    layers, arrays = [], []
    for l, aggregator in enumerate(aggregators):
        n_in, n_out = widths[l: l + 2]
        layer = [rng.normal(0.0, 0.1, size=(n_out, n_in, grid.n_basis)),
                 np.ones((n_out, n_in)), np.ones((n_out, n_in))]
        if layer_norm and l < len(aggregators) - 1:
            layer += [np.ones(n_out), np.zeros(n_out)]
        arrays += [a.ravel() for a in layer]
        layers.append(KANLayer(*layer[:3], grid, aggregator,
                               LayerNormParams(*layer[3:]) if layer[3:] else None))
    return Network(params=np.concatenate(arrays), layers=layers)


def _layer_norm(v: np.ndarray, ln: LayerNormParams):
    """(v - mean) / sqrt(popvar + LAYER_NORM_EPS) * gain + bias over the last
    axis.

    Returns (out, zhat, inv_std); the backward pass reuses zhat and inv_std.
    """
    mean = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    zhat = (v - mean) * inv_std
    return zhat * ln.gain + ln.bias, zhat, inv_std


def per_input_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[x, y, p] = sum_z a[x, p, z] * b[y, p, z]: one matrix product per
    input p, as np.matmul on transposed views."""
    return np.matmul(a.transpose(1, 0, 2), b.transpose(1, 2, 0)).transpose(1, 2, 0)


def fold_coeffs(layer: KANLayer) -> np.ndarray:
    """[coeffs * w_spline, w_base] (n_out, n_in, n_basis+1), from the layer's
    current parameters: the coefficients of the basis [B_1, ..., B_n, silu]."""
    return np.concatenate((layer.coeffs * layer.w_spline[:, :, np.newaxis],
                           layer.w_base[:, :, np.newaxis]), axis=2)


def fold_coeffs_adjoint(layer: KANLayer, g: np.ndarray, out: KANLayer):
    """Write the gradient g of fold_coeffs(layer) into out.coeffs, out.w_base
    and out.w_spline."""
    g_spline = g[:, :, :-1]
    np.multiply(g_spline, layer.w_spline[:, :, np.newaxis], out=out.coeffs)
    out.w_base[...] = g[:, :, -1]
    (g_spline * layer.coeffs).sum(axis=2, out=out.w_spline)


def input_basis(net: Network, x: np.ndarray) -> np.ndarray:
    """Layer 0's extended basis of the rows x, (rows, n_in, n_basis+1),
    without derivatives: what a traced forward of those rows would build
    for layer 0. Every value depends on its own point only, so a slice of
    rows of it equals the basis of those rows."""
    return basis_matrix(x, net.layers[0].grid, derivs=False)[0]


def block_rows(net: Network) -> int:
    """Rows per block: FORWARD_BLOCK_POINTS layer-0 points, at least one row
    (273 rows at 30 inputs, 585 at 14, 1365 at 6)."""
    return max(1, FORWARD_BLOCK_POINTS // net.n_in)


def _forward_rows(net: Network, x: np.ndarray, t: ForwardTrace | None,
                  basis0: np.ndarray | None = None):
    """All layers on a block of rows; fills the trace when one is given.
    basis0, when given, is input_basis(net, x), built by the caller."""
    for l, layer in enumerate(net.layers):
        if l == 0 and basis0 is not None:
            basis, derivs = basis0, None
        else:
            basis, derivs = basis_matrix(x, layer.grid,
                                         derivs=t is not None and l > 0)
        coeffs = fold_coeffs(layer)
        edge_out = per_input_matmul(basis, coeffs)
        node = aggregate_batch(edge_out, layer.aggregator)
        out, zhat, inv_std = ((node, None, None) if layer.norm is None
                              else _layer_norm(node, layer.norm))
        if t is not None:
            t.layers.append(LayerTrace(x, basis, derivs, coeffs, edge_out,
                                       zhat, inv_std))
        x = out
        # free this layer's arrays before the next layer allocates its own
        del basis, derivs, edge_out, node
    return x


def forward(net: Network, x, trace: bool = False, basis0=None, rows=None):
    """Run the network on a (batch, n_in) array, or on its rows x[rows].

    Returns (batch, n_out) logits, or (logits, ForwardTrace) when trace=True.
    Every step is row-wise, so the untraced pass runs block_rows(net) rows at
    a time, FORWARD_BLOCK_POINTS layer-0 points: besides the input and the
    logits it holds one block's rows, bases and edge outputs, whatever the
    batch or the input width. Given rows, an index array, it gathers each
    block x[rows[block]] itself, so a split of a dataset is read without a
    copy of it; only the rows it reads must be finite. The traced pass keeps
    the whole batch's intermediates for backward. A traced pass may take
    layer 0's basis from the caller as basis0 = input_basis(net, x), for
    example a slice of one built for many batches at once; it then builds
    the basis of layers 1 and up only. An untraced pass ignores basis0, and
    a traced one takes no rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.n_in:
        raise ValueError(f"input shape {x.shape} does not match n_in={net.n_in}")

    if trace:
        if rows is not None:
            raise ValueError("a traced pass takes its batch as x, not as rows")
        _require_finite(x)
        if basis0 is not None and basis0.shape[:2] != x.shape:
            raise ValueError(f"basis0 shape {basis0.shape} does not match the "
                             f"input {x.shape}")
        t = ForwardTrace(network=net)
        return _forward_rows(net, x, t, basis0), t
    n = x.shape[0] if rows is None else len(rows)
    logits = np.empty((n, net.n_out))
    step = block_rows(net)
    for start in range(0, n, step):
        block = slice(start, start + step)
        xb = x[block] if rows is None else x[rows[block]]
        _require_finite(xb)
        logits[block] = _forward_rows(net, xb, None)
    return logits


def _require_finite(x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")


def mean_to_scaled_sum(net: Network) -> Network:
    """Sum-aggregated twin with every edge function divided by its layer fan-in.

    Scales w_base and w_spline by 1/n_in per layer, which divides each whole
    edge activation by the fan-in; the mean-aggregated original and this
    sum-aggregated copy then compute identical outputs. Each twin layer is
    the source layer with MEAN swapped for SUM, so its grid (also one set
    after build_network) and its norm carry over.
    """
    twin = Network(params=net.params.copy(), layers=[
        replace(layer, aggregator=Aggregator.SUM)
        if layer.aggregator is Aggregator.MEAN else layer for layer in net.layers])
    for src, dst in zip(net.layers, twin.layers):
        if src.aggregator is Aggregator.MEAN:
            scale = 1.0 / src.n_in
            dst.w_base *= scale
            dst.w_spline *= scale
    return twin


def adherence_counts(trace: ForwardTrace):
    """(inside, total) value counts per hidden layer for one trace: hidden
    vector l counts inside where it lies in the closed range of the grid of
    layer l + 1, the layer that reads it."""
    hidden = [rec.inputs for rec in trace.layers[1:]]
    grids = [layer.grid for layer in trace.network.layers[1:]]
    inside = np.array([int(((v >= g.range_lo) & (v <= g.range_hi)).sum())
                       for v, g in zip(hidden, grids)])
    total = np.array([v.size for v in hidden])
    return inside, total
