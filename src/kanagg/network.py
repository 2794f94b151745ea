"""KAN assembly: edge-activation layers, node aggregation, optional layer norm.

A network with widths [n_in, h_1, ..., n_out] has one layer per width
transition. Layer l holds an (n_out x n_in) matrix of edge activations that
all share one knot grid, plus that layer's aggregator. When layer_norm is
enabled, hidden node vectors (never the raw inputs or the final logits) are
normalized before feeding the next layer's splines.

An edge w_base * silu(x) + w_spline * sum_i c_i B_i(x) is the dot product of
[B_1(x), ..., B_n(x), silu(x)] with the folded coefficients [w_spline * c,
w_base], so a layer is one (batch x n_basis+1) by (n_basis+1 x n_out) matrix
product per input, on the compact-support basis of splines.py.
Untraced forward passes (evaluation and prediction) run in fixed blocks of
rows; traced passes keep every intermediate that backward reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .aggregators import Aggregator, aggregate_batch
from .splines import KnotGrid, basis_matrix, make_grid, sigmoid

LAYER_NORM_EPS = 1e-5
FORWARD_BLOCK_ROWS = 1024   # rows per block of an untraced forward pass
CHECKPOINT_FORMAT = "kanagg-checkpoint/1"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkConfig:
    widths: tuple
    aggregators: tuple
    layer_norm: bool = False
    grid_size: int = 3
    degree: int = 3
    range_lo: float = -1.0
    range_hi: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        aggs = tuple(a if isinstance(a, Aggregator) else Aggregator(a)
                     for a in self.aggregators)
        object.__setattr__(self, "aggregators", aggs)

    def validate(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be >= 2 entries, all >= 1: {self.widths}")
        if len(self.aggregators) != len(self.widths) - 1:
            raise ConfigError(
                f"need {len(self.widths) - 1} aggregators for widths {self.widths}, "
                f"got {len(self.aggregators)}")


@dataclass
class KANLayer:
    """All edges of one width transition, stored stacked for vectorized math."""

    coeffs: np.ndarray    # (n_out, n_in, n_basis)
    w_base: np.ndarray    # (n_out, n_in)
    w_spline: np.ndarray  # (n_out, n_in)
    grid: KnotGrid
    aggregator: Aggregator

    @property
    def n_in(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_out(self) -> int:
        return self.coeffs.shape[0]


@dataclass
class LayerNormParams:
    gain: np.ndarray
    bias: np.ndarray
    eps: float = LAYER_NORM_EPS


@dataclass
class Network:
    config: NetworkConfig
    layers: list
    layer_norms: list  # one entry per hidden transition; None when disabled

    @property
    def n_in(self) -> int:
        return self.config.widths[0]

    @property
    def n_out(self) -> int:
        return self.config.widths[-1]

    def parameters(self) -> list[np.ndarray]:
        """All trainable arrays in deterministic order."""
        params = []
        for layer in self.layers:
            params += [layer.coeffs, layer.w_base, layer.w_spline]
        for ln in self.layer_norms:
            if ln is not None:
                params += [ln.gain, ln.bias]
        return params


@dataclass
class ForwardTrace:
    """Per-layer intermediates of one traced forward pass: what backward and
    adherence_counts read, one entry per layer l in each list.

    inputs[l]        (B, n_in)  spline inputs: the network input, then hidden
                     values after any norm
    basis[l], basis_deriv[l]  (B, n_in, n_basis+1)  B-spline values then silu,
                     and their x-derivatives (None for l = 0: nothing reads them)
    coeffs[l]        (n_out, n_in, n_basis+1)  folded coefficients
    edge_outputs[l]  (B, n_out, n_in)  edge outputs
    ln_zhat[l], ln_inv_std[l]  layer-norm intermediates; None without a norm
    The logits are forward's return value.
    """

    network: Network
    inputs: list = field(default_factory=list)
    basis: list = field(default_factory=list)
    basis_deriv: list = field(default_factory=list)
    coeffs: list = field(default_factory=list)
    edge_outputs: list = field(default_factory=list)
    ln_zhat: list = field(default_factory=list)
    ln_inv_std: list = field(default_factory=list)


def build_network(config: NetworkConfig) -> Network:
    """Deterministically initialize a network from its config seed.

    coeffs ~ Normal(0, 0.1), w_base = w_spline = 1, layer-norm gain/bias = 1/0.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    grid = make_grid(config.range_lo, config.range_hi, config.grid_size, config.degree)
    layers = []
    for n_in, n_out, agg in zip(config.widths[:-1], config.widths[1:],
                                config.aggregators):
        layers.append(KANLayer(
            coeffs=rng.normal(0.0, 0.1, size=(n_out, n_in, grid.n_basis)),
            w_base=np.ones((n_out, n_in)),
            w_spline=np.ones((n_out, n_in)),
            grid=grid,
            aggregator=agg,
        ))
    layer_norms = []
    for width in config.widths[1:-1]:
        if config.layer_norm:
            layer_norms.append(LayerNormParams(np.ones(width), np.zeros(width)))
        else:
            layer_norms.append(None)
    return Network(config=config, layers=layers, layer_norms=layer_norms)


def _layer_norm(v: np.ndarray, ln: LayerNormParams):
    """(v - mean) / sqrt(popvar + eps) * gain + bias over the last axis.

    Returns (out, zhat, inv_std); the backward pass reuses zhat and inv_std.
    """
    mean = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + ln.eps)
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


def fold_coeffs_adjoint(layer: KANLayer, g: np.ndarray):
    """The gradient g of fold_coeffs(layer) as (d_coeffs, d_w_base, d_w_spline)."""
    g_spline = g[:, :, :-1]
    return (g_spline * layer.w_spline[:, :, np.newaxis], g[:, :, -1],
            (g_spline * layer.coeffs).sum(axis=2))


def _layer_forward(layer: KANLayer, x: np.ndarray, derivs: bool):
    """(basis, basis derivatives or None, folded coefficients, edge outputs)
    of a batch: the edge outputs are one contraction of the first and third."""
    vals, dvals = basis_matrix(x, layer.grid, derivs)   # (B, n_in, n_basis)
    sig = sigmoid(x)
    basis = np.concatenate((vals, (x * sig)[:, :, np.newaxis]), axis=2)
    if derivs:   # silu'(x) = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
        silu_grad = sig * (1.0 + x * (1.0 - sig))
        dvals = np.concatenate((dvals, silu_grad[:, :, np.newaxis]), axis=2)
    coeffs = fold_coeffs(layer)
    return basis, dvals, coeffs, per_input_matmul(basis, coeffs)


def _forward_rows(net: Network, x: np.ndarray, t: ForwardTrace | None):
    """All layers on a block of rows; fills the trace when one is given."""
    n_layers = len(net.layers)
    for l, layer in enumerate(net.layers):
        basis, derivs, coeffs, edge_out = _layer_forward(
            layer, x, derivs=t is not None and l > 0)
        node = aggregate_batch(edge_out, layer.aggregator)
        ln = net.layer_norms[l] if l < n_layers - 1 else None
        out, zhat, inv_std = (node, None, None) if ln is None else _layer_norm(node, ln)
        if t is not None:
            t.inputs.append(x)
            t.basis.append(basis)
            t.basis_deriv.append(derivs)
            t.coeffs.append(coeffs)
            t.edge_outputs.append(edge_out)
            t.ln_zhat.append(zhat)
            t.ln_inv_std.append(inv_std)
        x = out
        # free this layer's arrays before the next layer allocates its own
        del basis, derivs, edge_out, node
    return x


def forward(net: Network, x, trace: bool = False):
    """Run the network on a (batch, n_in) array.

    Returns (batch, n_out) logits, or (logits, ForwardTrace) when trace=True.
    Every step is row-wise, so the untraced pass runs FORWARD_BLOCK_ROWS rows
    at a time, which bounds its memory by the block, not the batch; the
    traced pass keeps the whole batch's intermediates for backward.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.n_in:
        raise ValueError(f"input shape {x.shape} does not match n_in={net.n_in}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")

    if trace:
        t = ForwardTrace(network=net)
        return _forward_rows(net, x, t), t
    logits = np.empty((x.shape[0], net.n_out))
    for start in range(0, x.shape[0], FORWARD_BLOCK_ROWS):
        rows = slice(start, start + FORWARD_BLOCK_ROWS)
        logits[rows] = _forward_rows(net, x[rows], None)
    return logits


def mean_to_scaled_sum(net: Network) -> Network:
    """Sum-aggregated twin with every edge function divided by its layer fan-in.

    Scales w_base and w_spline by 1/n_in per layer, which divides each whole
    edge activation by the fan-in; the mean-aggregated original and this
    sum-aggregated copy then compute identical outputs.
    """
    cfg = net.config
    new_cfg = NetworkConfig(
        widths=cfg.widths,
        aggregators=tuple(Aggregator.SUM if a is Aggregator.MEAN else a
                          for a in cfg.aggregators),
        layer_norm=cfg.layer_norm, grid_size=cfg.grid_size, degree=cfg.degree,
        range_lo=cfg.range_lo, range_hi=cfg.range_hi, seed=cfg.seed)
    twin = build_network(new_cfg)
    for src, dst in zip(net.layers, twin.layers):
        scale = 1.0 / src.n_in if src.aggregator is Aggregator.MEAN else 1.0
        dst.coeffs[...] = src.coeffs
        dst.w_base[...] = src.w_base * scale
        dst.w_spline[...] = src.w_spline * scale
    for src, dst in zip(net.layer_norms, twin.layer_norms):
        if src is not None:
            dst.gain[...] = src.gain
            dst.bias[...] = src.bias
    return twin


def adherence_counts(trace: ForwardTrace, lo: float, hi: float):
    """(inside, total) value counts per hidden layer for one trace."""
    hidden = trace.inputs[1:]
    inside = np.array([int(((v >= lo) & (v <= hi)).sum()) for v in hidden])
    total = np.array([v.size for v in hidden])
    return inside, total


def save_checkpoint(net: Network, path):
    """Write a self-describing JSON checkpoint (lossless float round-trip)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": {
            "widths": list(net.config.widths),
            "aggregators": [a.value for a in net.config.aggregators],
            "layer_norm": net.config.layer_norm,
            "grid_size": net.config.grid_size,
            "degree": net.config.degree,
            "range_lo": net.config.range_lo,
            "range_hi": net.config.range_hi,
            "seed": net.config.seed,
        },
        "layers": [{
            "coeffs": layer.coeffs.tolist(),
            "w_base": layer.w_base.tolist(),
            "w_spline": layer.w_spline.tolist(),
        } for layer in net.layers],
        "layer_norms": [None if ln is None else {
            "gain": ln.gain.tolist(), "bias": ln.bias.tolist(), "eps": ln.eps,
        } for ln in net.layer_norms],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path) -> Network:
    """Read a save_checkpoint file back; raises ValueError when its layer or
    layer-norm entries, array shapes or eps do not fit its config."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a kanagg checkpoint: {doc.get('format')!r}")
    net = build_network(NetworkConfig(**doc["config"]))
    if (len(doc["layers"]) != len(net.layers)
            or len(doc["layer_norms"]) != len(net.layer_norms)):
        raise ValueError(
            f"checkpoint has {len(doc['layers'])} layers and "
            f"{len(doc['layer_norms'])} layer norms, its config needs "
            f"{len(net.layers)} and {len(net.layer_norms)}")
    for layer, saved in zip(net.layers, doc["layers"]):
        for name in ("coeffs", "w_base", "w_spline"):
            _load_array(getattr(layer, name), saved[name], name)
    for ln, saved in zip(net.layer_norms, doc["layer_norms"]):
        if (ln is None) != (saved is None):
            raise ValueError("checkpoint layer norms do not match config.layer_norm")
        if saved is not None:
            _load_array(ln.gain, saved["gain"], "gain")
            _load_array(ln.bias, saved["bias"], "bias")
            eps = saved["eps"]
            if not (isinstance(eps, (int, float)) and 0 < eps < math.inf):
                raise ValueError(f"layer-norm eps must be finite and > 0, got {eps!r}")
            ln.eps = eps
    return net


def _load_array(dst: np.ndarray, saved, name: str):
    src = np.asarray(saved, dtype=np.float64)
    if src.shape != dst.shape:
        raise ValueError(f"checkpoint {name} has shape {src.shape}, "
                         f"its config needs {dst.shape}")
    dst[...] = src
