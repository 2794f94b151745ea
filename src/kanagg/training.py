"""Supervised classification training for KAN networks.

Reverse-mode gradients walk the layers of a ForwardTrace from the last to
the first, chaining each layer's norm, node aggregation and one contraction
of its extended basis with its folded coefficients (network.py maps those
gradients back onto the edge parameters). backward writes each layer's
gradient by field into a KANLayer of Network.views of one gradient vector,
so it never sees the vector's layout; Adam updates that whole vector in one
pass. train runs epochs of blocks of steps: an epoch is one seeded shuffle
of the train split, a block holds the features, labels and layer-0 basis of
its rows, and a step is one mini-batch slice of its block. Evaluation hands
forward the whole feature matrix and a split's row indices, so neither
training nor evaluation copies a split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .aggregators import aggregate_batch_backward
from .network import (ConfigError, ForwardTrace, Network, adherence_counts,
                      block_rows, fold_coeffs_adjoint, forward, input_basis,
                      per_input_matmul)

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Loss or parameters became non-finite; the run is reported as failed."""


def check_settings(config, least: dict) -> None:
    """Raise ConfigError unless each setting of config named in least is an
    integer of at least its least value (None: any integer), and
    config.learning_rate a finite number >= 0. Settings from a JSON config
    file arrive with whatever type it gave."""
    for name, lowest in least.items():
        value = getattr(config, name)
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if lowest is not None and value < lowest:
            raise ConfigError(f"{name} must be >= {lowest}")
    # lr = 0 is legal: it must leave parameters bit-identical
    lr = config.learning_rate
    if not isinstance(lr, Real) or isinstance(lr, bool) or not (
            math.isfinite(lr) and lr >= 0):
        raise ConfigError(f"learning_rate must be a finite number >= 0, got {lr!r}")


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def validate(self):
        check_settings(self, {"iterations": 1, "batch_size": 1, "seed": None})


@dataclass
class AdamState:
    m: np.ndarray   # first and second moments, laid out like the parameters
    v: np.ndarray
    t: int = 0


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> None:
    """Standard Adam update with bias correction on one parameter vector,
    updated in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def softmax_cross_entropy(logits, label):
    """Stabilized -log softmax(logits)[label] of (batch, C) logits and a
    label vector; returns per-sample (losses, d_logits), not averaged.
    Finite logits and labels in [0, C) are the caller's to check."""
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(label, dtype=np.int64)
    if z.ndim != 2:
        raise ValueError("logits must be a (batch, classes) array")
    shifted = z - z.max(axis=1, keepdims=True)
    d = np.exp(shifted)
    total = d.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    losses = np.log(total[:, 0]) - shifted[rows, labels]
    d /= total                   # the softmax
    d[rows, labels] -= 1.0
    return losses, d


def squared_error_on_index(logits, label):
    """Strict-replication loss for (batch, 1) logits: (logit - label)^2."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != 1:
        raise ValueError("scalar-index loss needs (batch, 1) logits")
    diff = z[:, 0] - np.asarray(label, dtype=np.float64)
    return diff * diff, (2.0 * diff)[:, np.newaxis]


def backward(net: Network, trace: ForwardTrace, d_logits: np.ndarray,
             views=None) -> np.ndarray | None:
    """Gradient of the batch-mean loss in every trainable parameter.

    d_logits holds per-sample loss gradients, one row per traced sample; the
    result is one vector laid out like net.params, each layer's gradients
    written by field into its layer of net.views of it, and returned. A
    caller that keeps one gradient vector grad passes views=net.views(grad),
    built once: backward then overwrites every element of grad through them
    and returns None.
    Raises on a trace that was not produced by this network.
    """
    if trace.network is not net:
        raise ValueError("trace was produced by a different network")
    d_logits = np.asarray(d_logits, dtype=np.float64)
    batch = trace.layers[0].inputs.shape[0]
    if d_logits.shape != (batch, net.n_out):
        raise ValueError(
            f"d_logits shape {d_logits.shape} does not match trace "
            f"({batch}, {net.n_out})")

    grad = None
    if views is None:
        grad = np.empty_like(net.params)
        views = net.views(grad)
    # scale once so every accumulated parameter gradient is the batch mean
    d_out = d_logits / batch
    for layer, rec, out in zip(reversed(net.layers), reversed(trace.layers),
                               reversed(views)):
        if layer.norm is not None:
            zhat = rec.ln_zhat
            (d_out * zhat).sum(axis=0, out=out.norm.gain)
            d_out.sum(axis=0, out=out.norm.bias)
            g = d_out * layer.norm.gain
            d_node = rec.ln_inv_std * (g - g.mean(axis=-1, keepdims=True)
                                       - zhat * (g * zhat).mean(axis=-1, keepdims=True))
        else:
            d_node = d_out
        d_edge = aggregate_batch_backward(rec.edge_outputs, layer.aggregator, d_node)
        # gradient of the folded coefficients: sum_b d_edge[b, q, p] *
        # basis[b, p, i], as (q, i, p) then (q, p, i)
        d_folded = per_input_matmul(d_edge.transpose(1, 2, 0),
                                    rec.basis.transpose(2, 1, 0)).transpose(0, 2, 1)
        fold_coeffs_adjoint(layer, d_folded, out)
        if rec.basis_deriv is not None:    # None on layer 0: no input gradient
            d_out = (d_edge * per_input_matmul(rec.basis_deriv, rec.coeffs)).sum(axis=1)
    return grad


@dataclass
class TrainResult:
    loss_curve: list
    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    adherence: list      # in-range share per hidden layer, pooled over the run


def _head(net: Network, n_classes: int):
    """The network's head as (loss, prediction rule from logits): over widths
    [.., C], cross-entropy and argmax; over widths [.., 1], squared error on
    the label index and the rounded logit clipped to [0, C)."""
    if net.n_out == n_classes:
        return softmax_cross_entropy, lambda logits: logits.argmax(axis=1)
    if net.n_out == 1:
        return squared_error_on_index, lambda logits: np.clip(
            np.rint(logits[:, 0]), 0, n_classes - 1).astype(np.int64)
    raise ConfigError(
        f"network output width {net.n_out} matches neither the class count "
        f"{n_classes} nor the 1-logit scalar head")


def evaluate(net: Network, features, labels, n_classes: int, rows=None) -> float:
    """Fraction of samples whose head prediction equals the label; given
    rows, an index array, of the samples features[rows], which forward reads
    one block of rows at a time, so no copy of them is made."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0 or rows is not None and len(rows) == 0:
        raise ValueError("evaluation set is empty")
    if labels.shape != features.shape[:1]:
        raise ValueError(f"{len(features)} samples but labels of shape {labels.shape}")
    _, predict = _head(net, n_classes)
    predictions = predict(forward(net, features, rows=rows))
    # the split's labels are taken after the pass, so they add nothing to its peak
    return float((predictions == (labels if rows is None else labels[rows])).mean())


def train(net: Network, data, cfg: TrainConfig) -> TrainResult:
    """Train in place for cfg.iterations mini-batch Adam steps.

    Deterministic given (network init, cfg.seed, data). A block is at most
    block_rows(net) rows in whole batches; layer 0's grid is fixed, so its
    basis of a block's rows holds for every step of the block. Every step
    also counts the hidden values inside the range of the grid that reads
    them, pooled into TrainResult.adherence. Raises ConfigError before the
    first step for a label outside [0, data.n_classes), which the loss does
    not check, and TrainingDiverged as soon as the batch loss stops being
    finite. Besides the dataset, training holds one block and one step's
    trace, and evaluation scores each split by its row indices, one block of
    rows at a time: a run holds no copy of a split.
    """
    cfg.validate()
    if data.n_features != net.n_in:
        raise ConfigError(
            f"dataset has {data.n_features} features, network expects {net.n_in}")
    loss_fn, _ = _head(net, data.n_classes)
    outside = (data.labels < 0) | (data.labels >= data.n_classes)
    if outside.any():
        raise ConfigError(f"label {data.labels[outside][0]} lies outside "
                          f"[0, {data.n_classes})")

    n_train = len(data.train_idx)
    rng = np.random.default_rng(cfg.seed)
    params = net.params
    state = adam_init(params)
    grads = np.empty_like(params)
    grad_views = net.views(grads)
    block_size = cfg.batch_size * max(1, block_rows(net) // cfg.batch_size)

    losses = []
    inside = total = 0      # become per-hidden-layer count arrays at step one
    # a diverging step overflows before the checks below turn its
    # non-finite logits or loss into TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        while len(losses) < cfg.iterations:
            order = data.train_idx[rng.permutation(n_train)]
            # the last epoch ends at the last step's batch
            order = order[:cfg.batch_size * (cfg.iterations - len(losses))]
            for start in range(0, len(order), block_size):
                rows = order[start: start + block_size]
                # the last trace holds views of the old block: free both first,
                # so a run never holds two blocks
                x = y = block = trace = None
                x, y = data.features[rows], data.labels[rows]
                block = input_basis(net, x)
                for b in range(0, len(rows), cfg.batch_size):
                    batch = slice(b, b + cfg.batch_size)
                    logits, trace = forward(net, x[batch], trace=True,
                                            basis0=block[batch])
                    if not np.all(np.isfinite(logits)):
                        raise TrainingDiverged(
                            f"non-finite logits at iteration {len(losses)}")
                    per_sample, d_logits = loss_fn(logits, y[batch])
                    loss = float(per_sample.mean())
                    if not np.isfinite(loss):
                        raise TrainingDiverged(
                            f"non-finite loss at iteration {len(losses)}")
                    losses.append(loss)

                    i, n = adherence_counts(trace)
                    inside = inside + i
                    total = total + n

                    backward(net, trace, d_logits, views=grad_views)
                    adam_step(params, grads, state, cfg)
    # evaluation allocates its own blocks: free this one and the last trace
    del x, y, block, trace

    if not np.all(np.isfinite(params)):
        raise TrainingDiverged("non-finite parameters after update")

    train_acc, val_acc, test_acc = (
        evaluate(net, data.features, data.labels, data.n_classes, idx)
        for idx in (data.train_idx, data.val_idx, data.test_idx))
    return TrainResult(
        loss_curve=losses,
        train_accuracy=train_acc,
        val_accuracy=val_acc,
        test_accuracy=test_acc,
        adherence=(inside / total).tolist(),
    )
