"""Supervised classification training for KAN networks.

Reverse-mode gradients walk the layers of a ForwardTrace from the last to
the first, chaining each layer's norm, node aggregation and one contraction
of its extended basis with its folded coefficients (network.py maps those
gradients back onto the edge parameters). backward writes each layer's
gradient by field into a KANLayer of Network.views of one gradient vector,
so it never sees the vector's layout; Adam updates that whole vector in one
pass, one mini-batch per iteration, batches drawn by seeded shuffling with a
reshuffle at every epoch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregators import aggregate_batch_backward
from .network import (ConfigError, ForwardTrace, Network, adherence_counts,
                      block_rows, fold_coeffs_adjoint, forward, input_basis,
                      per_input_matmul)

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
HEAD_SOFTMAX = "softmax"          # widths [.., C], cross-entropy over C logits
HEAD_SCALAR_INDEX = "scalar-index"  # widths [.., 1], squared error on the label index


class TrainingDiverged(RuntimeError):
    """Loss or parameters became non-finite; the run is reported as failed."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def validate(self):
        # lr = 0 is legal: it must leave parameters bit-identical
        if self.iterations < 1 or self.batch_size < 1 or self.learning_rate < 0:
            raise ConfigError(f"invalid training config: {self}")


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
    Non-finite logits are the caller's to reject."""
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(label, dtype=np.int64)
    if z.ndim != 2:
        raise ValueError("logits must be a (batch, classes) array")
    if np.any(labels < 0) or np.any(labels >= z.shape[1]):
        raise ValueError(f"label out of range for {z.shape[1]} logits")
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
    head: str
    adherence: list      # in-range share per hidden layer, pooled over the run


def _head_mode(net: Network, n_classes: int) -> str:
    if net.n_out == n_classes:
        return HEAD_SOFTMAX
    if net.n_out == 1:
        return HEAD_SCALAR_INDEX
    raise ConfigError(
        f"network output width {net.n_out} matches neither the class count "
        f"{n_classes} nor the 1-logit scalar head")


def predict(net: Network, features, n_classes: int):
    """Class predictions; argmax for the softmax head, rounded and clipped
    logit for the 1-logit head."""
    logits = forward(net, features)
    if net.n_out == 1:
        return np.clip(np.rint(logits[:, 0]), 0, n_classes - 1).astype(np.int64)
    return logits.argmax(axis=1)


def evaluate(net: Network, features, labels, n_classes: int) -> float:
    """Fraction of samples whose prediction equals the label."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise ValueError("evaluation set is empty")
    return float((predict(net, features, n_classes) == labels).mean())


def train(net: Network, data, cfg: TrainConfig) -> TrainResult:
    """Train in place for cfg.iterations mini-batch Adam steps.

    Deterministic given (network init, cfg.seed, data). Every step also
    counts the hidden values inside the range of the grid that reads them,
    pooled into TrainResult.adherence. Raises TrainingDiverged as soon as
    the batch loss stops being finite.

    Layer 0's spline inputs are training rows on a fixed grid, so their
    basis does not change as the parameters do: it is built for a block of
    upcoming batches at once (the rest of the epoch's order in whole
    batches, at most block_rows(net) rows, the same FORWARD_BLOCK_POINTS
    layer-0 points that bound an untraced forward block, and no further
    than the last iteration), and each step's traced forward reads its slice
    of the block. A reshuffle starts a new block, and the old one is freed
    before the new one is built.

    Besides the dataset, a run holds one copy of the train split (features
    and labels, for the batches), the parameters, Adam's moments, one
    block and one step's trace. Evaluation frees the block and the trace,
    scores the train split, drops its copy and then scores val and test,
    each from its own copy of that split's rows.
    """
    cfg.validate()
    if data.n_features != net.n_in:
        raise ConfigError(
            f"dataset has {data.n_features} features, network expects {net.n_in}")
    head = _head_mode(net, data.n_classes)
    loss_fn = (softmax_cross_entropy if head == HEAD_SOFTMAX
               else squared_error_on_index)

    x_train, y_train = data.features[data.train_idx], data.labels[data.train_idx]
    n_train = len(y_train)
    rng = np.random.default_rng(cfg.seed)
    params = net.params
    state = adam_init(params)
    grads = np.empty_like(params)
    grad_views = net.views(grads)
    batches_per_block = max(1, block_rows(net) // cfg.batch_size)

    losses = []
    inside = total = 0      # become per-hidden-layer count arrays at step one
    order = rng.permutation(n_train)
    # the block holds layer 0's basis of order[block_start: block_end]
    cursor = block_start = block_end = 0
    # a diverging step overflows before the checks below turn its
    # non-finite logits or loss into TrainingDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations):
            if cursor >= n_train:
                order = rng.permutation(n_train)
                cursor = block_end = 0
            if cursor >= block_end:
                block_start = cursor
                block_end = min(n_train, cursor + cfg.batch_size * min(
                    batches_per_block, cfg.iterations - it))
                # the last trace holds a view of the old block: free both first,
                # so a run never holds two blocks
                block = trace = None
                block = input_basis(net, x_train[order[block_start: block_end]])
            batch_idx = order[cursor: cursor + cfg.batch_size]
            rows = slice(cursor - block_start, cursor - block_start + len(batch_idx))
            cursor += cfg.batch_size

            logits, trace = forward(net, x_train[batch_idx], trace=True,
                                    basis0=block[rows])
            if not np.all(np.isfinite(logits)):
                raise TrainingDiverged(f"non-finite logits at iteration {it}")
            per_sample, d_logits = loss_fn(logits, y_train[batch_idx])
            loss = float(per_sample.mean())
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at iteration {it}")
            losses.append(loss)

            i, n = adherence_counts(trace)
            inside = inside + i
            total = total + n

            backward(net, trace, d_logits, views=grad_views)
            adam_step(params, grads, state, cfg)
    # evaluation allocates its own blocks: free this one and the last trace
    del block, trace

    if not np.all(np.isfinite(params)):
        raise TrainingDiverged("non-finite parameters after update")

    train_acc = evaluate(net, x_train, y_train, data.n_classes)
    del x_train, y_train    # val and test each copy their own rows
    return TrainResult(
        loss_curve=losses,
        train_accuracy=train_acc,
        val_accuracy=evaluate(net, data.features[data.val_idx],
                              data.labels[data.val_idx], data.n_classes),
        test_accuracy=evaluate(net, data.features[data.test_idx],
                               data.labels[data.test_idx], data.n_classes),
        head=head,
        adherence=(inside / total).tolist(),
    )
