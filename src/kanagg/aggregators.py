"""The nine multivariate node functions and their (sub)gradients.

A node reduces the vector of its incoming edge activations to one value.
Forward semantics, for values v of length n:

    sum       sum(v)
    mean      sum(v) / n
    var       population variance, sum((v - mean)^2) / n
    std       sqrt(var)
    median    middle element; midpoint of the two middle elements for even n
    norm      Euclidean norm sqrt(sum(v^2))
    min, max  extrema
    multiply  prod(v)

Backward semantics at non-smooth points are deterministic subgradients:
min/max route the whole upstream to the first extremal index, the even-n
median splits it halfway across the two middle elements, and std/norm emit
zero gradients at their singular point (constant / all-zero input) instead
of dividing by zero.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Aggregator(Enum):
    SUM = "sum"
    MEAN = "mean"
    STD = "std"
    VAR = "var"
    MEDIAN = "median"
    NORM = "norm"
    MIN = "min"
    MAX = "max"
    MULTIPLY = "multiply"


AGGREGATOR_NAMES = tuple(a.value for a in Aggregator)


def aggregate_batch(edge_values: np.ndarray, kind: Aggregator) -> np.ndarray:
    """Reduce the last axis of a (batch, nodes, fan_in) array."""
    e = edge_values
    if kind is Aggregator.SUM:
        return e.sum(axis=-1)
    if kind is Aggregator.MEAN:
        return e.mean(axis=-1)
    if kind is Aggregator.VAR:
        return e.var(axis=-1)
    if kind is Aggregator.STD:
        return np.sqrt(e.var(axis=-1))
    if kind is Aggregator.MEDIAN:
        return np.median(e, axis=-1)
    if kind is Aggregator.NORM:
        return np.sqrt((e * e).sum(axis=-1))
    if kind is Aggregator.MIN:
        return e.min(axis=-1)
    if kind is Aggregator.MAX:
        return e.max(axis=-1)
    if kind is Aggregator.MULTIPLY:
        return e.prod(axis=-1)
    raise ValueError(f"unknown aggregator {kind!r}")


def aggregate_batch_backward(edge_values: np.ndarray, kind: Aggregator,
                             upstream: np.ndarray) -> np.ndarray:
    """Backward of aggregate_batch: upstream has the reduced shape."""
    e = edge_values
    n = e.shape[-1]
    up = upstream[..., np.newaxis]
    if kind is Aggregator.SUM:
        return np.broadcast_to(up, e.shape).copy()
    if kind is Aggregator.MEAN:
        return np.broadcast_to(up / n, e.shape).copy()
    if kind is Aggregator.VAR:
        centered = e - e.mean(axis=-1, keepdims=True)
        return (2.0 / n) * centered * up
    if kind is Aggregator.STD:
        centered = e - e.mean(axis=-1, keepdims=True)
        std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = centered / (n * std) * up
        return np.where(std > 0.0, g, 0.0)
    if kind is Aggregator.NORM:
        norm = np.sqrt((e * e).sum(axis=-1, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = e / norm * up
        return np.where(norm > 0.0, g, 0.0)
    if kind is Aggregator.MIN:
        return _route_to_index(e.argmin(axis=-1), e.shape, upstream)
    if kind is Aggregator.MAX:
        return _route_to_index(e.argmax(axis=-1), e.shape, upstream)
    if kind is Aggregator.MEDIAN:
        order = np.argsort(e, axis=-1, kind="stable")
        if n % 2 == 1:
            return _route_to_index(order[..., (n - 1) // 2], e.shape, upstream)
        half = upstream / 2.0
        grad = _route_to_index(order[..., n // 2 - 1], e.shape, half)
        return _route_to_index(order[..., n // 2], e.shape, half, out=grad)
    if kind is Aggregator.MULTIPLY:
        # prefix/suffix products give prod over j != i without dividing by e_i
        ones = np.ones(e.shape[:-1] + (1,), dtype=e.dtype)
        prefix = np.concatenate([ones, np.cumprod(e, axis=-1)[..., :-1]], axis=-1)
        rev = np.cumprod(e[..., ::-1], axis=-1)[..., ::-1]
        suffix = np.concatenate([rev[..., 1:], ones], axis=-1)
        return prefix * suffix * up
    raise ValueError(f"unknown aggregator {kind!r}")


def _route_to_index(idx, shape, upstream, out=None):
    """Write upstream at index idx of each last-axis row of `out`, a new zero
    gradient of `shape` when None, and return it. Flat fancy indexing: at
    batch 32 it costs about half of np.put_along_axis."""
    grad = np.zeros(shape, dtype=np.float64) if out is None else out
    rows = grad.reshape(-1, shape[-1])
    rows[np.arange(rows.shape[0]), idx.reshape(-1)] = upstream.reshape(-1)
    return grad
