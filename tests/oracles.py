"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (recursion, itertools enumeration,
pure-python loops) and shares no code with the implementation under test.
"""

import itertools
import math

import numpy as np


def naive_basis(x, i, k, t):
    """Textbook recursive Cox-de Boor evaluation of one basis function."""
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    left = 0.0
    if t[i + k] != t[i]:
        left = (x - t[i]) / (t[i + k] - t[i]) * naive_basis(x, i, k - 1, t)
    right = 0.0
    if t[i + k + 1] != t[i + 1]:
        right = ((t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1])
                 * naive_basis(x, i + 1, k - 1, t))
    return left + right


def naive_basis_vector(x, grid):
    t = grid.knots.tolist()
    return np.array([naive_basis(x, i, grid.degree, t)
                     for i in range(grid.n_basis)])


def naive_silu(x):
    return x / (1.0 + math.exp(-x))


def naive_edge(x, coeffs, w_base, w_spline, grid):
    """One edge at one point: w_base * silu(x) + w_spline * sum_i c_i B_i(x)."""
    basis = naive_basis_vector(x, grid)
    return (w_base * naive_silu(x)
            + w_spline * sum(c * b for c, b in zip(coeffs, basis)))


def naive_aggregate(values, kind):
    """One node function, by name, on a list of floats."""
    v = [float(x) for x in values]
    n = len(v)
    if kind in ("sum", "mean", "var", "std"):
        total = 0.0
        for x in v:
            total += x
        if kind == "sum":
            return total
        mean = total / n
        if kind == "mean":
            return mean
        var = sum((x - mean) ** 2 for x in v) / n
        return var if kind == "var" else math.sqrt(var)
    if kind == "median":
        s = sorted(v)
        return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    if kind == "norm":
        return math.sqrt(sum(x * x for x in v))
    if kind in ("min", "max"):
        best = v[0]
        for x in v[1:]:
            if (x < best) if kind == "min" else (x > best):
                best = x
        return best
    if kind == "multiply":
        prod = 1.0
        for x in v:
            prod *= x
        return prod
    raise ValueError(kind)


def naive_aggregate_grad(values, kind, upstream):
    """Subgradient of naive_aggregate scaled by upstream, with the package's
    conventions at non-smooth points: min/max send everything to the first
    extremal index, the even-n median splits it halfway between the two
    middle elements (stable order among ties), std/norm give zero at their
    singular point."""
    v = [float(x) for x in values]
    n = len(v)
    grad = [0.0] * n
    if kind == "sum":
        return [upstream] * n
    if kind == "mean":
        return [upstream / n] * n
    if kind in ("var", "std"):
        mean = naive_aggregate(v, "mean")
        if kind == "var":
            return [2.0 * (x - mean) / n * upstream for x in v]
        std = naive_aggregate(v, "std")
        if std == 0.0:
            return grad
        return [(x - mean) / (n * std) * upstream for x in v]
    if kind == "norm":
        norm = naive_aggregate(v, "norm")
        if norm == 0.0:
            return grad
        return [x / norm * upstream for x in v]
    if kind in ("min", "max"):
        grad[v.index(naive_aggregate(v, kind))] = upstream
        return grad
    if kind == "median":
        order = sorted(range(n), key=lambda i: v[i])   # sorted() is stable
        if n % 2:
            grad[order[n // 2]] = upstream
        else:
            grad[order[n // 2 - 1]] = grad[order[n // 2]] = upstream / 2
        return grad
    if kind == "multiply":
        for i in range(n):
            prod = 1.0
            for j in range(n):
                if j != i:
                    prod *= v[j]
            grad[i] = prod * upstream
        return grad
    raise ValueError(kind)


def naive_encode_categorical(column, train_rows):
    """Categorical encoding by plain loops; returns (codes, mode, encoded).

    Codes number the categories in order of first appearance over
    `train_rows` (in the order given). The mode is the most frequent train
    category; of equally frequent ones it is the one that appeared first.
    Missing cells (None) take the mode, and categories never seen in train
    take the reserved code len(codes).
    """
    codes = {}
    counts = {}
    for i in train_rows:
        v = column[i]
        if v is None:
            continue
        if v not in codes:
            codes[v] = len(codes)
            counts[v] = 0
        counts[v] += 1
    mode = None
    for v in codes:
        if mode is None or counts[v] > counts[mode]:
            mode = v
    encoded = []
    for v in column:
        if v is None:
            v = mode
        encoded.append(codes[v] if v in codes else len(codes))
    return codes, mode, encoded


def naive_split(n, seed):
    """(train, val, test) row lists: a seeded permutation cut 60/20/20, with
    val and test rounded and the remainder in train."""
    perm = np.random.default_rng(seed).permutation(n).tolist()
    n_val = round(n * 0.2)
    n_train = n - n_val - round(n * 0.2)
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def naive_preprocess(cells, manifest, seed, scale_features=True):
    """The per-cell preprocessing recipe on plain lists (None for a missing
    cell); returns (splits, features, labels, n_classes, stats).

    The train mean is np.mean over the observed train values in shuffled
    order, so it has numpy's summation order; everything else is per-cell
    Python. stats maps each feature to (impute_value, categories,
    reserved_code, lo, hi). A feature with no observed train value raises
    ValueError.
    """
    splits = naive_split(len(cells[manifest.target_column().name]), seed)
    train = splits[0]
    target = cells[manifest.target_column().name]
    try:
        vocab = sorted(set(target), key=lambda v: (float(v), v))
    except ValueError:
        vocab = sorted(set(target))
    labels = [vocab.index(v) for v in target]

    columns, stats = [], {}
    for spec in manifest.feature_columns():
        col = cells[spec.name]
        if all(col[i] is None for i in train):
            raise ValueError(f"feature {spec.name!r} has no observed train value")
        if spec.type == "categorical":
            codes, impute, encoded = naive_encode_categorical(col, train)
            encoded = [float(c) for c in encoded]
            reserved = len(codes)
        else:
            codes = reserved = None
            impute = float(np.mean([col[i] for i in train if col[i] is not None]))
            encoded = [impute if v is None else v for v in col]
        lo = hi = None
        if scale_features:
            lo = min(encoded[i] for i in train)
            hi = max(encoded[i] for i in train)
            encoded = [(v - lo) / (hi - lo) * 2.0 - 1.0 if hi > lo else 0.0
                       for v in encoded]
        columns.append(encoded)
        stats[spec.name] = (impute, codes, reserved, lo, hi)
    features = [[col[i] for col in columns] for i in range(len(target))]
    return splits, features, labels, len(vocab), stats


def reference_adam(params, grad_fn, lr, beta1, beta2, eps, steps):
    """Plain-python Adam trajectory over a list of scalar parameters."""
    params = [float(p) for p in params]
    m = [0.0] * len(params)
    v = [0.0] * len(params)
    history = []
    for t in range(1, steps + 1):
        grads = grad_fn(params)
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            mhat = m[i] / (1 - beta1 ** t)
            vhat = v[i] / (1 - beta2 ** t)
            params[i] -= lr * mhat / (vhat ** 0.5 + eps)
        history.append(list(params))
    return history


def brute_force_wilcoxon(a, b):
    """Exact two-sided signed-rank p-value by looping over all sign patterns.

    Returns (w_plus, p). Zero differences are dropped; tied |d| get averaged
    ranks computed by explicit position grouping.
    """
    d = [x - y for x, y in zip(a, b) if x - y != 0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    ranks = sort_based_ranks([abs(x) for x in d], higher_is_better=False)
    w_obs = sum(r for r, x in zip(ranks, d) if x > 0)
    le = ge = 0
    total = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        le += w <= w_obs
        ge += w >= w_obs
        total += 1
    return w_obs, min(1.0, 2.0 * min(le / total, ge / total))


def sort_based_ranks(scores, higher_is_better=True):
    """Averaged-tie ranks via explicit sorting and position grouping."""
    keyed = sorted(range(len(scores)),
                   key=lambda i: -scores[i] if higher_is_better else scores[i])
    positions = {}
    for pos, i in enumerate(keyed, start=1):
        positions.setdefault(scores[i], []).append((pos, i))
    ranks = [0.0] * len(scores)
    for group in positions.values():
        avg = sum(pos for pos, _ in group) / len(group)
        for _, i in group:
            ranks[i] = avg
    return ranks


def central_difference(f, x, step=1e-5):
    """Central finite difference of a scalar function at scalar x."""
    return (f(x + step) - f(x - step)) / (2 * step)


def relative_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / scale
