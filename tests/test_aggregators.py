import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanagg import Aggregator, NetworkConfig, build_network, forward
from kanagg.aggregators import AGGREGATOR_NAMES, aggregate_batch, \
    aggregate_batch_backward

from oracles import naive_aggregate, naive_aggregate_grad, relative_error

ALL_KINDS = list(Aggregator)
DIFFERENTIABLE = [Aggregator.SUM, Aggregator.MEAN, Aggregator.STD,
                  Aggregator.VAR, Aggregator.NORM, Aggregator.MULTIPLY]

finite_vectors = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1,
    max_size=12)


def node_value(values, kind):
    """One node's value: the batched reduction of a (1, 1, n) array."""
    v = np.asarray(values, dtype=np.float64)
    return float(aggregate_batch(v[np.newaxis, np.newaxis, :], kind)[0, 0])


def node_grad(values, kind, upstream):
    v = np.asarray(values, dtype=np.float64)
    return aggregate_batch_backward(v[np.newaxis, np.newaxis, :], kind,
                                    np.array([[upstream]]))[0, 0]


class TestForward:
    def test_named_examples(self):
        assert node_value([1, 2, 3], Aggregator.SUM) == 6
        assert node_value([2, 4], Aggregator.MEAN) == 3
        assert node_value([1, 3], Aggregator.STD) == 1
        assert node_value([3, 4], Aggregator.NORM) == 5
        assert node_value([2, 3, 4], Aggregator.MULTIPLY) == 24
        assert node_value([1, 2, 3, 4], Aggregator.MEDIAN) == 2.5

    def test_extrema_and_odd_median(self):
        assert node_value([4, -1, 2], Aggregator.MIN) == -1
        assert node_value([4, -1, 2], Aggregator.MAX) == 4
        assert node_value([5, 1, 3], Aggregator.MEDIAN) == 3
        assert node_value([1, 3], Aggregator.VAR) == 1

    def test_single_element(self):
        for kind in ALL_KINDS:
            expected = {Aggregator.STD: 0.0, Aggregator.VAR: 0.0,
                        Aggregator.NORM: 2.0}.get(kind, 2.0)
            assert node_value([2.0], kind) == expected

    def test_exactly_nine_kinds(self):
        assert len(ALL_KINDS) == 9
        assert set(AGGREGATOR_NAMES) == {"sum", "mean", "std", "var", "median",
                                         "norm", "min", "max", "multiply"}

    @pytest.mark.parametrize("bad", [[], np.array([]), [1.0, float("nan")]])
    def test_invalid_inputs(self, bad):
        # no empty or non-finite vector reaches a node: build_network rejects
        # a zero fan-in and forward rejects non-finite input
        bad = np.asarray(bad, dtype=np.float64)
        with pytest.raises(ValueError):
            net = build_network(NetworkConfig((bad.size, 1), ("sum",)))
            forward(net, bad)

    @given(finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_mean_var_norm_identities(self, vals):
        v = np.asarray(vals)
        assert node_value(v, Aggregator.MEAN) == pytest.approx(
            node_value(v, Aggregator.SUM) / len(v), abs=1e-12)
        assert node_value(v, Aggregator.VAR) == pytest.approx(
            node_value(v, Aggregator.STD) ** 2, abs=1e-12)
        assert node_value(v, Aggregator.NORM) ** 2 == pytest.approx(
            float((v * v).sum()), abs=1e-10)

    @given(finite_vectors, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_and_scale_laws(self, vals, c):
        v = np.asarray(vals)
        assert node_value(v + c, Aggregator.MEAN) == pytest.approx(
            node_value(v, Aggregator.MEAN) + c, abs=1e-9)
        assert node_value(v + c, Aggregator.STD) == pytest.approx(
            node_value(v, Aggregator.STD), abs=1e-9)
        assert node_value(c * v, Aggregator.SUM) == pytest.approx(
            c * node_value(v, Aggregator.SUM), abs=1e-9)


class TestBackward:
    def test_named_examples(self):
        np.testing.assert_allclose(
            node_grad([5, 7], Aggregator.MEAN, 2.0), [1.0, 1.0])
        np.testing.assert_allclose(
            node_grad([1, 3, 2], Aggregator.MAX, 1.0), [0, 1, 0])
        np.testing.assert_allclose(
            node_grad([1, 2, 3], Aggregator.SUM, 0.5), [0.5, 0.5, 0.5])

    def test_tie_routing_first_extremum(self):
        np.testing.assert_allclose(
            node_grad([2, 1, 1, 3], Aggregator.MIN, 1.0), [0, 1, 0, 0])
        np.testing.assert_allclose(
            node_grad([3, 1, 3], Aggregator.MAX, 1.0), [1, 0, 0])

    def test_median_routing(self):
        np.testing.assert_allclose(
            node_grad([5, 1, 3], Aggregator.MEDIAN, 2.0), [0, 0, 2.0])
        np.testing.assert_allclose(
            node_grad([4, 1, 3, 2], Aggregator.MEDIAN, 2.0),
            [0, 0, 1.0, 1.0])

    def test_degenerate_inputs_zero_not_nan(self):
        for kind in (Aggregator.STD, Aggregator.NORM):
            vec = [0.0, 0.0, 0.0] if kind is Aggregator.NORM else [2.0, 2.0, 2.0]
            g = node_grad(vec, kind, 3.0)
            assert np.all(np.isfinite(g))
            np.testing.assert_allclose(g, 0.0)

    def test_multiply_with_zeros(self):
        g = node_grad([2.0, 0.0, 3.0], Aggregator.MULTIPLY, 1.0)
        np.testing.assert_allclose(g, [0.0, 6.0, 0.0])

    @pytest.mark.parametrize("kind", DIFFERENTIABLE)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(sum(ord(c) for c in kind.value))
        step = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 8))
            # sample away from ties and zeros
            v = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            while len(np.unique(v)) < n:
                v = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            up = 1.7
            grad = node_grad(v, kind, up)
            for i in range(n):
                bumped = v.copy()
                bumped[i] += step
                hi = node_value(bumped, kind)
                bumped[i] -= 2 * step
                lo = node_value(bumped, kind)
                fd = up * (hi - lo) / (2 * step)
                assert relative_error(grad[i], fd, floor=1e-5) < 1e-4

    @pytest.mark.parametrize("kind", [Aggregator.MIN, Aggregator.MAX,
                                      Aggregator.MEDIAN])
    def test_directional_derivative_away_from_ties(self, kind):
        rng = np.random.default_rng(11)
        step = 1e-6
        for _ in range(30):
            n = int(rng.integers(2, 7))
            v = np.sort(rng.uniform(-3, 3, n))
            while np.min(np.diff(v)) < 0.1:
                v = np.sort(rng.uniform(-3, 3, n))
            v = v[rng.permutation(n)]
            u = rng.normal(size=n)
            grad = node_grad(v, kind, 1.0)
            fd = (node_value(v + step * u, kind) - node_value(v - step * u, kind)) \
                / (2 * step)
            assert relative_error(float(grad @ u), fd, floor=1e-5) < 1e-4


class TestBatchConsistency:
    def test_batch_equals_scalar_loop(self):
        # every (sample, node) vector of a batch against the pure-python
        # oracle; half the batches draw from five half-integers, so they hold
        # ties, zeros and constant vectors (the non-smooth points), exactly
        rng = np.random.default_rng(12)
        for case in range(40):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                     int(rng.integers(1, 7)))
            if case % 2:
                e = rng.normal(size=shape)
            else:
                e = rng.integers(-2, 3, size=shape) * 0.5
            up = rng.normal(size=shape[:2])
            for kind in ALL_KINDS:
                fwd = aggregate_batch(e, kind)
                back = aggregate_batch_backward(e, kind, up)
                assert fwd.shape == shape[:2] and back.shape == shape
                for b, q in np.ndindex(*shape[:2]):
                    vals = e[b, q].tolist()
                    assert fwd[b, q] == pytest.approx(
                        naive_aggregate(vals, kind.value), abs=1e-12)
                    np.testing.assert_allclose(
                        back[b, q],
                        naive_aggregate_grad(vals, kind.value, up[b, q]),
                        rtol=0, atol=1e-12)
