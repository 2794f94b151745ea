import numpy as np
import pytest

from kanagg import (Aggregator, ConfigError, build_network, forward,
                    mean_to_scaled_sum)
from kanagg.aggregators import AGGREGATOR_NAMES
from kanagg.network import (FORWARD_BLOCK_POINTS, LayerNormParams, _layer_norm,
                            adherence_counts, block_rows, input_basis)
from kanagg.splines import make_grid
from kanagg.training import backward, softmax_cross_entropy

from oracles import naive_edge, naive_network


def small_net(aggs=("mean", "mean"), widths=(4, 10, 1), seed=0, **kw):
    return build_network(widths=widths, aggregators=aggs, seed=seed, **kw)


def layer_arrays(layer):
    """A layer's trainable arrays by name: coeffs, w_base, w_spline, then its
    norm's gain and bias when it has one."""
    arrays = {"coeffs": layer.coeffs, "w_base": layer.w_base,
              "w_spline": layer.w_spline}
    if layer.norm is not None:
        arrays.update(gain=layer.norm.gain, bias=layer.norm.bias)
    return arrays


@pytest.mark.parametrize("layer_norm", [False, True])
@pytest.mark.parametrize("widths", [(3, 4, 2), (3, 5, 4, 2)])
class TestLayerObjects:
    """Each layer is one KANLayer whose arrays, its norm's included, are
    views of the flat vector that Network.views splits."""

    def test_views_cover_the_vector_once(self, widths, layer_norm):
        net = small_net(aggs=("sum",) * (len(widths) - 1), widths=widths,
                        layer_norm=layer_norm)
        vec = np.zeros_like(net.params)
        layers = net.views(vec)
        assert len(layers) == len(net.layers) == len(widths) - 1
        for l, (layer, own) in enumerate(zip(layers, net.layers)):
            hidden = l < len(layers) - 1
            assert (layer.norm is not None) == (own.norm is not None) == (
                layer_norm and hidden)
            assert (layer.grid, layer.aggregator) == (own.grid, own.aggregator)
            own_arrays = layer_arrays(own)
            for name, a in layer_arrays(layer).items():
                assert a.base is vec and own_arrays[name].base is net.params
                assert a.shape == own_arrays[name].shape
                a += 1.0          # a second view of an element would make it 2
        np.testing.assert_array_equal(vec, 1.0)

    def test_gradient_layers_mirror_parameter_layers(self, widths, layer_norm):
        # each named gradient array holds the loss's derivative in the
        # parameter array of the same layer and name
        rng = np.random.default_rng(len(widths) + 2 * layer_norm)
        net = small_net(aggs=("sum",) * (len(widths) - 1), widths=widths,
                        layer_norm=layer_norm, seed=5)
        net.params[...] += rng.normal(0.0, 0.2, net.params.size)
        x = rng.uniform(-1.2, 1.2, (6, widths[0]))
        labels = rng.integers(0, widths[-1], 6)

        def loss():
            return float(softmax_cross_entropy(forward(net, x), labels)[0].mean())

        logits, trace = forward(net, x, trace=True)
        grads = net.views(backward(net, trace, softmax_cross_entropy(logits, labels)[1]))
        step = 1e-5
        for grad, layer in zip(grads, net.layers):
            own_arrays = layer_arrays(layer)
            assert layer_arrays(grad).keys() == own_arrays.keys()
            for name, g in layer_arrays(grad).items():
                param = own_arrays[name]
                assert g.shape == param.shape
                index = tuple(s - 1 for s in param.shape)    # the last entry
                orig = param[index]
                param[index] = orig + step
                hi = loss()
                param[index] = orig - step
                lo = loss()
                param[index] = orig
                assert g[index] == pytest.approx((hi - lo) / (2 * step),
                                                 rel=1e-4, abs=1e-8), name


class TestBuild:
    def test_edge_counts(self):
        net = small_net(widths=(4, 10, 1))
        assert net.layers[0].coeffs.shape[:2] == (10, 4)
        assert net.layers[1].coeffs.shape[:2] == (1, 10)

    def test_parameter_count_matches_shape_arithmetic(self):
        net = build_network((34, 10, 6), ("sum", "sum"),
                            layer_norm=True, grid_size=3, degree=3)
        n_edges = 34 * 10 + 10 * 6
        expected = n_edges * (6 + 2) + 2 * 10  # coeffs+weights, then gain+bias
        assert net.params.shape == (expected,)
        assert sum(a.size for layer in net.views(net.params)
                   for a in layer_arrays(layer).values()) == expected

    def test_layer_object_is_the_one_holder_of_its_grid(self):
        # a grid set after build_network is the grid of every view of that
        # layer and of the scaled-sum twin: no second copy holds the old one
        net = small_net(aggs=("mean", "mean"), widths=(3, 4, 2), seed=40)
        net.layers[1].grid = grid = make_grid(-2.0, 2.0)
        assert net.views(np.zeros_like(net.params))[1].grid is grid
        assert mean_to_scaled_sum(net).layers[1].grid is grid
        assert not hasattr(net, "config") and not hasattr(net, "layout")

    def test_arrays_are_views_of_params(self):
        net = small_net(aggs=("sum", "sum"), widths=(3, 4, 2), layer_norm=True)
        rng = np.random.default_rng(2)
        # spread parameters and inputs so every basis function sees points
        net.params[...] = rng.normal(0.0, 1.0, net.params.size)
        net.layers[0].norm.gain[...] = 2.0
        net.layers[0].norm.bias[...] = 0.0
        x = rng.uniform(-3, 3, (200, 3))
        before = forward(net, x)
        for i in range(net.params.size):
            saved = net.params[i]
            net.params[i] += 0.5
            assert np.any(forward(net, x) != before), f"params[{i}] is not read"
            net.params[i] = saved
        np.testing.assert_array_equal(forward(net, x), before)

    def test_initial_values_match_per_array_draw(self):
        net = small_net(aggs=("sum", "sum"), widths=(3, 4, 2), layer_norm=True,
                        seed=9)
        rng = np.random.default_rng(9)
        for layer in net.layers:
            n_out, n_in, n_basis = layer.coeffs.shape
            np.testing.assert_array_equal(
                layer.coeffs, rng.normal(0.0, 0.1, size=(n_out, n_in, n_basis)))
            np.testing.assert_array_equal(layer.w_base, np.ones((n_out, n_in)))
            np.testing.assert_array_equal(layer.w_spline, np.ones((n_out, n_in)))
        ln = net.layers[0].norm
        np.testing.assert_array_equal(ln.gain, np.ones(4))
        np.testing.assert_array_equal(ln.bias, np.zeros(4))

    def test_same_seed_same_network(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (8, 4))
        a = forward(small_net(seed=42), x)
        b = forward(small_net(seed=42), x)
        np.testing.assert_array_equal(a, b)
        c = forward(small_net(seed=43), x)
        assert np.any(a != c)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            build_network((4,), ("sum",))
        with pytest.raises(ConfigError):
            build_network((4, 0, 2), ("sum", "sum"))
        with pytest.raises(ConfigError):
            build_network((4, 10, 2), ("sum",))
        with pytest.raises(ValueError):
            build_network((4, 10, 2), ("sum", "nope"))


class TestForward:
    def test_zero_parameters_give_zero_output(self):
        for agg in AGGREGATOR_NAMES:
            net = small_net(aggs=(agg, agg), widths=(3, 5, 2))
            for layer in net.layers:
                layer.coeffs[...] = 0.0
                layer.w_base[...] = 0.0
            out = forward(net, np.array([[0.3, -0.8, 0.5]]))
            np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_single_edge_network_matches_edge_oracle(self):
        net = build_network((1, 1), ("sum",), seed=3)
        layer = net.layers[0]
        x = 0.37
        out = forward(net, np.array([[x]]))
        assert out[0, 0] == pytest.approx(
            naive_edge(x, layer.coeffs[0, 0], layer.w_base[0, 0],
                       layer.w_spline[0, 0], layer.grid), abs=1e-12)

    def test_aggregation_of_one_value_is_identity_for_location_kinds(self):
        for agg in ("sum", "mean", "min", "max", "median"):
            net = build_network((1, 1), (agg,), seed=3)
            out = forward(net, np.array([[0.4]]))
            ref = forward(build_network((1, 1), ("sum",), seed=3),
                          np.array([[0.4]]))
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_non_finite_input_rejected(self):
        net = small_net()
        for bad in (np.nan, np.inf):
            x = np.zeros((3, 4))
            x[1, 2] = bad
            with pytest.raises(ValueError):
                forward(net, x)

    def test_dimension_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))
        with pytest.raises(ValueError):   # one sample is a (1, n_in) batch
            forward(net, np.zeros(4))
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 3)))

    def test_trace_does_not_change_outputs(self):
        net = small_net(aggs=("std", "norm"), widths=(3, 6, 2), layer_norm=True)
        x = np.random.default_rng(8).uniform(-2, 2, (5, 3))
        plain = forward(net, x)
        traced, trace = forward(net, x, trace=True)
        np.testing.assert_array_equal(plain, traced)
        first, second = trace.layers
        n = net.layers[0].grid.n_basis + 1     # B-spline values, then silu
        assert first.edge_outputs.shape == (5, 6, 3)
        assert (first.inputs.shape, second.inputs.shape) == ((5, 3), (5, 6))
        assert (first.basis.shape, second.basis.shape) == ((5, 3, n), (5, 6, n))
        assert (first.coeffs.shape, second.coeffs.shape) == ((6, 3, n), (2, 6, n))
        assert first.basis_deriv is None and second.basis_deriv.shape == (5, 6, n)
        assert first.ln_zhat.shape == (5, 6) and first.ln_inv_std.shape == (5, 1)
        assert second.ln_zhat is None and second.ln_inv_std is None

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.5, 1.5, (6, 3))
        for agg in AGGREGATOR_NAMES:
            net = small_net(aggs=(agg, agg), widths=(3, 7, 2), seed=21)
            base = forward(net, x)
            perm = rng.permutation(7)
            net.layers[0].coeffs = net.layers[0].coeffs[perm]
            net.layers[0].w_base = net.layers[0].w_base[perm]
            net.layers[0].w_spline = net.layers[0].w_spline[perm]
            net.layers[1].coeffs = net.layers[1].coeffs[:, perm]
            net.layers[1].w_base = net.layers[1].w_base[:, perm]
            net.layers[1].w_spline = net.layers[1].w_spline[:, perm]
            np.testing.assert_allclose(forward(net, x), base, atol=1e-12)


class TestFoldedEdges:
    """Each layer folds w_base, w_spline and the coefficients into one
    contraction; the whole network must still equal the edge-by-edge and
    node-by-node oracle."""

    @pytest.mark.parametrize("layer_norm", [False, True])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    @pytest.mark.parametrize("agg", AGGREGATOR_NAMES)
    def test_network_matches_naive_oracle(self, agg, degree, layer_norm):
        rng = np.random.default_rng(41 + degree)
        net = small_net(aggs=(agg, agg), widths=(3, 4, 2), seed=42, degree=degree,
                        layer_norm=layer_norm)
        for layer in net.layers:
            layer.coeffs[...] = rng.normal(0.0, 0.5, layer.coeffs.shape)
            layer.w_base[...] = rng.normal(0.0, 1.0, layer.w_base.shape)
            layer.w_spline[...] = rng.normal(0.0, 1.0, layer.w_spline.shape)
        if layer_norm:
            net.layers[0].norm.gain[...] = rng.normal(1.0, 0.3, 4)
            net.layers[0].norm.bias[...] = rng.normal(0.0, 0.3, 4)
        # inside the grid range, in the band past it that the extended knots
        # cover when degree > 0, and past the last knot, where only the silu
        # residual is left
        x = np.concatenate([rng.uniform(-1.0, 1.0, (4, 3)),
                            rng.uniform(-2.5, 2.5, (4, 3)),
                            rng.choice([-1.0, 1.0], (2, 3)) * rng.uniform(4, 6, (2, 3))])
        expected = np.array([naive_network(net, row) for row in x])
        for out in (forward(net, x), forward(net, x, trace=True)[0]):
            np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)


class TestBlockedForward:
    """Untraced forward runs in blocks of block_rows(net) rows, a fixed
    number of layer-0 points; traced forward does not, and the two agree on
    every row."""

    def test_block_holds_a_fixed_number_of_layer0_points(self):
        for n_in, rows in ((3, 2730), (6, 1365), (14, 585), (30, 273),
                           (FORWARD_BLOCK_POINTS + 1, 1)):
            assert block_rows(small_net(widths=(n_in, 2, 2))) == rows

    @pytest.mark.parametrize("layer_norm", [False, True])
    @pytest.mark.parametrize("agg", ["sum", "mean", "median", "multiply"])
    def test_blocked_equals_traced(self, agg, layer_norm):
        net = small_net(aggs=(agg, agg), widths=(5, 6, 3), seed=31,
                        layer_norm=layer_norm)
        b = block_rows(net)
        x = np.random.default_rng(32).uniform(-1.5, 1.5, (2 * b + 7, 5))
        for n in (1, b - 1, b, b + 1, len(x)):
            blocked = forward(net, x[:n])
            traced, _ = forward(net, x[:n], trace=True)
            assert blocked.shape == (n, 3)
            np.testing.assert_allclose(blocked, traced, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("agg", ["sum", "mean", "median", "multiply"])
    def test_predict_same_in_one_call_or_row_by_row(self, agg):
        net = small_net(aggs=(agg, agg), widths=(5, 6, 3), seed=33, layer_norm=True)
        x = np.random.default_rng(34).uniform(-1.5, 1.5, (block_rows(net) + 40, 5))
        together = forward(net, x).argmax(axis=1)
        one_by_one = np.concatenate([forward(net, row[np.newaxis]).argmax(axis=1)
                                     for row in x])
        np.testing.assert_array_equal(together, one_by_one)

    @pytest.mark.parametrize("n_in", [3, 14, 30])
    def test_logits_same_in_one_call_or_row_by_row(self, n_in):
        # two whole blocks and part of a third, so every block boundary and
        # the short last block are crossed
        net = small_net(aggs=("median", "mean"), widths=(n_in, 6, 3), seed=38,
                        layer_norm=True)
        b = block_rows(net)
        x = np.random.default_rng(39).uniform(-1.5, 1.5, (2 * b + 5, n_in))
        one_by_one = np.concatenate([forward(net, row[np.newaxis]) for row in x])
        np.testing.assert_allclose(forward(net, x), one_by_one, rtol=1e-12, atol=1e-12)


class TestCallerLayerZeroBasis:
    """A traced forward may take layer 0's basis as a row slice of
    input_basis over more rows; it must equal the pass that builds it."""

    def test_row_slice_gives_identical_trace(self):
        net = small_net(aggs=("median", "sum"), widths=(5, 6, 3), seed=35,
                        layer_norm=True)
        x = np.random.default_rng(36).uniform(-1.5, 1.5, (100, 5))
        block = input_basis(net, x)
        rows = slice(40, 72)
        logits, trace = forward(net, x[rows], trace=True)
        given_logits, given = forward(net, x[rows], trace=True, basis0=block[rows])
        np.testing.assert_array_equal(given_logits, logits)
        for a, b in zip(given.layers, trace.layers):
            for name in ("basis", "edge_outputs", "inputs"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert given.layers[0].basis_deriv is None

    def test_mismatched_basis_rejected(self):
        net = small_net(aggs=("sum", "sum"), widths=(5, 6, 3), seed=37)
        x = np.zeros((8, 5))
        with pytest.raises(ValueError):
            forward(net, x, trace=True, basis0=input_basis(net, x[:4]))


class TestScaledSumEquivalence:
    def test_identity_on_random_networks(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            widths = tuple(int(rng.integers(1, 8)) for _ in range(3))
            net = build_network(
                widths, ("mean", "mean"), seed=int(rng.integers(1 << 30)),
                grid_size=int(rng.choice([1, 3, 5])),
                degree=int(rng.choice([0, 1, 3])))
            for layer in net.layers:  # move away from the all-ones init
                layer.w_base[...] = rng.normal(size=layer.w_base.shape)
                layer.w_spline[...] = rng.normal(size=layer.w_spline.shape)
            twin = mean_to_scaled_sum(net)
            assert all(l.aggregator is Aggregator.SUM for l in twin.layers)
            x = rng.uniform(-2, 2, (20, widths[0]))
            np.testing.assert_allclose(forward(net, x), forward(twin, x),
                                       atol=1e-9)

    def test_layer_grid_carries_over(self):
        net = small_net(aggs=("mean", "mean"), widths=(3, 4, 2), seed=40)
        net.layers[1].grid = make_grid(-2.0, 2.0)
        twin = mean_to_scaled_sum(net)
        assert twin.layers[1].grid is net.layers[1].grid
        # hidden values past [-1, 1], where the two grids differ
        x = np.random.default_rng(41).uniform(-2.0, 2.0, (50, 3))
        np.testing.assert_allclose(forward(twin, x), forward(net, x),
                                   rtol=1e-12, atol=1e-12)

    def test_non_mean_layers_untouched(self):
        net = small_net(aggs=("mean", "norm"), widths=(3, 5, 2))
        twin = mean_to_scaled_sum(net)
        assert twin.layers[0].aggregator is Aggregator.SUM
        assert twin.layers[1].aggregator is Aggregator.NORM
        np.testing.assert_array_equal(twin.layers[1].w_base, net.layers[1].w_base)


def normalize(v, gain, bias):
    return _layer_norm(np.asarray(v, dtype=float), LayerNormParams(gain, bias))[0]


class TestLayerNorm:
    def test_constant_vector_maps_to_bias(self):
        out = normalize([1.0, 1.0, 1.0], np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, 0.0)

    def test_unit_population_std(self):
        out = normalize([-1.0, 1.0], np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-4)

    def test_affine_law(self):
        v = np.array([0.2, -1.4, 0.9, 2.2])
        z = normalize(v, np.ones(4), np.zeros(4))
        out = normalize(v, np.full(4, 2.0), np.ones(4))
        np.testing.assert_allclose(out, 2 * z + 1, atol=1e-12)

    def test_applied_to_hidden_only(self):
        net = small_net(aggs=("sum", "sum"), widths=(3, 5, 2), layer_norm=True)
        x = np.random.default_rng(1).uniform(-1, 1, (4, 3))
        logits, trace = forward(net, x, trace=True)
        hidden = trace.layers[1].inputs    # the next layer's spline inputs
        np.testing.assert_allclose(hidden.mean(axis=1), 0.0, atol=1e-9)
        # final logits are raw: the output layer's aggregation, not normalized
        assert not np.allclose(logits.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_array_equal(logits, trace.layers[1].edge_outputs.sum(axis=2))

    def test_invalid(self):
        # a hidden layer is never empty
        with pytest.raises(ConfigError):
            small_net(widths=(3, 0, 2), layer_norm=True)


class TestRangeAdherence:
    def _trace_with_hidden(self, values):
        net = small_net(widths=(2, len(values), 2))
        x = np.zeros((1, 2))
        _, trace = forward(net, x, trace=True)
        trace.layers[1].inputs = np.asarray([values], dtype=float)
        return trace

    def test_fraction_with_boundaries_inclusive(self):
        trace = self._trace_with_hidden([0.5, -2.0, 0.3, 1.0])
        inside, total = adherence_counts(trace)
        assert inside.tolist() == [3] and total.tolist() == [4]

    def test_all_inside(self):
        trace = self._trace_with_hidden([0.1, -0.9, 0.0, 0.2])
        inside, total = adherence_counts(trace)
        assert inside.tolist() == total.tolist() == [4]

    def test_pools_across_traces(self):
        # counts, not fractions, so train can pool a whole run
        t1 = self._trace_with_hidden([0.0, 0.0, 5.0, 0.0])
        t2 = self._trace_with_hidden([5.0, 5.0, 5.0, 0.0])
        (i1, n1), (i2, n2) = (adherence_counts(t) for t in (t1, t2))
        np.testing.assert_allclose((i1 + i2) / (n1 + n2), [0.5])

    def test_monotone_under_widening(self):
        # the counts read the grid of the layer that consumes the hidden
        # vector, so a wider grid there counts more of it inside
        rng = np.random.default_rng(3)
        for _ in range(5):
            values = rng.normal(0, 1.2, 6)
            trace = self._trace_with_hidden(values)
            narrow, _ = adherence_counts(trace)
            trace.network.layers[1].grid = make_grid(-2.0, 2.0)
            wide, _ = adherence_counts(trace)
            assert np.all(narrow <= wide)
            assert wide.tolist() == [int(np.sum(np.abs(values) <= 2.0))]

    def test_zero_parameter_network_fully_adherent(self):
        net = small_net(aggs=("sum", "sum"), widths=(3, 5, 2))
        for layer in net.layers:
            layer.coeffs[...] = 0.0
            layer.w_base[...] = 0.0
            layer.w_spline[...] = 0.0
        x = np.random.default_rng(0).uniform(-1, 1, (10, 3))
        _, trace = forward(net, x, trace=True)
        inside, total = adherence_counts(trace)
        assert inside.tolist() == total.tolist() == [50]
