import math
import re

import numpy as np
import pytest

from kanagg import (ConfigError, TrainConfig, TrainingDiverged, adam_init,
                    adam_step, backward, build_network, evaluate, forward,
                    softmax_cross_entropy, squared_error_on_index,
                    synthetic_dataset, train)
from kanagg.aggregators import AGGREGATOR_NAMES
from kanagg.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

import kanagg.network
import kanagg.training
from kanagg.network import block_rows
from kanagg.splines import make_grid
from oracles import naive_basis_vector, naive_silu, reference_adam, \
    reference_train, relative_error


class TestSoftmaxCrossEntropy:
    def test_two_equal_logits(self):
        loss, d = softmax_cross_entropy(np.array([[0.0, 0.0]]), [0])
        assert loss[0] == pytest.approx(math.log(2), abs=1e-12)
        np.testing.assert_allclose(d, [[-0.5, 0.5]])

    def test_uniform_logits_any_width(self):
        for c in (2, 5, 9):
            loss, d = softmax_cross_entropy(np.full((1, c), 1.3), [c - 1])
            assert loss[0] == pytest.approx(math.log(c), abs=1e-12)
            assert d.sum() == pytest.approx(0.0, abs=1e-12)

    def test_stable_under_large_logits(self):
        loss, _ = softmax_cross_entropy(np.array([[1000.0, 0.0]]), [0])
        assert loss[0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        step = 1e-6
        for _ in range(50):
            z = rng.normal(0, 2, (1, 4))
            label = [int(rng.integers(0, 4))]
            _, d = softmax_cross_entropy(z, label)
            for i in range(4):
                zp = z.copy(); zp[0, i] += step
                zm = z.copy(); zm[0, i] -= step
                fd = (softmax_cross_entropy(zp, label)[0][0]
                      - softmax_cross_entropy(zm, label)[0][0]) / (2 * step)
                assert abs(d[0, i] - fd) < 1e-6

    def test_one_sample_is_a_batch_of_one(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), 0)
        with pytest.raises(ValueError):
            squared_error_on_index(np.zeros(1), 0)

    def test_scalar_head_loss(self):
        loss, d = squared_error_on_index(np.array([[2.5]]), [3])
        assert loss[0] == pytest.approx(0.25)
        np.testing.assert_allclose(d, [[-1.0]])


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        net = build_network((3, 4, 2), ("mean", "mean"), seed=0)
        x = np.random.default_rng(1).uniform(-1, 1, (5, 3))
        _, trace = forward(net, x, trace=True)
        grads = backward(net, trace, np.zeros((5, 2)))
        np.testing.assert_array_equal(grads, np.zeros_like(net.params))

    def test_single_edge_gradients_match_edge_partials(self):
        # phi(x) = w_base silu(x) + w_spline sum_i c_i B_i(x) is linear in
        # each parameter block, so its partials are w_spline B(x), silu(x)
        # and sum_i c_i B_i(x)
        net = build_network((1, 1), ("sum",), seed=5)
        layer = net.layers[0]
        x = 0.62
        _, trace = forward(net, np.array([[x]]), trace=True)
        [grads] = net.views(backward(net, trace, np.array([[1.0]])))
        basis = naive_basis_vector(x, layer.grid)
        np.testing.assert_allclose(grads.coeffs[0, 0], layer.w_spline[0, 0] * basis,
                                   atol=1e-14)
        assert grads.w_base[0, 0] == pytest.approx(naive_silu(x), abs=1e-14)
        assert grads.w_spline[0, 0] == pytest.approx(
            float(layer.coeffs[0, 0] @ basis), abs=1e-14)

    def test_mismatched_trace_rejected(self):
        net_a = build_network((3, 4, 2), ("mean", "mean"), seed=0)
        net_b = build_network((3, 4, 2), ("mean", "mean"), seed=0)
        x = np.zeros((2, 3))
        _, trace = forward(net_a, x, trace=True)
        with pytest.raises(ValueError):
            backward(net_b, trace, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            backward(net_a, trace, np.zeros((3, 2)))

    @pytest.mark.parametrize("agg", AGGREGATOR_NAMES)
    def test_full_network_matches_finite_differences(self, agg):
        self._check_gradients(agg, layer_norm=False, seed=17)

    def test_layer_norm_gradients(self):
        self._check_gradients("sum", layer_norm=True, seed=23)

    def test_gradients_without_first_layer_derivatives(self):
        # traced forward skips layer 0's derivative basis, which only an
        # input gradient would read; _check_gradients asserts it is absent
        self._check_gradients("mean", layer_norm=True, seed=29)

    @staticmethod
    def _check_gradients(agg, layer_norm, seed, widths=(3, 4, 2), n_points=4):
        rng = np.random.default_rng(seed)
        net = build_network(widths, (agg, agg), layer_norm=layer_norm, seed=seed)
        for layer in net.layers:  # move off the all-ones init, keep non-degenerate
            layer.w_base[...] = rng.normal(1.0, 0.3, layer.w_base.shape)
            layer.w_spline[...] = rng.normal(1.0, 0.3, layer.w_spline.shape)
        xs = rng.uniform(-1.4, 1.4, (n_points, widths[0]))
        labels = rng.integers(0, widths[-1], n_points)
        step = 1e-5

        def mean_loss():
            losses, _ = softmax_cross_entropy(forward(net, xs), labels)
            return float(losses.mean())

        logits, trace = forward(net, xs, trace=True)
        assert trace.layers[0].basis_deriv is None
        _, d_logits = softmax_cross_entropy(logits, labels)
        grads = backward(net, trace, d_logits)
        assert grads.shape == net.params.shape
        params = net.params
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + step
            hi = mean_loss()
            params[i] = orig - step
            lo = mean_loss()
            params[i] = orig
            fd = (hi - lo) / (2 * step)
            assert relative_error(grads[i], fd, floor=1e-6) < 1e-3, \
                f"{agg}: param {i} analytic {grads[i]} vs fd {fd}"


class TestAdam:
    def test_first_step_is_signed_lr(self):
        cfg = TrainConfig(learning_rate=0.01)
        p = np.array([1.0, -2.0])
        g = np.array([0.5, -3.0])
        state = adam_init(p)
        adam_step(p, g, state, cfg)
        expected = 1.0 - 0.01 * 0.5 / (0.5 + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert p[1] == pytest.approx(-2.0 + 0.01 * 3.0 / (3.0 + 1e-8), rel=1e-12)

    def test_zero_gradient_leaves_parameters(self):
        cfg = TrainConfig()
        p = np.array([0.3, 0.7])
        state = adam_init(p)
        for _ in range(25):
            adam_step(p, np.zeros(2), state, cfg)
        np.testing.assert_array_equal(p, [0.3, 0.7])
        assert state.t == 25

    def test_ten_step_quadratic_matches_reference(self):
        # minimize f(a, b) = (a - 1)^2 + 2 b^2 from (4, -3)
        cfg = TrainConfig(learning_rate=0.05)

        def grad_fn(params):
            return [2 * (params[0] - 1), 4 * params[1]]

        expected = reference_adam([4.0, -3.0], grad_fn, 0.05, ADAM_BETA1,
                                  ADAM_BETA2, ADAM_EPS, steps=10)
        p = np.array([4.0, -3.0])
        state = adam_init(p)
        for step in range(10):
            adam_step(p, np.array(grad_fn(p)), state, cfg)
            assert abs(p[0] - expected[step][0]) < 1e-10
            assert abs(p[1] - expected[step][1]) < 1e-10


class TestTrain:
    @staticmethod
    def _first_batch_loss(net, data, cfg, loss_fn):
        """The mean loss_fn of the untrained net on train's first batch."""
        order = np.random.default_rng(cfg.seed).permutation(len(data.train_idx))
        rows = data.train_idx[order[:cfg.batch_size]]
        losses, _ = loss_fn(forward(net, data.features[rows]), data.labels[rows])
        return float(losses.mean())

    def test_xor_sanity(self):
        data = synthetic_dataset("xor", 2, 200, seed=3)
        net = build_network((2, 10, 2), ("mean", "mean"), seed=11)
        cfg = TrainConfig(iterations=500, seed=7)
        # widths [.., C]: cross-entropy over the C logits
        first = self._first_batch_loss(net, data, cfg, softmax_cross_entropy)
        res = train(net, data, cfg)
        assert res.train_accuracy >= 0.95
        assert res.loss_curve[0] == pytest.approx(first, rel=1e-12)

    def test_separable_blobs_sanity(self):
        data = synthetic_dataset("gaussian-blobs", 6, 400, seed=8, n_classes=3)
        net = build_network((6, 10, 3), ("mean", "mean"), seed=15)
        res = train(net, data, TrainConfig(iterations=300, seed=4))
        assert res.test_accuracy >= 0.9

    def test_zero_learning_rate_is_identity(self):
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=1)
        net = build_network((4, 6, 3), ("mean", "mean"), seed=2)
        before = net.params.copy()
        acc_before = evaluate(net, data.features[data.test_idx],
                              data.labels[data.test_idx], data.n_classes)
        res = train(net, data, TrainConfig(iterations=50, learning_rate=0.0, seed=3))
        np.testing.assert_array_equal(before, net.params)
        assert res.test_accuracy == acc_before

    def test_deterministic_loss_curves(self):
        data = synthetic_dataset("gaussian-blobs", 4, 150, seed=5)
        curves = []
        for _ in range(2):
            net = build_network((4, 8, 3), ("sum", "sum"), seed=9)
            res = train(net, data, TrainConfig(iterations=60, seed=13))
            curves.append(res.loss_curve)
        assert curves[0] == curves[1]

    def test_loss_decreases_early_on_xor(self):
        for agg in ("sum", "mean"):
            drops = []
            for seed in range(5):
                data = synthetic_dataset("xor", 2, 200, seed=100 + seed)
                net = build_network((2, 10, 2), (agg, agg), seed=200 + seed)
                res = train(net, data, TrainConfig(iterations=50, seed=seed))
                drops.append(res.loss_curve[-1] - res.loss_curve[0])
            assert np.mean(drops) <= 0.0, f"{agg} did not descend: {drops}"

    def test_scalar_head_strict_mode(self):
        data = synthetic_dataset("gaussian-blobs", 4, 200, seed=6)
        net = build_network((4, 8, 1), ("mean", "mean"), seed=4)
        cfg = TrainConfig(iterations=300, seed=1)
        # widths [.., 1]: squared error on the label index
        first = self._first_batch_loss(net, data, cfg, squared_error_on_index)
        res = train(net, data, cfg)
        assert res.loss_curve[0] == pytest.approx(first, rel=1e-12)
        assert res.test_accuracy >= 0.5  # weak head, but must beat chance on blobs

    @staticmethod
    def _replayed_adherence(net, data, cfg, ranges):
        """train's pooled in-range shares, replayed in its batch order with a
        plain count of hidden vector l against ranges[l]. Valid at learning
        rate 0, which keeps the parameters fixed."""
        x = data.features[data.train_idx]
        rng = np.random.default_rng(cfg.seed)
        order, cursor = rng.permutation(len(x)), 0
        inside, total = [0] * len(ranges), [0] * len(ranges)
        for _ in range(cfg.iterations):
            if cursor >= len(x):
                order, cursor = rng.permutation(len(x)), 0
            batch = x[order[cursor: cursor + cfg.batch_size]]
            cursor += cfg.batch_size
            _, trace = forward(net, batch, trace=True)
            for layer, ((lo, hi), rec) in enumerate(zip(ranges, trace.layers[1:])):
                for value in rec.inputs.ravel().tolist():
                    inside[layer] += lo <= value <= hi
                    total[layer] += 1
        return [i / n for i, n in zip(inside, total)]

    def test_adherence_pooled_over_every_step(self):
        # every run records adherence; lr 0 keeps the parameters fixed, so a
        # replay of train's batch order with plain counts gives the same pool
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=2)
        cfg = TrainConfig(iterations=20, batch_size=16, learning_rate=0.0, seed=0)
        net = build_network((4, 6, 5, 3), ("sum", "sum", "sum"), seed=1)
        res = train(net, data, cfg)   # 72 train rows: batches of 16 and 8
        assert res.adherence == self._replayed_adherence(
            net, data, cfg, [(-1.0, 1.0), (-1.0, 1.0)])
        assert 0.0 < min(res.adherence) and max(res.adherence) < 1.0

    def test_adherence_counts_against_the_reading_layers_grid(self):
        # hidden vector 0 feeds layer 1: on a wider grid there, more of it is
        # in range, while hidden vector 1 still counts against layer 2's grid
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=2)
        cfg = TrainConfig(iterations=20, batch_size=16, learning_rate=0.0, seed=0)
        net = build_network((4, 6, 5, 3), ("sum", "sum", "sum"), seed=1)
        net.layers[1].grid = make_grid(-2.0, 2.0)
        res = train(net, data, cfg)
        assert res.adherence == self._replayed_adherence(
            net, data, cfg, [(-2.0, 2.0), (-1.0, 1.0)])
        unit = self._replayed_adherence(net, data, cfg, [(-1.0, 1.0), (-1.0, 1.0)])
        assert res.adherence[0] > unit[0] and res.adherence[1] == unit[1]

    def test_dimension_mismatch_rejected(self):
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=2)
        net = build_network((5, 6, 3), ("mean", "mean"), seed=1)
        with pytest.raises(ConfigError):
            train(net, data, TrainConfig(iterations=5))
        bad_head = build_network((4, 6, 2), ("mean", "mean"), seed=1)
        with pytest.raises(ConfigError):
            train(bad_head, data, TrainConfig(iterations=5))

    @pytest.mark.parametrize("setting, message", [
        ({"learning_rate": math.nan},
         "learning_rate must be a finite number >= 0, got nan"),
        ({"learning_rate": math.inf},
         "learning_rate must be a finite number >= 0, got inf"),
        ({"iterations": 2.5}, "iterations must be an integer, got 2.5"),
        ({"batch_size": True}, "batch_size must be an integer, got True")],
        ids=["nan-learning-rate", "inf-learning-rate", "float-iterations",
             "bool-batch-size"])
    def test_invalid_config_rejected_before_any_step(self, monkeypatch, setting, message):
        # the harness's messages, before any step
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=2)
        net = build_network((4, 6, 3), ("sum", "sum"), seed=1)
        monkeypatch.setattr(kanagg.training, "forward", None)    # no step may run
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            train(net, data, TrainConfig(**setting))

    @pytest.mark.parametrize("head", [3, 1], ids=["softmax", "scalar"])
    @pytest.mark.parametrize("label", [3, -1], ids=["n-classes", "negative"])
    def test_out_of_range_label_rejected_before_any_step(self, monkeypatch, head,
                                                         label):
        # the loss does not check labels; train checks them once, for either head
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=2)
        data.labels[data.test_idx[0]] = label
        net = build_network((4, 6, head), ("sum", "sum"), seed=1)
        monkeypatch.setattr(kanagg.training, "forward", None)    # no step may run
        with pytest.raises(ConfigError, match=re.escape(
                f"label {label} lies outside [0, 3)")):
            train(net, data, TrainConfig(iterations=5))

    def test_divergence_detected(self):
        # one step at this rate pushes w_spline * coeffs past float64 range
        data = synthetic_dataset("gaussian-blobs", 4, 120, seed=2)
        net = build_network((4, 6, 3), ("sum", "sum"), seed=1)
        with pytest.raises(TrainingDiverged):
            train(net, data, TrainConfig(iterations=200, learning_rate=1e160, seed=0))


class TestLayerZeroBlock:
    """train builds layer 0's basis for a block of batches at once; that
    must not change a single bit of what it computes."""

    @pytest.mark.parametrize("n_instances, widths, layer_norm, iterations, batch", [
        (600, (4, 6, 3), False, 5, 32),       # fewer rows than one epoch
        (600, (4, 6, 3), False, 40, 32),      # 360 train rows: partial last batch
        (2000, (16, 6, 3), False, 80, 32),    # 512-row blocks, 1200 train rows
        (60, (4, 6, 3), False, 6, 50),        # batch larger than the train split
        (600, (4, 6, 5, 3), True, 40, 32),    # layer norm
        (600, (4, 6, 3), False, 24, 32),      # ends exactly at the second epoch's end
    ])
    def test_matches_per_step_reference(self, n_instances, widths, layer_norm,
                                        iterations, batch):
        data = synthetic_dataset("gaussian-blobs", widths[0], n_instances, seed=3)
        cfg = TrainConfig(iterations=iterations, batch_size=batch, seed=7)
        aggs = ("median", "min", "max")[:len(widths) - 1]
        net, ref = [build_network(widths, aggs, layer_norm=layer_norm, seed=5)
                    for _ in range(2)]
        if n_instances == 2000:     # several blocks per epoch
            assert len(data.train_idx) > 2 * block_rows(net)
        res = train(net, data, cfg)
        losses, adherence, accuracy = reference_train(ref, data, cfg)
        assert res.loss_curve == losses
        np.testing.assert_array_equal(net.params, ref.params)
        assert res.adherence == adherence
        assert (res.train_accuracy, res.val_accuracy, res.test_accuracy) == accuracy

    def test_one_layer_zero_call_per_block(self, monkeypatch):
        # 360 train rows at batch 32 is 12 batches an epoch, so 40 steps
        # make 4 blocks (12 + 12 + 12 + 4 batches) and 40 layer-1 bases
        data = synthetic_dataset("gaussian-blobs", 4, 600, seed=3)
        assert len(data.train_idx) == 360
        calls = {"layer0": 0, "layer1": 0}
        evaluating = []
        basis_matrix, evaluate = kanagg.network.basis_matrix, kanagg.training.evaluate

        def counted(x, grid, derivs=True):
            if not evaluating:
                calls["layer0" if x.shape[-1] == 4 else "layer1"] += 1
            return basis_matrix(x, grid, derivs)

        def marked(*args):
            evaluating.append(True)
            return evaluate(*args)

        monkeypatch.setattr(kanagg.network, "basis_matrix", counted)
        monkeypatch.setattr(kanagg.training, "evaluate", marked)
        net = build_network((4, 6, 3), ("sum", "sum"), seed=1)
        train(net, data, TrainConfig(iterations=40, batch_size=32, seed=0))
        assert evaluating
        assert calls == {"layer0": 4, "layer1": 40}

    def test_training_holds_no_copy_of_the_train_split(self, monkeypatch):
        # while training, a run holds one block of rows (features, labels and
        # layer-0 basis) and one step's trace; a copy of the 12000-row train
        # split alone would be 0.6x the feature matrix
        import tracemalloc
        data = synthetic_dataset("gaussian-blobs", 30, 20000, seed=3)
        net = build_network((30, 10, 3), ("sum", "sum"), seed=1)
        peaks = []
        step = kanagg.training.adam_step

        def measured(*args):
            step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(kanagg.training, "adam_step", measured)
        tracemalloc.start()
        try:
            train(net, data, TrainConfig(iterations=40, batch_size=32, seed=0))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 40
        assert max(peaks) <= 0.5 * data.features.nbytes


class TestEvaluate:
    def test_perfect_and_constant_predictors(self):
        net = build_network((2, 4, 2), ("mean", "mean"), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, (40, 2))
        logits = forward(net, x)
        labels = logits.argmax(axis=1)
        assert evaluate(net, x, labels, 2) == 1.0
        # constant predictor on balanced labels
        for layer in net.layers:
            layer.coeffs[...] = 0.0
            layer.w_base[...] = 0.0
            layer.w_spline[...] = 0.0
        balanced = np.array([0, 1] * 20)
        assert evaluate(net, x, balanced, 2) == 0.5  # argmax ties -> class 0

    def test_scalar_head_scores_its_rounded_clipped_logit(self):
        net = build_network((2, 4, 1), ("mean", "mean"), seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, (40, 2))
        net.layers[-1].w_base[...] *= 40.0
        logits = forward(net, x)[:, 0]
        assert logits.min() < -0.5 and logits.max() > 2.5    # both ends clip
        labels = np.array([min(max(round(z), 0), 2) for z in logits.tolist()])
        assert evaluate(net, x, labels, 3) == 1.0
        assert evaluate(net, x, (labels + 1) % 3, 3) == 0.0

    def test_invariant_to_positive_rescaling(self):
        net = build_network((3, 5, 4), ("sum", "sum"), seed=2)
        x = np.random.default_rng(1).uniform(-1, 1, (30, 3))
        labels = np.random.default_rng(2).integers(0, 4, 30)
        base = evaluate(net, x, labels, 4)
        # scaling the output layer's edge weights rescales every logit by 3
        net.layers[-1].w_base[...] *= 3.0
        net.layers[-1].w_spline[...] *= 3.0
        assert evaluate(net, x, labels, 4) == base

    @pytest.mark.parametrize("n_rows, n_labels, message", [
        (0, 0, "evaluation set is empty"),
        # a lone label used to broadcast over every row
        (4, 1, "4 samples but labels of shape (1,)"),
        (4, 3, "4 samples but labels of shape (3,)")],
        ids=["empty", "one-label", "three-labels"])
    def test_empty_set_rejected(self, n_rows, n_labels, message):
        net = build_network((2, 3, 2), ("sum", "sum"), seed=0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(net, np.zeros((n_rows, 2)), np.ones(n_labels, dtype=int), 2)
