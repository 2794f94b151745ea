import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanagg import backward, build_network, forward, make_grid
from kanagg.splines import basis_matrix

from oracles import naive_basis_vector, naive_edge, naive_silu, relative_error


def silu_central(x, step):
    """Central difference of the silu oracle at x."""
    return (naive_silu(x + step) - naive_silu(x - step)) / (2 * step)


class TestMakeGrid:
    def test_cubic_default_grid(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        assert len(g.knots) == 10
        assert g.n_basis == 6
        np.testing.assert_allclose(g.knots, np.linspace(-3, 3, 10), atol=1e-12)

    def test_degree_zero_single_interval(self):
        g = make_grid(0.0, 1.0, 1, 0)
        np.testing.assert_allclose(g.knots, [0.0, 1.0])
        assert g.n_basis == 1

    def test_linear_two_intervals(self):
        g = make_grid(0.0, 2.0, 2, 1)
        np.testing.assert_allclose(g.knots, [-1, 0, 1, 2, 3])
        assert g.n_basis == 3

    def test_uniform_spacing(self):
        g = make_grid(-1.0, 1.0, 7, 2)
        diffs = np.diff(g.knots)
        assert np.all(diffs > 0)
        np.testing.assert_allclose(diffs, 2.0 / 7, rtol=1e-12)

    @pytest.mark.parametrize("args", [
        (1.0, -1.0, 3, 3), (0.0, 0.0, 3, 3), (-1.0, 1.0, 0, 3),
        (-1.0, 1.0, 3, -1), (float("nan"), 1.0, 3, 3), (-np.inf, 1.0, 3, 3),
        # a fractional size built knots spaced 0.8 on a grid reporting 1.0
        (-1.0, 1.0, 2.5, 3), (-1.0, 1.0, 3.0, 3), (-1.0, 1.0, 3, 2.0),
        (-1.0, 1.0, True, 3), (-1.0, 1.0, 3, False),
    ])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)


class TestBasisEval:
    def test_degree_zero_indicator(self):
        g = make_grid(0.0, 1.0, 1, 0)
        vals, derivs = basis_matrix(np.array([0.5]), g)
        np.testing.assert_allclose(vals, [[1.0, naive_silu(0.5)]])
        np.testing.assert_allclose(derivs, [[0.0, silu_central(0.5, 1e-6)]])

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        for G, k in [(1, 0), (3, 3), (5, 1), (4, 2)]:
            g = make_grid(-1.0, 1.0, G, k)
            xs = rng.uniform(-1.0, 1.0 - 1e-9, 200)
            vals, _ = basis_matrix(xs, g)
            np.testing.assert_allclose(vals[:, :-1].sum(axis=1), 1.0, atol=1e-9)
            assert np.all(vals[:, :-1] >= 0)

    def test_matches_naive_recursion(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        xs = np.linspace(-1.0, 1.0, 100, endpoint=False)
        vals, derivs = basis_matrix(xs, g)
        for x, row, drow in zip(xs, vals, derivs):
            np.testing.assert_allclose(row[:-1], naive_basis_vector(x, g), atol=1e-10)
            np.testing.assert_allclose(row[-1], naive_silu(x), atol=1e-10)
            np.testing.assert_allclose(drow[-1], silu_central(x, 1e-6), atol=1e-8)

    def test_matches_naive_outside_range(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        xs = np.array([-2.5, -1.2, 1.3, 2.9])
        vals, derivs = basis_matrix(xs, g)
        for x, row, drow in zip(xs, vals, derivs):
            np.testing.assert_allclose(row[:-1], naive_basis_vector(x, g), atol=1e-10)
            np.testing.assert_allclose(row[-1], naive_silu(x), atol=1e-10)
            np.testing.assert_allclose(drow[-1], silu_central(x, 1e-6), atol=1e-8)

    def test_silu_column_bitwise_equals_branching_sigmoid(self):
        """The silu column and its derivative equal, bit for bit, the
        sigmoid x * where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|)."""
        rng = np.random.default_rng(5)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   1e-310, -1e-310, 709.8, -709.8, 745.2, -745.2, 1e300, -1e300]
        xs = np.concatenate([rng.normal(0.0, 3.0, 20000),
                             rng.uniform(-800.0, 800.0, 2000), special])
        with np.errstate(all="ignore"):
            vals, derivs = basis_matrix(xs, make_grid(-1.0, 1.0, 3, 3))
            e = np.exp(np.minimum(xs, -xs))
            sig = np.where(xs >= 0, 1.0, e) / (1.0 + e)
            silu, silu_grad = xs * sig, sig * (1.0 + xs * (1.0 - sig))
        np.testing.assert_array_equal(vals[:, -1].view(np.int64),
                                      silu.view(np.int64))
        np.testing.assert_array_equal(derivs[:, -1].view(np.int64),
                                      silu_grad.view(np.int64))

    def test_local_support(self):
        g = make_grid(-1.0, 1.0, 4, 2)
        xs = np.random.default_rng(1).uniform(-2.0, 2.0, 50)
        vals, _ = basis_matrix(xs, g)
        for x, row in zip(xs, vals):
            for i, v in enumerate(row[:-1]):
                if not (g.knots[i] <= x <= g.knots[i + g.degree + 1]):
                    assert v == 0.0

    def test_zero_outside_knot_span(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        xs = np.array([-3.5, 3.5, 100.0])
        vals, derivs = basis_matrix(xs, g)
        assert np.all(vals[:, :-1] == 0.0)
        assert np.all(derivs[:, :-1] == 0.0)
        # only the silu residual remains
        np.testing.assert_allclose(vals[:, -1], [naive_silu(x) for x in xs], atol=1e-10)
        np.testing.assert_allclose(derivs[:, -1], [silu_central(x, 1e-6) for x in xs],
                                   atol=1e-8)

    def test_derivative_matches_finite_differences(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        xs = np.random.default_rng(2).uniform(-0.95, 0.95, 50)
        h = 1e-6
        _, derivs = basis_matrix(xs, g)
        up, _ = basis_matrix(xs + h, g)
        dn, _ = basis_matrix(xs - h, g)
        np.testing.assert_allclose(derivs, (up - dn) / (2 * h), atol=1e-5)


@st.composite
def grids(draw):
    """A knot grid with G in 1..10, k in 0..5 and a random [lo, hi]."""
    lo = draw(st.floats(-10.0, 10.0))
    width = draw(st.floats(0.01, 20.0))
    return make_grid(lo, lo + width, draw(st.integers(1, 10)),
                     draw(st.integers(0, 5)))


class TestBasisProperties:
    """basis_matrix against the recursive oracle on random grids."""

    @given(grids(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_values_match_oracle(self, grid, data):
        # every knot and both its ulp neighbours, where a span taken from
        # floor alone can land one interval off, plus points past both ends
        t = grid.knots
        span = t[-1] - t[0]
        beyond = data.draw(st.lists(st.one_of(
            st.floats(t[0] - span, t[0], exclude_max=True),
            st.floats(t[-1], t[-1] + span)), min_size=1, max_size=4))
        inside = data.draw(st.lists(
            st.floats(t[0], t[-1], exclude_max=True), max_size=4))
        xs = np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                             beyond, inside])
        vals, derivs = basis_matrix(xs, grid)
        assert vals.shape == derivs.shape == (xs.size, grid.n_basis + 1)
        for x, row in zip(xs, vals):
            np.testing.assert_allclose(row[:-1], naive_basis_vector(x, grid),
                                       rtol=0, atol=1e-10, err_msg=f"x={x!r}")
            np.testing.assert_allclose(row[-1], naive_silu(x),
                                       rtol=0, atol=1e-10, err_msg=f"x={x!r}")

    @given(grids(), st.lists(st.sampled_from((np.nan, np.inf, -np.inf)),
                             min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_points_give_zero_rows(self, grid, bad):
        t = grid.knots
        good = (t[:-1] + t[1:]) / 2
        xs = np.concatenate([good, bad])
        vals, derivs = basis_matrix(xs, grid)
        assert np.all(vals[good.size:, :-1] == 0.0)
        assert np.all(derivs[good.size:, :-1] == 0.0)
        ref_vals, ref_derivs = basis_matrix(good, grid)
        assert np.array_equal(vals[:good.size], ref_vals)
        assert np.array_equal(derivs[:good.size], ref_derivs)

    @given(grids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derivatives_match_oracle_differences(self, grid, data):
        # points at least 1% of a knot spacing from every knot
        t, h = grid.knots, grid.spacing
        spans = data.draw(st.lists(st.integers(0, t.size - 2), min_size=1, max_size=6))
        fracs = data.draw(st.lists(st.floats(0.01, 0.99), min_size=len(spans),
                                   max_size=len(spans)))
        xs = t[spans] + h * np.array(fracs)
        _, derivs = basis_matrix(xs, grid)
        step = 1e-5 * h
        for x, row in zip(xs, derivs):
            central = (naive_basis_vector(x + step, grid)
                       - naive_basis_vector(x - step, grid)) / (2 * step)
            central = np.append(central, silu_central(x, step))
            np.testing.assert_allclose(row, central, rtol=0, atol=1e-6 / h,
                                       err_msg=f"x={x!r}")


# A [1, 1] sum network computes exactly one edge, phi(x). In a [1, 1, 1] sum
# network whose first edge is w_base * silu(X0) with zero coefficients, the
# second edge sees h = phi_1(X0) and backward gives
#   d loss / d w_base(first edge) = upstream * phi_2'(h) * silu(X0),
# which exposes the input partial of the second edge.
X0 = 1.0


def single_edge(coeffs, w_base, w_spline):
    net = build_network((1, 1), ("sum",))
    layer = net.layers[0]
    layer.coeffs[0, 0] = coeffs
    layer.w_base[0, 0] = w_base
    layer.w_spline[0, 0] = w_spline
    return net


def random_edge(rng, n_basis):
    return rng.normal(0, 0.5, n_basis), float(rng.normal()), float(rng.normal())


def phi(net, x):
    return float(forward(net, np.array([[x]]))[0, 0])


def edge_gradients(coeffs, w_base, w_spline, x, upstream):
    """(h, d_x, d_coeffs, d_w_base, d_w_spline) of the edge at h ~= x, each
    scaled by upstream, from backward of a [1, 1, 1] sum network."""
    net = build_network((1, 1, 1), ("sum", "sum"))
    first, second = net.layers
    first.coeffs[...] = 0.0
    first.w_base[...] = x / naive_silu(X0)
    second.coeffs[0, 0] = coeffs
    second.w_base[...] = w_base
    second.w_spline[...] = w_spline
    _, trace = forward(net, np.array([[X0]]), trace=True)
    d_first, d_second = net.views(backward(net, trace, np.array([[upstream]])))
    d_x = d_first.w_base[0, 0] / naive_silu(X0)
    return (float(trace.layers[1].inputs[0, 0]), float(d_x), d_second.coeffs[0, 0],
            float(d_second.w_base[0, 0]), float(d_second.w_spline[0, 0]))


def finite_difference(net, array, index, x, step):
    """Central difference of phi(x) in one parameter entry of `net`."""
    orig = array[index]
    array[index] = orig + step
    hi = phi(net, x)
    array[index] = orig - step
    lo = phi(net, x)
    array[index] = orig
    return (hi - lo) / (2 * step)


class TestEdgeForward:
    def test_silu_zero_at_origin(self):
        assert phi(single_edge(np.zeros(6), 1.0, 1.0), 0.0) == 0.0

    def test_constant_coeffs_reproduce_constant(self):
        net = single_edge(np.full(6, 0.7), 0.0, 1.0)
        for x in (-0.9, -0.2, 0.4, 0.99):
            assert phi(net, x) == pytest.approx(0.7, abs=1e-12)

    def test_matches_direct_summation(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            edge = random_edge(rng, g.n_basis)
            x = float(rng.uniform(-2, 2))
            assert phi(single_edge(*edge), x) == pytest.approx(
                naive_edge(x, *edge, g), abs=1e-12)

    def test_linear_in_each_parameter_block(self):
        coeffs, w_base, w_spline = random_edge(np.random.default_rng(4), 6)
        x = 0.37
        base = phi(single_edge(coeffs, w_base, w_spline), x)
        # scaling (w_base, w_spline) together scales the whole edge output
        scaled = single_edge(coeffs, 2.5 * w_base, 2.5 * w_spline)
        assert phi(scaled, x) == pytest.approx(2.5 * base, rel=1e-12)
        # at w_base = 0 the output is linear in the coefficients
        e0 = single_edge(coeffs, 0.0, w_spline)
        e0_scaled = single_edge(3.0 * coeffs, 0.0, w_spline)
        assert phi(e0_scaled, x) == pytest.approx(3.0 * phi(e0, x), rel=1e-12)


class TestEdgeBackward:
    def test_zero_upstream(self):
        edge = random_edge(np.random.default_rng(5), 6)
        _, d_x, d_c, d_wb, d_ws = edge_gradients(*edge, 0.3, 0.0)
        assert d_x == 0.0 and d_wb == 0.0 and d_ws == 0.0
        assert np.all(d_c == 0.0)

    def test_coeff_gradient_is_scaled_basis(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        coeffs = np.random.default_rng(6).normal(size=g.n_basis)
        up = 2.0
        h, _, d_c, _, _ = edge_gradients(coeffs, 0.0, 1.7, 0.25, up)
        np.testing.assert_allclose(d_c, up * 1.7 * naive_basis_vector(h, g),
                                   atol=1e-14)

    def test_matches_finite_differences(self):
        g = make_grid(-1.0, 1.0, 3, 3)
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(200):
            edge = random_edge(rng, g.n_basis)
            x = float(rng.uniform(-2.0, 2.0))  # includes out-of-range points
            up = float(rng.normal())
            if abs(up) < 1e-3:
                up = 1.0
            h, d_x, d_c, d_wb, d_ws = edge_gradients(*edge, x, up)
            net = single_edge(*edge)
            layer = net.layers[0]

            fd_x = (phi(net, h + step) - phi(net, h - step)) / (2 * step)
            assert relative_error(d_x, up * fd_x, floor=1e-5) < 1e-4
            for i in range(g.n_basis):
                fd = finite_difference(net, layer.coeffs, (0, 0, i), h, step)
                assert relative_error(d_c[i], up * fd, floor=1e-5) < 1e-4
            fd = finite_difference(net, layer.w_base, (0, 0), h, step)
            assert relative_error(d_wb, up * fd, floor=1e-5) < 1e-4
            fd = finite_difference(net, layer.w_spline, (0, 0), h, step)
            assert relative_error(d_ws, up * fd, floor=1e-5) < 1e-4

    def test_thousand_sample_spot_check(self):
        # one random coefficient plus d_x/d_w_base/d_w_spline per sample,
        # half the samples outside the grid range
        g = make_grid(-1.0, 1.0, 3, 3)
        rng = np.random.default_rng(8)
        step = 1e-5
        for i in range(1000):
            edge = random_edge(rng, g.n_basis)
            x = float(rng.uniform(-1, 1) if i % 2 else rng.uniform(-3, 3))
            h, d_x, d_c, d_wb, d_ws = edge_gradients(*edge, x, 1.0)
            net = single_edge(*edge)
            layer = net.layers[0]

            fd_x = (phi(net, h + step) - phi(net, h - step)) / (2 * step)
            assert relative_error(d_x, fd_x, floor=1e-5) < 1e-4
            j = int(rng.integers(g.n_basis))
            fd = finite_difference(net, layer.coeffs, (0, 0, j), h, step)
            assert relative_error(d_c[j], fd, floor=1e-5) < 1e-4
            fd = finite_difference(net, layer.w_base, (0, 0), h, step)
            assert relative_error(d_wb, fd, floor=1e-5) < 1e-4
            fd = finite_difference(net, layer.w_spline, (0, 0), h, step)
            assert relative_error(d_ws, fd, floor=1e-5) < 1e-4
