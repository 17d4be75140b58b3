import math

import numpy as np
import pytest

from cccpde.errors import DomainError, ShapeError
from cccpde.flow import (
    CouplingLayer,
    ElementwiseAffine,
    FlowStack,
    coupling_widths,
    gaussian_logpdf,
)
from cccpde.nn import BLOCK_ROWS, MLP
from cccpde.numerics import Rng

from helpers import (
    constant_coupling,
    finite_diff_grad,
    numerical_coupling_logdet,
    one_pass_stack_call,
    one_pass_stack_inverse,
    random_coupling,
    rel_err,
    stack_log_density,
    worst_param_grad_err,
)


class TestCouplingForward:
    def test_zero_nets_pass_through(self):
        rng = Rng(70)
        layer = CouplingLayer(4, 8, rng)  # outputs zero-initialized
        x = Rng(71).normals(20).reshape(5, 4)
        y, log_det = layer.forward(x)
        assert np.array_equal(y, x[:, ::-1])
        assert np.array_equal(log_det, np.zeros(5))

    def test_constant_affine_analytic(self):
        c, tau = 0.3, 0.7
        layer = constant_coupling(2, c, tau)
        x = np.array([[1.5, -2.0]])
        y, log_det = layer.forward(x)
        scale = math.tanh(math.atanh(c))
        assert y[0, 0] == -2.0
        assert y[0, 1] == pytest.approx(1.5 * math.exp(scale) + tau, rel=1e-12)
        assert log_det[0] == pytest.approx(scale, abs=1e-12)

    def test_logdet_matches_numerical_jacobian(self):
        rng = Rng(72)
        layer = random_coupling(4, 8, rng)
        x = Rng(73).normals(12).reshape(3, 4)
        _, log_det = layer.forward(x)
        for i in range(3):
            oracle = numerical_coupling_logdet(layer, x[i])
            assert abs(log_det[i] - oracle) < 1e-5

    def test_shape_error(self):
        layer = CouplingLayer(4, 8, Rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 3)))


class TestCouplingInverse:
    def test_roundtrip_both_directions(self):
        rng = Rng(74)
        layer = random_coupling(6, 8, rng)
        x = Rng(75).normals(600).reshape(100, 6)
        y, _ = layer.forward(x)
        assert np.abs(layer.inverse(y) - x).max() < 1e-9
        z = Rng(76).normals(600).reshape(100, 6)
        out, _ = layer.forward(layer.inverse(z))
        assert np.abs(out - z).max() < 1e-9

    def test_zero_nets_unpermute_only(self):
        layer = CouplingLayer(5, 8, Rng(77))
        y = Rng(78).normals(20).reshape(4, 5)
        assert np.abs(layer.inverse(y) - y[:, ::-1]).max() == 0.0


class TestFixedReversal:
    """Every coupling layer reverses its input; nothing about the order is
    drawn or stored."""

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_roundtrip(self, dim):
        layer = random_coupling(dim, 8, Rng(200 + dim))
        x = Rng(201).normals(50 * dim).reshape(50, dim)
        assert np.abs(layer.inverse(layer(x)[0]) - x).max() < 1e-12
        assert np.abs(layer(layer.inverse(x))[0] - x).max() < 1e-12

    def test_dim2_layers_transform_alternate_coordinates(self):
        first, second = (random_coupling(2, 8, Rng(s)) for s in (202, 203))
        x = Rng(204).normals(40).reshape(20, 2)
        y1, _ = first(x)
        y2, _ = second(y1)
        # the first layer passes x1 through and transforms x0; the second
        # passes that image of x0 through and transforms x1
        assert np.array_equal(y1[:, 0], x[:, 1])
        assert np.abs(y1[:, 1] - x[:, 0]).min() > 0
        assert np.array_equal(y2[:, 0], y1[:, 1])
        assert np.abs(y2[:, 1] - x[:, 1]).min() > 0

    def test_dim3_middle_coordinate_transformed_in_every_layer(self):
        h = Rng(205).normals(60).reshape(20, 3)
        for seed in range(206, 210):
            out, _ = random_coupling(3, 8, Rng(seed))(h)
            # the last coordinate passes through to the front; the middle
            # one stays in the middle and is transformed
            assert np.array_equal(out[:, 0], h[:, 2])
            assert np.abs(out[:, 1] - h[:, 1]).min() > 0
            h = out

    def test_structure_draws_nothing(self):
        # a layer's weights are its only random draws: building one takes
        # as many draws as its conditioner net alone
        rng, twin = Rng(211), Rng(211)
        CouplingLayer(5, 8, rng)
        MLP(coupling_widths(5, 8), twin, zero_init_last=True)
        assert np.array_equal(rng.normals(4), twin.normals(4))


def affine_layer(dim, seed):
    layer = ElementwiseAffine(dim)
    rng = Rng(seed)
    layer.shift.value[...] = rng.normals(dim)
    layer.log_scale.value[...] = 0.5 * rng.normals(dim)
    return layer


class TestElementwiseAffine:
    def test_identity_at_start(self):
        x = Rng(220).normals(12).reshape(4, 3)
        y, log_det = ElementwiseAffine(3)(x)
        assert np.array_equal(y, x) and np.array_equal(log_det, np.zeros(4))

    def test_map_logdet_and_inverse(self):
        layer = affine_layer(3, 221)
        x = Rng(222).normals(30).reshape(10, 3)
        y, log_det = layer(x)
        mu, s = layer.shift.value, layer.log_scale.value
        assert np.allclose(y, (x - mu) / np.exp(s), rtol=1e-14)
        assert np.array_equal(log_det, np.full(10, -s.sum()))
        assert abs(log_det[0] - numerical_coupling_logdet(layer, x[0])) < 1e-6
        assert np.abs(layer.inverse(y) - x).max() < 1e-12

    def test_gradients_match_finite_differences(self):
        stack = FlowStack(3, [affine_layer(3, 223),
                              random_coupling(3, 6, Rng(224))])
        x = Rng(225).normals(15).reshape(5, 3)
        n = x.shape[0]

        def run_backward():
            z, _ = stack.forward(x)
            return stack.backward(z / n, np.full(n, -1.0 / n))

        def nll(v=x):
            return float(-stack_log_density(stack, v).mean())

        assert worst_param_grad_err(stack.params(), run_backward, nll) < 1e-5
        fd = finite_diff_grad(nll, x.copy(), 1e-6)
        for p in stack.params():
            p.grad[...] = 0.0
        assert rel_err(fd, run_backward()) < 1e-5


class TestStackDensity:
    def test_empty_stack_standard_normal_1d(self):
        stack = FlowStack(1, [])
        out = stack_log_density(stack, np.array([[0.0]]))
        assert out[0] == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_empty_stack_standard_normal_2d(self):
        stack = FlowStack(2, [])
        out = stack_log_density(stack, np.array([[0.0, 0.0]]))
        assert out[0] == pytest.approx(-1.8378770664093453, abs=1e-12)

    def test_affine_density_integrates_to_one(self):
        stack = FlowStack(2, [constant_coupling(2, 0.4, 0.0)])
        span = np.linspace(-8.0, 8.0, 321)
        step = span[1] - span[0]
        points = np.column_stack([np.tile(span, span.size),
                                  np.repeat(span, span.size)])
        # plain Riemann sum; the density is ~0 well inside the bounds
        density = np.exp(stack_log_density(stack, points))
        assert abs(density.sum() * step * step - 1.0) < 1e-3

    def test_stack_logdet_is_sum_of_layers(self):
        rng = Rng(80)
        layers = [random_coupling(4, 6, rng) for _ in range(3)]
        stack = FlowStack(4, layers)
        x = Rng(81).normals(24).reshape(6, 4)
        _, total = stack.forward(x)
        h = x
        acc = np.zeros(6)
        for layer in layers:
            h, ld = layer.forward(h)
            acc += ld
        assert np.array_equal(total, acc)


class TestStackRoundtrip:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_inverse_of_forward(self, depth, dim):
        rng = Rng(1000 + depth * 10 + dim)
        stack = FlowStack.build(dim, depth, 8, rng, zero_init_outputs=False)
        x = Rng(82).normals(1000 * dim).reshape(1000, dim)
        z, _ = stack.forward(x)
        assert np.abs(stack.inverse(z) - x).max() < 1e-8


class TestSampling:
    def test_identity_stack_returns_latent_draws(self):
        stack = FlowStack(3, [])
        samples = stack.sample(Rng(90), 7)
        expected = Rng(90).normals(21).reshape(7, 3)
        assert np.array_equal(samples, expected)

    def test_affine_stack_sample_variance(self):
        # forward multiplies the transformed coordinate, x0, by e^c, so
        # samples (inverse images of unit normals) carry variance e^(-2c)
        c = -0.4
        stack = FlowStack(2, [constant_coupling(2, c, 0.0)])
        samples = stack.sample(Rng(91), 100_000)
        target = math.exp(-2.0 * math.tanh(math.atanh(c)))
        assert abs(samples[:, 0].var() / target - 1.0) < 0.1

    def test_samples_have_finite_density(self):
        rng = Rng(92)
        stack = FlowStack.build(2, 2, 8, rng, zero_init_outputs=False)
        samples = stack.sample(Rng(93), 10_000)
        assert np.all(np.isfinite(stack_log_density(stack, samples)))

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            FlowStack(2, []).sample(Rng(0), 0)


class TestFlowGradients:
    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_layer_gradients_match_finite_differences(self, dim):
        # random conditioner weights: the scales leave their zero start,
        # so a missing tanh derivative, 1 - scale^2, would show
        layer = random_coupling(dim, 8, Rng(120 + dim))
        x = Rng(121).normals(5 * dim).reshape(5, dim)
        g_y = Rng(122).normals(5 * dim).reshape(5, dim)
        g_log_det = Rng(123).normals(5)

        def loss(v=x):
            y, log_det = layer(v)
            return float((g_y * y).sum() + (g_log_det * log_det).sum())

        def run_backward():
            layer.forward(x)
            return layer.backward(g_y, g_log_det)

        scale = np.tanh(layer.net(x[:, ::-1][:, :dim // 2])[:, :dim - dim // 2])
        assert np.abs(scale).max() > 0.1
        assert worst_param_grad_err(layer.params(), run_backward, loss) < 1e-5
        fd = finite_diff_grad(loss, x.copy(), 1e-6)
        assert rel_err(fd, run_backward()) < 1e-5

    def test_stack_nll_gradients_match_finite_differences(self):
        rng = Rng(94)
        stack = FlowStack.build(4, 2, 6, rng, zero_init_outputs=False)
        x = Rng(95).normals(20).reshape(5, 4)
        n = x.shape[0]

        def run_backward():
            z, _ = stack.forward(x)
            stack.backward(z / n, np.full(n, -1.0 / n))

        def eval_loss():
            return float(-stack_log_density(stack, x).mean())

        assert worst_param_grad_err(stack.params(), run_backward,
                                    eval_loss) < 1e-5

    def test_input_gradients_match_finite_differences(self):
        rng = Rng(96)
        stack = FlowStack.build(4, 2, 6, rng, zero_init_outputs=False)
        x = Rng(97).normals(12).reshape(3, 4)
        n = x.shape[0]

        def nll(v):
            return float(-stack_log_density(stack, v).mean())

        fd = finite_diff_grad(nll, x.copy(), 1e-6)
        z, _ = stack.forward(x)
        g = stack.backward(z / n, np.full(n, -1.0 / n))
        assert rel_err(fd, g) < 1e-5


class TestStatelessInference:
    def test_pure_calls_between_forward_and_backward(self):
        layer = random_coupling(4, 8, Rng(98))
        xa = Rng(99).normals(24).reshape(6, 4)
        xb = Rng(100).normals(40).reshape(10, 4)
        g_y = Rng(101).normals(24).reshape(6, 4)
        g_log_det = Rng(102).normals(6)

        def gradients(interleave):
            for p in layer.params():
                p.grad[...] = 0.0
            y, log_det = layer.forward(xa)
            if interleave:
                yb, _ = layer(xb)
                layer.inverse(yb)
                assert np.array_equal(layer(xa)[0], y)
                assert np.array_equal(layer(xa)[1], log_det)
            g_x = layer.backward(g_y, g_log_det)
            return g_x, [p.grad.copy() for p in layer.params()]

        g_ref, params_ref = gradients(False)
        g_x, params = gradients(True)
        assert np.array_equal(g_x, g_ref)
        for got, want in zip(params, params_ref):
            assert np.array_equal(got, want)


# row counts around the block size: one row, one block short, exact,
# a one-row remainder, and two blocks plus a short one
BLOCK_EDGE_ROWS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                   2 * BLOCK_ROWS + 3]


class TestBlockedInference:
    """Pure stack calls run in row blocks, bit-identical to one pass."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    @pytest.mark.parametrize("dim", [2, 16])
    def test_call_inverse_sample_match_one_pass(self, dim, n):
        stack = FlowStack.build(dim, 3, 64, Rng(110 + dim),
                                zero_init_outputs=False)
        x = 2.0 * Rng(111).normals(n * dim).reshape(n, dim)
        z, log_det = stack(x)
        z_ref, log_det_ref = one_pass_stack_call(stack, x)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(log_det, log_det_ref)
        assert np.array_equal(stack.inverse(x),
                              one_pass_stack_inverse(stack, x))
        latent = Rng(112).normals(n * dim).reshape(n, dim)
        assert np.array_equal(stack.sample(Rng(112), n),
                              one_pass_stack_inverse(stack, latent))

    def test_empty_input_keeps_shapes_and_checks(self):
        stack = FlowStack.build(3, 2, 8, Rng(113), zero_init_outputs=False)
        z, log_det = stack(np.zeros((0, 3)))
        assert z.shape == (0, 3) and log_det.shape == (0,)
        assert stack.inverse(np.zeros((0, 3))).shape == (0, 3)
        with pytest.raises(ShapeError):
            stack(np.zeros((0, 2)))
