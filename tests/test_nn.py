import math

import mpmath as mp
import numpy as np
import pytest

from cccpde.errors import DomainError, ShapeError
from cccpde.nn import (
    ACTIVATION_TAGS,
    ADAM_CHUNK,
    BLOCK_ROWS,
    LAYER_NORM_EPS,
    LEAKY_SLOPE,
    AdamState,
    DenseBlock,
    DenseLayer,
    LayerNorm,
    MLP,
    Param,
    SigmoidHead,
    activation,
    activation_backward,
    activation_cache,
    bce_with_logits,
    dropout,
    gaussian_nll_loss,
    row_blocks,
)
from cccpde.numerics import Rng

from cccpde.data import Standardizer, preset_datasets
from cccpde.model import CccpDeModel

from helpers import (
    ReferenceAdam,
    SixVectorAdam,
    finite_diff_grad,
    input_grad_err,
    mp_central_diff_grad,
    random_coupling,
    reference_activation,
    reference_activation_grad,
    reference_cccpde_loss_and_grads,
    reference_layer_norm_standardize,
    reference_training_pairs,
    rel_err,
    rng_randint_below,
    worst_param_grad_err,
)

# signed zeros, subnormals, exp's overflow edge, the float64 extremes,
# infinities and NaN, plus a few ordinary values
EDGE_INPUTS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    700.0, -700.0, 1e308, -1e308, np.inf, -np.inf, np.nan,
    1e-3, -1e-3, 0.5, -0.5, 3.0, -3.0, 40.0, -40.0,
])


def backward_at(tag, x, upstream):
    """Upstream times the activation derivative at x, as the layers get it:
    `activation_backward` reading the `activation_cache` of a forward pass."""
    cache = activation_cache(tag, x, activation(tag, x))
    return activation_backward(tag, cache, upstream)


def mp_weighted_layer_norm(flat, norm, weights):
    """sum(weights * norm(x)) in mpmath arithmetic; x comes flat, row-major."""
    dim = norm.dim
    total = mp.mpf(0)
    for r in range(len(flat) // dim):
        row = flat[r * dim:(r + 1) * dim]
        mean = mp.fsum(row) / dim
        var = mp.fsum((v - mean) ** 2 for v in row) / dim
        inv = 1 / mp.sqrt(var + LAYER_NORM_EPS)
        total += mp.fsum(
            w * ((v - mean) * inv * g + b)
            for v, w, g, b in zip(row, weights[r], norm.gain.value,
                                  norm.bias.value))
    return total


class TestDenseLayer:
    def test_identity_weights(self):
        layer = DenseLayer(2, 2)
        layer.weight.value[...] = np.eye(2)
        out = layer.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(out, np.array([[1.0, 2.0]]))

    def test_hand_arithmetic(self):
        layer = DenseLayer(2, 1)
        layer.weight.value[...] = np.array([[2.0], [3.0]])
        layer.bias.value[...] = np.array([1.0])
        assert layer.forward(np.array([[1.0, 1.0]]))[0, 0] == 6.0

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            DenseLayer(3, 2).forward(np.zeros((4, 5)))

    def test_backward_matches_finite_differences(self):
        rng = Rng(21)
        layer = DenseLayer(4, 3, rng)
        x = rng.normals(20).reshape(5, 4)
        weights = rng.normals(15).reshape(5, 3)
        assert input_grad_err(layer.forward, layer.backward, x, weights) < 1e-6

        def run_backward():
            layer.forward(x)
            layer.backward(weights)

        def eval_loss():
            return float((layer.forward(x) * weights).sum())

        assert worst_param_grad_err(layer.params(), run_backward, eval_loss) < 1e-6


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert activation("sigmoid", np.array([0.0]))[0] == 0.5

    def test_elu_definition(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = activation("elu", x)
        assert out[0] == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-12)
        assert out[1] == 0.0
        assert out[2] == 2.0

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            activation("softplus", np.zeros(1))
        with pytest.raises(DomainError):
            activation_backward("softplus", None, np.zeros(1))
        with pytest.raises(DomainError):
            activation_cache("softplus", np.zeros(1), None)

    @pytest.mark.parametrize("tag", ACTIVATION_TAGS)
    def test_grad_matches_finite_differences(self, tag):
        rng = Rng(ACTIVATION_TAGS.index(tag))
        x = 4.0 * rng.uniforms(200) - 2.0
        x = x[np.abs(x) > 1e-3][:100]  # keep clear of the leaky_relu kink
        ones = np.ones_like(x)
        fd = finite_diff_grad(
            lambda v: float(activation(tag, v).sum()), x.copy(), 1e-6)
        assert rel_err(fd, backward_at(tag, x, ones)) < 1e-6

    @pytest.mark.parametrize("tag", ACTIVATION_TAGS)
    def test_bitwise_equal_to_masked_reference(self, tag):
        x = np.concatenate([EDGE_INPUTS, 30.0 * Rng(8).normals(200)])
        upstream = np.concatenate([np.ones(EDGE_INPUTS.size),
                                   Rng(9).normals(200)])
        with np.errstate(all="ignore"):
            ref = reference_activation(tag, x)
            ref_grad = reference_activation_grad(tag, x, upstream)
        assert np.array_equal(activation(tag, x), ref, equal_nan=True)
        assert np.array_equal(backward_at(tag, x, upstream), ref_grad,
                              equal_nan=True)
        # the same holds on 2-D blocks, which is how the layers call them
        block = x[:220].reshape(11, 20)
        assert np.array_equal(activation(tag, block),
                              ref[:220].reshape(11, 20), equal_nan=True)

    @pytest.mark.parametrize("tag", ACTIVATION_TAGS)
    def test_edge_inputs_raise_no_float_warning(self, tag):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            activation(tag, EDGE_INPUTS)
            backward_at(tag, EDGE_INPUTS, np.ones(EDGE_INPUTS.size))


class TestLayerNorm:
    def test_constant_row_returns_bias(self):
        norm = LayerNorm(3)
        norm.bias.value[...] = np.array([1.0, 2.0, 3.0])
        out = norm.forward(np.full((2, 3), 5.0))
        assert np.array_equal(out, np.tile([1.0, 2.0, 3.0], (2, 1)))

    def test_two_point_row(self):
        norm = LayerNorm(2)
        out = norm.forward(np.array([[1.0, 3.0]]))
        assert np.abs(out - np.array([[-1.0, 1.0]])).max() < 1e-4

    def test_backward_matches_finite_differences(self):
        rng = Rng(31)
        norm = LayerNorm(5)
        norm.gain.value[...] = 1.0 + 0.3 * rng.normals(5)
        norm.bias.value[...] = 0.2 * rng.normals(5)
        x = rng.normals(20).reshape(4, 5)
        weights = rng.normals(20).reshape(4, 5)
        assert input_grad_err(norm.forward, norm.backward, x, weights) < 1e-5

        def run_backward():
            norm.forward(x)
            norm.backward(weights)

        def eval_loss():
            return float((norm.forward(x) * weights).sum())

        assert worst_param_grad_err(norm.params(), run_backward, eval_loss) < 1e-5

    def test_standardize_matches_np_var_bitwise(self):
        # 1 to 300 rows, widths 1 to 128, scales 1e-3 to 1e6, offsets up
        # to 1e4 either side of zero
        rng = Rng(33)
        for case in range(200):
            u = rng.uniforms(4)
            rows, width = 1 + int(300 * u[0]), 1 + int(128 * u[1])
            scale, offset = 10.0 ** (9 * u[2] - 3), 1e4 * (2 * u[3] - 1)
            x = offset + scale * rng.normals(rows * width).reshape(rows, width)
            got = LayerNorm._standardize(x)
            want = reference_layer_norm_standardize(x)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), case

    def test_call_matches_np_var_on_overflow_rows(self):
        norm = LayerNorm(4)
        norm.gain.value[...] = [1.5, -2.0, 0.5, 3.0]
        norm.bias.value[...] = [0.1, 0.2, -0.3, 0.4]
        x = np.array([[1e200, -1e200, 0.0, 1.0],  # squared deviations overflow
                      [1e154, -1e154, 1e154, -1e154],  # only their sum does
                      [1e308, -1e308, 1e308, -1e308],
                      [1.0, 2.0, 3.0, 4.0]])
        with np.errstate(over="ignore"):
            want = (reference_layer_norm_standardize(x)[0] * norm.gain.value
                    + norm.bias.value)
        with np.errstate(all="raise"):
            got = norm(x)
        assert got.tobytes() == want.tobytes()
        # an overflowed variance gives those rows inverse scale 0
        assert np.array_equal(got[:3], np.tile(norm.bias.value, (3, 1)))


SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])


def sprinkled(rng, shape, share=0.2):
    """Normals with about `share` of the entries replaced by nan, -nan,
    +-inf and +-0.0."""
    n = math.prod(shape)
    picks = SPECIALS[(rng.uniforms(n) * SPECIALS.size).astype(int)]
    x = np.where(rng.uniforms(n) < share, picks, rng.normals(n))
    return x.reshape(shape)


class TestBitForBitTrims:
    """Each layer form against the form it replaced, compared bit for bit
    (signs of zeros and NaNs included) on random and special inputs."""

    @pytest.mark.parametrize("share", [0.0, 0.2])
    def test_one_wide_dense_layer_equals_matmul(self, share):
        rng = Rng(40)
        for case in range(40):
            u = rng.uniforms(2)
            rows, width = 1 + int(300 * u[0]), 1 + int(80 * u[1])
            layer = DenseLayer(1, width)
            layer.weight.value[...] = sprinkled(rng, (1, width), share)
            # every bias value but -0.0, the one exception below
            bias = sprinkled(rng, (width,), share)
            layer.bias.value[...] = np.where(bias == 0.0, 0.0, bias)
            x = sprinkled(rng, (rows, 2), share)
            # a contiguous column, and the strided one a coupling layer
            # passes (a column of the reversed input)
            for column in (np.ascontiguousarray(x[:, :1]), x[:, ::-1][:, :1]):
                with np.errstate(invalid="ignore"):
                    want = column @ layer.weight.value + layer.bias.value
                    got = layer(column)
                assert got.tobytes() == want.tobytes(), case

    def test_one_wide_dense_layer_signed_zero_exception(self):
        # matmul's sum starts at +0.0, so a -0.0 product leaves it +0.0;
        # beside a -0.0 bias that sign reaches the output
        layer = DenseLayer(1, 2)
        layer.weight.value[...] = [[1.0, -1.0]]
        layer.bias.value[...] = -0.0
        x = np.array([[-0.0], [0.0]])
        got = layer(x)
        want = x @ layer.weight.value + layer.bias.value
        assert np.array_equal(got, want)
        assert np.signbit(got).tolist() == [[True, False], [False, True]]
        assert not np.signbit(want).any()

    @pytest.mark.parametrize("share", [0.0, 0.2])
    def test_leaky_relu_backward_equals_factor_form(self, share):
        rng = Rng(41)
        pre = sprinkled(rng, (64, 33), share)
        upstream = sprinkled(rng, (64, 33), share)
        cache = activation_cache("leaky_relu", pre, None)
        with np.errstate(invalid="ignore"):
            want = upstream * np.where(cache, LEAKY_SLOPE, 1.0)
            got = activation_backward("leaky_relu", cache, upstream)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("share", [0.0, 0.2])
    def test_layer_norm_row_mean_equals_np_mean(self, share):
        rng = Rng(42)
        for width in (1, 2, 7, 64, 129):
            x = 1e3 * sprinkled(rng, (50, width), share)
            with np.errstate(invalid="ignore"):
                want = x.mean(axis=1, keepdims=True)
                got = LayerNorm._row_mean(x)
            assert got.tobytes() == want.tobytes(), width

    def test_layer_norm_backward_equals_np_mean_form(self):
        rng = Rng(43)
        norm = LayerNorm(64)
        norm.gain.value[...] = 1.0 + 0.3 * rng.normals(64)
        x = 5.0 * rng.normals(128 * 64).reshape(128, 64)
        upstream = sprinkled(rng, (128, 64))
        norm.forward(x)
        xhat, inv = norm._cache
        g = upstream * norm.gain.value
        with np.errstate(invalid="ignore"):
            want = inv * (g - g.mean(axis=1, keepdims=True)
                          - xhat * (g * xhat).mean(axis=1, keepdims=True))
            got = norm.backward(upstream)
        assert got.tobytes() == want.tobytes()


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, mask = dropout(x, 0.0, Rng(0))
        assert np.array_equal(out, x)
        assert mask.min() == 1.0

    def test_inference_identity(self):
        # inference leaves dropout out of the block: no mask, no rng
        block = DenseBlock(3, 3, 0.9, Rng(0))
        x = np.arange(6.0).reshape(2, 3)
        out = block.forward(x, None, training=False)
        assert block._cache[0] is None
        assert np.array_equal(out, block(x))

    def test_rate_statistics(self):
        rng = Rng(6)
        x = rng.uniforms(100_000) + 0.5
        out, mask = dropout(x, 0.5, rng)
        zero_fraction = 1.0 - mask.mean()
        assert abs(zero_fraction - 0.5) < 0.01
        assert abs(out.mean() - x.mean()) < 0.02 * x.mean()

    def test_small_rate_statistics(self):
        rng = Rng(16)
        x = np.ones(200_000)
        _, mask = dropout(x, 0.05, rng)
        assert abs((1.0 - mask.mean()) - 0.05) < 0.005

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            dropout(np.ones(3), 1.0, Rng(0))


def softplus_bce(logits, y):
    """Mean BCE on logits written as max(l, 0) + log1p(e^-|l|) - y l."""
    return float(np.mean(np.maximum(logits, 0.0)
                         + np.log1p(np.exp(-np.abs(logits))) - y * logits))


class TestLosses:
    def test_bce_half(self):
        loss, _ = bce_with_logits(np.array([0.0]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bce_saturated_logits_have_exact_gradients(self):
        # past the clip the old probability form had: loss and gradient
        # follow the logit, nothing is cut off
        logits = np.array([800.0, -800.0, -800.0, 800.0, -20.7])
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        loss, grad = bce_with_logits(logits, y)
        assert loss == pytest.approx((800.0 + 800.0 + 20.7) / 5, rel=1e-12)
        assert np.array_equal(grad[:4], [0.0, 0.0, -0.2, 0.2])
        assert grad[4] == pytest.approx(-0.2, rel=1e-8)

    def test_bce_nonnegative(self):
        rng = Rng(3)
        logits = 5.0 * rng.normals(50)
        y = (rng.uniforms(50) > 0.5).astype(float)
        assert bce_with_logits(logits, y)[0] >= 0.0

    def test_bce_grad_matches_finite_differences(self):
        rng = Rng(12)
        logits = 3.0 * rng.normals(20)
        logits[:4] = [25.0, -25.0, 40.0, -40.0]
        y = (rng.uniforms(20) > 0.5).astype(float)
        _, grad = bce_with_logits(logits, y)
        fd = finite_diff_grad(lambda v: bce_with_logits(v, y)[0],
                              logits.copy(), 1e-6)
        assert rel_err(fd, grad) < 1e-6
        assert np.array_equal(grad, (activation("sigmoid", logits) - y) / 20)

    def test_bce_rejects_mismatched_labels(self):
        with pytest.raises(ShapeError):
            bce_with_logits(np.zeros(3), np.zeros(2))

    def test_gaussian_nll_zero_residual(self):
        loss, _, _ = gaussian_nll_loss(np.array([2.0]), np.array([0.0]),
                                       np.array([2.0]))
        assert loss == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-12)

    def test_gaussian_nll_unit_residual(self):
        loss, _, _ = gaussian_nll_loss(np.array([1.0]), np.array([0.0]),
                                       np.array([2.0]))
        assert loss == pytest.approx(0.5 * math.log(2.0 * math.pi) + 0.5,
                                     rel=1e-12)

    def test_gaussian_nll_finite(self):
        loss, _, _ = gaussian_nll_loss(np.array([50.0]), np.array([-30.0]),
                                       np.array([-50.0]))
        assert math.isfinite(loss)

    def test_gaussian_nll_grads_match_finite_differences(self):
        rng = Rng(14)
        mu = rng.normals(10)
        log_var = 0.5 * rng.normals(10)
        y = rng.normals(10)
        _, g_mu, g_lv = gaussian_nll_loss(mu, log_var, y)
        fd_mu = finite_diff_grad(
            lambda v: gaussian_nll_loss(v, log_var, y)[0], mu.copy(), 1e-6)
        fd_lv = finite_diff_grad(
            lambda v: gaussian_nll_loss(mu, v, y)[0], log_var.copy(), 1e-6)
        assert rel_err(fd_mu, g_mu) < 1e-6
        assert rel_err(fd_lv, g_lv) < 1e-6


class TestAdam:
    def test_first_step_is_signed_lr(self):
        state = AdamState(lr=1e-3)
        w = Param(np.array([0.5, -0.25]))
        w.grad[...] = np.array([2.0, -3.0])
        state.step([w])
        expected = np.array([0.5 - 1e-3, -0.25 + 1e-3])
        assert np.abs(w.value - expected).max() < 1e-3 * 1e-6

    def test_zero_grad_is_noop(self):
        state = AdamState()
        w = Param(np.array([1.0, 2.0]))
        for _ in range(5):
            state.step([w])
        assert np.array_equal(w.value, np.array([1.0, 2.0]))

    def test_converges_on_quadratic(self):
        state = AdamState(lr=0.1)
        w = Param(np.array([0.0]))
        for _ in range(200):
            w.grad[...] = 2.0 * (w.value - 3.0)
            state.step([w])
        assert abs(w.value[0] - 3.0) < 0.05

    def test_shape_mismatch(self):
        state = AdamState()
        state.step([Param(np.zeros(3))])
        with pytest.raises(ShapeError):
            state.step([Param(np.zeros(4))])

    def test_fresh_params_after_first_step_rejected(self):
        state = AdamState(lr=0.1)
        packed = [Param(np.ones(3)), Param(np.ones((2, 2)))]
        for p in packed:
            p.grad[...] = 1.0
        state.step(packed)
        before = [p.value.copy() for p in packed]
        fresh = [Param(np.ones(3)), Param(np.ones((2, 2)))]
        for p in fresh:
            p.grad[...] = 1.0
        with pytest.raises(ShapeError):
            state.step(fresh)
        with pytest.raises(ShapeError):
            state.zero_grad(fresh)
        assert all(np.array_equal(p.value, b) for p, b in zip(packed, before))
        assert all((p.value == 1.0).all() for p in fresh)
        assert state.t == 1

    def test_rebound_value_rejected(self):
        state = AdamState()
        w = Param(np.zeros(3))
        state.step([w])
        w.value = np.ones(3)
        with pytest.raises(ShapeError):
            state.step([w])

    def test_zero_grad_is_one_fill_over_views(self):
        state = AdamState()
        params = [Param(np.ones(3)), Param(np.ones((2, 4)))]
        for p in params:
            p.grad[...] = 5.0
        state.zero_grad(params)
        assert all(not p.grad.any() for p in params)
        # packed arrays keep their shapes and live in one shared vector
        assert [p.value.shape for p in params] == [(3,), (2, 4)]
        assert params[0].value.base is params[1].value.base is not None
        assert np.array_equal(params[1].value, np.ones((2, 4)))

    def test_bitwise_equal_to_per_array_reference(self):
        # the 2-D quick-start model: head depth 2, 60 parameter arrays
        packed = CccpDeModel(2, 2, head_depth=2, rng=Rng(5)).params()
        looped = CccpDeModel(2, 2, head_depth=2, rng=Rng(5)).params()
        assert len(packed) == 60
        state, reference = AdamState(), ReferenceAdam()
        rng = Rng(10)
        for _ in range(20):
            for a, b in zip(packed, looped):
                g = rng.normals(a.grad.size).reshape(a.grad.shape)
                g *= 10.0 ** (6.0 * rng.uniforms(1)[0] - 4.0)
                a.grad[...] = g
                b.grad[...] = g
            state.step(packed)
            reference.step(looped)
        assert all(np.array_equal(a.value, b.value)
                   for a, b in zip(packed, looped))
        assert not all(np.array_equal(a.value, b.value) for a, b in zip(
            packed, CccpDeModel(2, 2, head_depth=2, rng=Rng(5)).params()))

    @pytest.mark.parametrize("size", [ADAM_CHUNK - 1, ADAM_CHUNK,
                                      ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 5,
                                      "quick-start"])
    def test_chunked_equals_six_vector_reference(self, size):
        def make():
            if size == "quick-start":  # 39,895 values in 60 arrays
                return CccpDeModel(2, 2, head_depth=2, rng=Rng(5)).params()
            # a long array and a short one: chunk ends fall inside arrays
            return [Param(Rng(6).normals(size - 7)), Param(np.ones((7, 1)))]

        chunked, six = make(), make()
        state, reference = AdamState(), SixVectorAdam()
        rng = Rng(11)
        for _ in range(4):
            for a, b in zip(chunked, six):
                g = rng.normals(a.grad.size).reshape(a.grad.shape)
                g *= 10.0 ** (6.0 * rng.uniforms(a.grad.size) - 4.0).reshape(
                    a.grad.shape)
                a.grad[...] = g
                b.grad[...] = g
            state.step(chunked)
            reference.step(six)
            assert all(np.array_equal(a.value, b.value)
                       for a, b in zip(chunked, six))
        assert np.array_equal(state._m, reference.m)
        assert np.array_equal(state._v, reference.v)


class TestDenseBlock:
    def test_inference_is_deterministic_and_rng_free(self):
        block = DenseBlock(3, 4, 0.5, Rng(44))
        x = Rng(45).normals(12).reshape(4, 3)
        a = block.forward(x)
        b = block.forward(x, rng=None, training=False)
        assert np.array_equal(a, b)

    def test_training_without_rng_rejected(self):
        block = DenseBlock(3, 4, 0.5, Rng(44))
        with pytest.raises(DomainError):
            block.forward(np.zeros((2, 3)), rng=None, training=True)

    def test_backward_matches_finite_differences(self):
        rng = Rng(50)
        block = DenseBlock(3, 4, 0.0, rng)
        x = rng.normals(15).reshape(5, 3)
        weights = rng.normals(20).reshape(5, 4)
        err = input_grad_err(lambda v: block.forward(v), block.backward,
                             x, weights)
        assert err < 1e-5

    def test_backward_through_fixed_dropout_mask(self):
        rng = Rng(51)
        block = DenseBlock(4, 4, 0.4, rng)
        x = rng.normals(24).reshape(6, 4)
        weights = rng.normals(24).reshape(6, 4)
        block.forward(x, Rng(99), training=True)
        mask = block._cache[0]
        scale = 1.0 / (1.0 - block.dropout_rate)

        def masked_pipeline(v):
            h = block.dense.forward(v * mask * scale)
            return activation("elu", block.norm.forward(h))

        fd = finite_diff_grad(
            lambda v: float((masked_pipeline(v) * weights).sum()), x.copy(), 1e-6)
        block.forward(x, Rng(99), training=True)  # same rng state, same mask
        assert np.array_equal(block._cache[0], mask)
        g = block.backward(weights)
        assert rel_err(fd, g) < 1e-5


def train_pair_outputs(layer, run):
    """`run(layer)`'s arrays and the layer's parameter gradients."""
    for p in layer.params():
        p.grad[...] = 0.0
    return list(run(layer)) + [p.grad.copy() for p in layer.params()]


def assert_lean_equals_reference(make, run):
    """The training pair of a fresh `make()` gives `run`'s outputs and every
    parameter gradient bit for bit as a twin run through the reference
    pairs that kept every pre-activation and a float dropout mask."""
    lean = train_pair_outputs(make(), run)
    with reference_training_pairs():
        ref = train_pair_outputs(make(), run)
    assert len(lean) == len(ref)
    assert all(np.array_equal(a, b) for a, b in zip(lean, ref))


class TestLeanCaches:
    """Each training cache holds only what its backward reads, and every
    output, input gradient and parameter gradient keeps its bits."""

    @pytest.mark.parametrize("tag", ACTIVATION_TAGS)
    def test_mlp(self, tag):
        x = 2.0 * Rng(90).normals(48).reshape(16, 3)
        upstream = Rng(91).normals(64).reshape(16, 4)

        def run(net):
            out = net.forward(x)
            return out, net.backward(upstream)

        assert_lean_equals_reference(
            lambda: MLP([3, 8, 8, 4], Rng(92), hidden_activation=tag,
                        output_activation=tag), run)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_dense_block(self, rate):
        x = Rng(93).normals(96).reshape(16, 6)
        upstream = Rng(94).normals(128).reshape(16, 8)

        def run(block):
            out = block.forward(x, Rng(95), training=True)
            return out, block.backward(upstream)

        assert_lean_equals_reference(lambda: DenseBlock(6, 8, rate, Rng(96)),
                                     run)

    def test_dense_block_keeps_a_boolean_mask(self):
        block = DenseBlock(6, 8, 0.3, Rng(96))
        block.forward(Rng(93).normals(96).reshape(16, 6), Rng(95),
                      training=True)
        assert block._cache[0].dtype == bool

    @pytest.mark.parametrize("dim", [2, 5])
    def test_coupling_layer(self, dim):
        x = Rng(97).normals(16 * dim).reshape(16, dim)
        g_y = Rng(98).normals(16 * dim).reshape(16, dim)
        g_log_det = Rng(99).normals(16)

        def run(layer):
            y, log_det = layer.forward(x)
            return y, log_det, layer.backward(g_y, g_log_det)

        assert_lean_equals_reference(
            lambda: random_coupling(dim, 8, Rng(100)), run)

    def test_three_quick_start_steps(self):
        # the 2-D quick-start model on its own data, batch 128, dropout on:
        # the chunked Adam and the lean caches against the six-vector Adam
        # and the replaced caches, parameters compared after every step
        train_set = preset_datasets("composite", 0, 4000, 100)["train"]
        lean = CccpDeModel(2, 2, head_depth=2, rng=Rng(5))
        ref = CccpDeModel(2, 2, head_depth=2, rng=Rng(5))
        lean.standardizer = ref.standardizer = Standardizer.fit(
            train_set.features)
        lean_adam, ref_adam = AdamState(), SixVectorAdam()
        lean_rng, ref_rng = Rng(6), Rng(6)
        for step in range(3):
            rows = slice(128 * step, 128 * (step + 1))
            x, y = train_set.features[rows], train_set.labels[rows]
            lean_adam.zero_grad(lean.params())
            lean_loss = lean.loss_and_grads(x, y, rng=lean_rng)
            lean_adam.step(lean.params())
            with reference_training_pairs():
                ref_adam.zero_grad(ref.params())
                ref_loss = reference_cccpde_loss_and_grads(ref, x, y, ref_rng)
                ref_adam.step(ref.params())
            assert lean_loss == ref_loss
            assert all(np.array_equal(a.value, b.value)
                       for a, b in zip(lean.params(), ref.params()))
        assert np.array_equal(lean_rng.uniforms(3), ref_rng.uniforms(3))


class TestInferenceCall:
    """`layer(x)` is the training forward's output, and stores nothing."""

    @pytest.mark.parametrize("make", [
        lambda rng: DenseLayer(3, 5, rng),
        lambda rng: LayerNorm(3),
        lambda rng: MLP([3, 6, 6, 2], rng, output_activation="tanh"),
        lambda rng: DenseBlock(3, 5, 0.3, rng),
    ])
    def test_call_equals_forward_and_keeps_caches(self, make):
        layer = make(Rng(62))
        x = Rng(63).normals(12).reshape(4, 3)
        out = layer.forward(x)
        upstream = Rng(64).normals(out.size).reshape(out.shape)
        g_ref = layer.backward(upstream)
        layer.forward(x)
        assert np.array_equal(layer(x), out)
        layer(Rng(65).normals(21).reshape(7, 3))
        assert np.array_equal(layer.backward(upstream), g_ref)


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, BLOCK_ROWS + 2,
                                   3 * BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
    def test_blocks_tile_the_rows(self, n):
        blocks = row_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        for before, after in zip(blocks, blocks[1:]):
            assert before.stop == after.start
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= BLOCK_ROWS + 1
        # a one-row block exists only for a one-row input
        assert n == 1 or 1 not in sizes


class TestSigmoidHead:
    def test_loss_is_bce_of_call(self):
        # without dropout the training pass computes the inference logits
        head = SigmoidHead(3, 5, 2, 0.0, Rng(66))
        x = Rng(67).normals(18).reshape(6, 3)
        y = np.array([0, 1, 1, 0, 1, 0])
        loss, _ = head.loss_and_grads(x, y, None)
        assert loss == bce_with_logits(head.logits(x), y)[0]
        assert np.array_equal(head(x), activation("sigmoid", head.logits(x)))

    def test_gradients_match_finite_differences(self):
        head = SigmoidHead(3, 5, 2, 0.0, Rng(68))
        x = Rng(69).normals(18).reshape(6, 3)
        y = np.array([0, 1, 1, 0, 1, 0])

        def loss(v=x):
            return bce_with_logits(head.logits(v), y)[0]

        assert worst_param_grad_err(
            head.params(),
            lambda: head.loss_and_grads(x, y, None),
            loss) < 1e-5
        fd = finite_diff_grad(loss, x.copy(), 1e-6)
        _, g = head.loss_and_grads(x, y, None)
        assert rel_err(fd, g) < 1e-5

    def test_saturated_logits_match_softplus_finite_differences(self):
        # logits of 20 and more, every label on the wrong side: a clipped
        # probability loss would return zero gradients here
        head = SigmoidHead(3, 5, 2, 0.0, Rng(70))
        x = Rng(71).normals(18).reshape(6, 3)
        head.out.bias.value[...] = 0.0
        head.out.weight.value *= 30.0 / np.abs(head.logits(x)).min()
        logits = head.logits(x)
        assert np.abs(logits).min() >= 20.0 and (logits > 0).any() \
            and (logits < 0).any()
        y = (logits < 0).astype(float)

        def loss(v=x):
            return softplus_bce(head.logits(v), y)

        assert worst_param_grad_err(
            head.params(),
            lambda: head.loss_and_grads(x, y, None),
            loss) < 1e-5
        fd = finite_diff_grad(loss, x.copy(), 1e-6)
        _, g = head.loss_and_grads(x, y, None)
        assert rel_err(fd, g) < 1e-5


class TestBackwardProperty:
    """Randomized configurations per layer type against the oracle."""

    def test_dense_layers(self):
        rng = Rng(60)
        for _ in range(20):
            n_in = 1 + rng_randint_below(rng, 6)
            n_out = 1 + rng_randint_below(rng, 6)
            rows = 1 + rng_randint_below(rng, 5)
            layer = DenseLayer(n_in, n_out, rng)
            x = rng.normals(rows * n_in).reshape(rows, n_in)
            weights = rng.normals(rows * n_out).reshape(rows, n_out)
            assert input_grad_err(layer.forward, layer.backward, x, weights) < 1e-5

    def test_layer_norms(self):
        rng = Rng(61)
        for _ in range(20):
            dim = 2 + rng_randint_below(rng, 7)
            rows = 1 + rng_randint_below(rng, 5)
            norm = LayerNorm(dim)
            norm.gain.value[...] = 1.0 + 0.2 * rng.normals(dim)
            x = rng.normals(rows * dim).reshape(rows, dim)
            weights = rng.normals(rows * dim).reshape(rows, dim)
            # a 1-row, dim-2 draw has an input gradient near 7e-6, which a
            # float64 central difference cannot resolve to 1e-5
            oracle = mp_central_diff_grad(
                lambda v: mp_weighted_layer_norm(v, norm, weights), x)
            norm.forward(x)
            assert rel_err(oracle, norm.backward(weights)) < 1e-5

    @pytest.mark.parametrize("out_act", ["identity", "tanh"])
    def test_mlps(self, out_act):
        rng = Rng(62)
        for _ in range(20):
            sizes = [1 + rng_randint_below(rng, 4) for _ in range(3)]
            net = MLP(sizes, rng, output_activation=out_act)
            rows = 1 + rng_randint_below(rng, 4)
            x = rng.normals(rows * sizes[0]).reshape(rows, sizes[0])
            weights = rng.normals(rows * sizes[-1]).reshape(rows, sizes[-1])

            def run_backward():
                net.forward(x)
                net.backward(weights)

            def eval_loss():
                return float((net.forward(x) * weights).sum())

            assert input_grad_err(net.forward, net.backward, x, weights) < 1e-5
            assert worst_param_grad_err(net.params(), run_backward,
                                        eval_loss) < 1e-5
