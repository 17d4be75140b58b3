"""Trainable dense-network pieces: layers, activations, losses, Adam.

Calling a layer, `layer(x)`, is the pure inference pass: it returns the
output and stores nothing. `forward`/`backward` are the training pair:
`forward` computes the same output and keeps what `backward` needs on the
layer, and `backward` is valid only right after it. Every backward pass is
checked against central differences in the test suite. Layers accumulate
parameter gradients, so callers zero them before each optimizer step.

Each training cache holds only what its `backward` reads, and stays on the
layer until the next `forward` replaces it:
- `DenseLayer`: its input;
- `LayerNorm`: the standardized input and the per-row inverse deviation;
- `MLP`: per layer, the `activation_cache` of its activation: the boolean
  mask pre < 0 for leaky_relu, the output for tanh and sigmoid, the
  pre-activation for elu and nothing for identity (the post-activation
  is the next dense layer's input);
- `DenseBlock`: its boolean dropout keep mask (None without dropout) and
  its activation cache, the ELU pre-activation.

`SigmoidHead.logits`, like the flow stack's pure calls, runs its rows in
blocks of BLOCK_ROWS into one preallocated output: peak memory is bounded
by the block, and the logits equal a one-pass result bit for bit (see
`cccpde.flow` for the one BLAS caveat). Layers and the training pair stay
single-pass.

The classification loss, `bce_with_logits`, reads logits, never
probabilities, so its gradient has no clip and no dead zone.

Activations are branch-free numpy forms, bitwise equal to the per-sign
boolean-mask forms (kept as references in the tests) on every input, NaN
included. `AdamState` packs its Params into flat value and gradient
vectors on first use and keeps the two moments beside them; a step runs
ADAM_CHUNK values at a time through two chunk-sized scratch arrays. After
the first step, write parameters in place (`p.value[...] = v`) and never
rebind `p.value` or `p.grad`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import LOG_TWO_PI, Rng

LEAKY_SLOPE = 0.01
LAYER_NORM_EPS = 1e-5
# rows per block of a pure stack-level pass (`FlowStack` call and inverse,
# `SigmoidHead.logits`): each block runs through every layer before the next
# starts, so the hidden activations held at once never exceed this many rows.
# 512 was fastest of 256-4096 on a 22,500-row density grid and 20,000 16-D
# samples, within 1 MiB of the lowest peak RSS (sweep in CHANGES.md)
BLOCK_ROWS = 512
# values per chunk of an Adam step; its two scratch arrays hold one chunk.
# 16384 was fastest of 2048-32768 on the 2-D and 16-D quick-start models
# (sweep in CHANGES.md)
ADAM_CHUNK = 16384
# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ACTIVATION_TAGS = ("elu", "leaky_relu", "tanh", "sigmoid", "identity")


class Param:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def activation(tag: str, x: np.ndarray) -> np.ndarray:
    """Elementwise activation for one of ACTIVATION_TAGS."""
    if tag == "identity":
        return x
    if tag == "tanh":
        return np.tanh(x)
    if tag == "sigmoid":
        # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere; it never
        # overflows
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)
    if tag == "elu":
        # expm1 in place: one temporary the size of x, not two
        neg = np.minimum(x, 0.0)
        np.expm1(neg, out=neg)
        return np.where(x < 0, neg, x)
    if tag == "leaky_relu":
        # slope < 1, so the larger of x and slope * x is the leaky value;
        # taken in place, so the output is the only temporary
        out = LEAKY_SLOPE * x
        return np.maximum(out, x, out=out)
    raise DomainError(f"unknown activation tag: {tag!r}")


def activation_cache(tag: str, pre: np.ndarray,
                     out: np.ndarray | None) -> np.ndarray | None:
    """What `activation_backward` reads to differentiate out = activation(pre).

    The boolean mask pre < 0 for leaky_relu, the output for tanh and
    sigmoid (their derivatives are 1 - out^2 and out (1 - out)), the
    pre-activation for elu and nothing for identity.
    """
    if tag == "identity":
        return None
    if tag in ("tanh", "sigmoid"):
        return out
    if tag == "leaky_relu":
        return pre < 0
    if tag == "elu":
        return pre
    raise DomainError(f"unknown activation tag: {tag!r}")


def activation_backward(tag: str, cache: np.ndarray | None,
                        upstream: np.ndarray) -> np.ndarray:
    """Upstream gradient times the activation derivative, read from the
    `activation_cache` of the forward pass."""
    if tag == "identity":
        return upstream
    if tag == "tanh":
        return upstream * (1.0 - cache * cache)
    if tag == "sigmoid":
        return upstream * cache * (1.0 - cache)
    if tag == "elu":
        return upstream * np.where(cache < 0, np.exp(np.minimum(cache, 0.0)), 1.0)
    if tag == "leaky_relu":
        return upstream * np.where(cache, LEAKY_SLOPE, 1.0)
    raise DomainError(f"unknown activation tag: {tag!r}")


def row_blocks(n: int) -> list[slice]:
    """Slices of BLOCK_ROWS consecutive rows covering an n-row input.

    A one-row remainder joins the block before it: numpy computes a
    one-row product as a vector product, which rounds differently from the
    matrix product that computes the same row in a larger batch. n = 0
    gives one empty slice, so an empty input still meets every shape check.
    """
    starts = list(range(0, n, BLOCK_ROWS)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def glorot_uniform(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(fan_in * fan_out)
    return ((2.0 * u - 1.0) * bound).reshape(fan_in, fan_out)


class DenseLayer:
    """x @ W + b; `forward` caches the input for the backward pass."""

    def __init__(self, in_size: int, out_size: int, rng: Rng | None = None,
                 zero_init: bool = False):
        if zero_init or rng is None:
            w = np.zeros((in_size, out_size))
        else:
            w = glorot_uniform(rng, in_size, out_size)
        self.in_size = in_size
        self.out_size = out_size
        self.weight = Param(w)
        self.bias = Param(np.zeros(out_size))
        self._x: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_size:
            raise ShapeError(
                f"dense layer expects (n, {self.in_size}) input, got {x.shape}")
        return x @ self.weight.value + self.bias.value

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return self(x)

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        x = self._x
        self.weight.grad += x.T @ upstream
        self.bias.grad += upstream.sum(axis=0)
        return upstream @ self.weight.value.T

    def params(self) -> list[Param]:
        return [self.weight, self.bias]


class LayerNorm:
    """Per-row standardization followed by a learned affine map."""

    def __init__(self, dim: int):
        self.dim = dim
        self.gain = Param(np.ones(dim))
        self.bias = Param(np.zeros(dim))
        self._cache = None

    @staticmethod
    def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        centered = x - x.mean(axis=1, keepdims=True)
        # population variance, bitwise equal to x.var(axis=1)
        var = (centered * centered).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        return centered * inv, inv

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # rows far outside the data overflow the variance to inf; their
        # inverse scale is then 0
        with np.errstate(over="ignore"):
            xhat = self._standardize(x)[0]
        return xhat * self.gain.value + self.bias.value

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = self._standardize(x)  # (xhat, inv)
        return self._cache[0] * self.gain.value + self.bias.value

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache
        self.gain.grad += (upstream * xhat).sum(axis=0)
        self.bias.grad += upstream.sum(axis=0)
        g = upstream * self.gain.value
        return inv * (
            g
            - g.mean(axis=1, keepdims=True)
            - xhat * (g * xhat).mean(axis=1, keepdims=True)
        )

    def params(self) -> list[Param]:
        return [self.gain, self.bias]


def dropout(x: np.ndarray, rate: float,
            rng: Rng | None) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: zero with probability `rate`, rescale survivors.

    Returns (output, boolean keep mask). Rate 0 is the identity and draws
    nothing from the rng; inference skips dropout in `DenseBlock`.
    """
    if not 0.0 <= rate < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x, np.ones(x.shape, dtype=bool)
    if rng is None:
        raise DomainError("dropout needs an rng")
    mask = rng.uniforms(x.size).reshape(x.shape) >= rate
    return x * mask / (1.0 - rate), mask


class DenseBlock:
    """Dropout, dense layer, layer norm, then ELU, in that order."""

    def __init__(self, in_size: int, out_size: int, dropout_rate: float,
                 rng: Rng | None = None):
        if not 0.0 <= dropout_rate < 1.0:
            raise DomainError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        self.dropout_rate = dropout_rate
        self.dense = DenseLayer(in_size, out_size, rng)
        self.norm = LayerNorm(out_size)
        self._cache = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Inference mode: no dropout."""
        return activation("elu", self.norm(self.dense(x)))

    def forward(self, x: np.ndarray, rng: Rng | None = None,
                training: bool = False) -> np.ndarray:
        if training and self.dropout_rate > 0.0:
            dropped, mask = dropout(x, self.dropout_rate, rng)
        else:
            dropped, mask = x, None
        pre = self.norm.forward(self.dense.forward(dropped))
        out = activation("elu", pre)
        self._cache = (mask, activation_cache("elu", pre, out))
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        mask, cache = self._cache
        g = activation_backward("elu", cache, upstream)
        g = self.dense.backward(self.norm.backward(g))
        if mask is not None:
            g = g * mask / (1.0 - self.dropout_rate)
        return g

    def params(self) -> list[Param]:
        return self.dense.params() + self.norm.params()


class MLP:
    """Plain dense stack with per-layer activations.

    `sizes` lists the layer widths end to end; hidden layers share one
    activation and the last layer gets its own. Used for the coupling
    scale/shift nets and small regression heads.
    """

    def __init__(self, sizes: list[int], rng: Rng | None = None,
                 hidden_activation: str = "leaky_relu",
                 output_activation: str = "identity",
                 zero_init_last: bool = False):
        if len(sizes) < 2:
            raise DomainError("MLP needs at least an input and an output size")
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        last = len(sizes) - 2
        self.layers = [
            DenseLayer(sizes[i], sizes[i + 1], rng,
                       zero_init=(zero_init_last and i == last))
            for i in range(len(sizes) - 1)
        ]
        self._caches: list[np.ndarray | None] | None = None

    def _tag(self, i: int) -> str:
        return self.output_activation if i == len(self.layers) - 1 \
            else self.hidden_activation

    def __call__(self, x: np.ndarray) -> np.ndarray:
        h = x
        for i, layer in enumerate(self.layers):
            h = activation(self._tag(i), layer(h))
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:
        # the dense layers keep their inputs and each activation its
        # `activation_cache`, so a pre-activation outlives its loop step
        # only where backward reads it (elu)
        caches = []
        h = x
        for i, layer in enumerate(self.layers):
            pre = layer.forward(h)
            h = activation(self._tag(i), pre)
            caches.append(activation_cache(self._tag(i), pre, h))
        self._caches = caches
        return h

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        g = upstream
        for i in reversed(range(len(self.layers))):
            g = activation_backward(self._tag(i), self._caches[i], g)
            g = self.layers[i].backward(g)
        return g

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]


class SigmoidHead:
    """Dense blocks, then a dense layer to one logit, then a sigmoid."""

    def __init__(self, in_size: int, hidden: int, n_blocks: int,
                 dropout_rate: float, rng: Rng | None = None):
        sizes = [in_size] + [hidden] * n_blocks
        self.blocks = [
            DenseBlock(sizes[i], sizes[i + 1], dropout_rate, rng)
            for i in range(n_blocks)
        ]
        self.out = DenseLayer(hidden, 1, rng)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Per-row logits, inference mode, one row block at a time."""
        out = np.empty(x.shape[0])
        for rows in row_blocks(x.shape[0]):
            h = x[rows]
            for block in self.blocks:
                h = block(h)
            out[rows] = self.out(h).ravel()
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Per-row probabilities, inference mode."""
        return activation("sigmoid", self.logits(x))

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       rng: Rng | None) -> tuple[float, np.ndarray]:
        """Training-mode BCE against labels y; accumulates the parameter
        gradients of the BCE and returns (BCE, its gradient wrt x)."""
        h = x
        for block in self.blocks:
            h = block.forward(h, rng, training=True)
        loss, grad = bce_with_logits(self.out.forward(h).ravel(), y)
        g = self.out.backward(grad[:, None])
        for block in reversed(self.blocks):
            g = block.backward(g)
        return loss, g

    def params(self) -> list[Param]:
        out = [p for block in self.blocks for p in block.params()]
        return out + self.out.params()


def bce_with_logits(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE of sigmoid(l) against labels y: mean(log(1 + e^l) - y l),
    with logaddexp(0, l) so no logit overflows, and its exact gradient
    (sigmoid(l) - y) / n at every logit, saturated ones included."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if logits.shape != y.shape:
        raise ShapeError(f"logit shape {logits.shape} != label shape {y.shape}")
    loss = float(np.mean(np.logaddexp(0.0, logits) - y * logits))
    return loss, (activation("sigmoid", logits) - y) / logits.size


def gaussian_nll_loss(mu: np.ndarray, log_var: np.ndarray,
                      y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean Gaussian negative log likelihood with a log-variance head.

    Per sample: 0.5*(log 2 pi + log_var) + (y - mu)^2 / (2 exp(log_var)).
    Returns (loss, d/d mu, d/d log_var).
    """
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if mu.shape != log_var.shape or mu.shape != y.shape:
        raise ShapeError(
            f"shapes disagree: mu {mu.shape}, log_var {log_var.shape}, y {y.shape}")
    var = np.exp(log_var)
    resid = y - mu
    per = 0.5 * (LOG_TWO_PI + log_var) + resid * resid / (2.0 * var)
    n = mu.size
    loss = float(per.mean())
    grad_mu = (mu - y) / var / n
    grad_log_var = 0.5 * (1.0 - resid * resid / var) / n
    return loss, grad_mu, grad_log_var


class AdamState:
    """Adam with bias correction over one flat parameter vector.

    The first `step` or `zero_grad` packs the given Params: every value
    and gradient is copied into one of two contiguous vectors, and each
    Param then holds views into them, so a step is one in-place update of
    the whole model and zeroing the gradients is one fill. From then on
    every call must pass the same Params, and their arrays must be written
    in place (`p.value[...] = v`, `p.grad += g`) and never rebound; a
    rebound or foreign Param raises ShapeError.

    The state is four flat vectors, value, grad and the two moments m and
    v, plus two scratch arrays of ADAM_CHUNK values: a step updates the
    vectors one chunk at a time, so its temporaries never grow with the
    model.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self._views: list[tuple[np.ndarray, np.ndarray]] | None = None

    def _pack(self, params: list[Param]) -> None:
        """Pack on first use; afterwards check that `params` are the packed ones."""
        if self._views is not None:
            if len(params) != len(self._views) or any(
                    p.value is not value or p.grad is not grad
                    for p, (value, grad) in zip(params, self._views)):
                raise ShapeError(
                    "Adam was given other parameter arrays than on its first "
                    "step; write parameters in place, never rebind them")
            return
        self._value = np.concatenate([p.value.ravel() for p in params] or [[]])
        self._grad = np.concatenate([p.grad.ravel() for p in params] or [[]])
        self._m = np.zeros_like(self._value)
        self._v = np.zeros_like(self._value)
        chunk = min(ADAM_CHUNK, self._value.size)
        self._a, self._b = np.empty(chunk), np.empty(chunk)
        start = 0
        for p in params:
            end = start + p.value.size
            p.value = self._value[start:end].reshape(p.value.shape)
            p.grad = self._grad[start:end].reshape(p.grad.shape)
            start = end
        self._views = [(p.value, p.grad) for p in params]

    def zero_grad(self, params: list[Param]) -> None:
        """Zero every gradient of `params` with one fill."""
        self._pack(params)
        self._grad.fill(0.0)

    def step(self, params: list[Param]) -> None:
        """One update of every parameter from its accumulated gradient.

        Same arithmetic, in the same order, as the per-array update
        value -= lr * (m / c1) / (sqrt(v / c2) + eps).
        """
        self._pack(params)
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        keep1, keep2 = 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2
        for start in range(0, self._value.size, ADAM_CHUNK):
            part = slice(start, start + ADAM_CHUNK)
            g, m, v = self._grad[part], self._m[part], self._v[part]
            a, b = self._a[:g.size], self._b[:g.size]
            m *= ADAM_BETA1
            np.multiply(g, keep1, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(g, g, out=a)
            a *= keep2
            v += a
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            self._value[part] -= a
