"""Invertible affine coupling layers and stacks.

Direction convention: `forward` maps data space to latent space and returns
the log-determinant of that forward map, so a stack's log-density is

    log p(x) = log N(z; 0, I) + sum of per-layer forward log-dets

with z the stacked forward image of x. Sampling inverts the stack on
standard-normal draws. Each coupling layer reverses its input (Glow's
fixed "reverse" order), passes the first `dim // 2` coordinates through
unchanged, and affinely transforms the rest by the scale and shift that
one conditioner net emits from the untouched half; the scale is a tanh,
so per-layer stretching stays within a factor of e.

Calling a layer or stack, `layer(x)`, is the pure inference pass and
stores nothing; `inverse` is pure too. `forward`/`backward` are the
training pair: `forward` computes what `layer(x)` computes and keeps what
`backward` needs on the layer until the next `forward`: the transformed
half of the reversed input (a view of the input), scale and exp(scale),
while the conditioner keeps its MLP cache (`cccpde.nn`). A stack keeps
nothing beyond its layers' caches.

A stack's pure calls, `stack(x)` and `stack.inverse(z)`, run the rows in
blocks of `nn.BLOCK_ROWS` (`nn.row_blocks`): each block passes through every
layer and lands in a preallocated full-size output. Every layer maps each
row on its own, so peak memory is bounded by the block, not the row count,
and the result is the one-pass result bit for bit wherever BLAS rounds a
row the same in any batch. At width 64 OpenBLAS does for conditioner
outputs 6, 8, 14 and 16 wide (dims 5-8 and 13-16, the 16-D model among
them); for outputs 2, 4, 10 and 12 wide (dims 2-4 and 9-12, the 2-D model
among them) it switches kernels once a product passes about 1e6
multiply-adds, so there a one-pass result over some thousands of rows
(7,900 at dim 2) can differ in the last bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .nn import MLP, Param, Rng, row_blocks
from .numerics import LOG_TWO_PI


def gaussian_logpdf(z: np.ndarray) -> np.ndarray:
    """Per-row log density of the unit isotropic Gaussian; -inf where z * z
    overflows, as on rows far outside the data."""
    with np.errstate(over="ignore"):
        return -0.5 * z.shape[1] * LOG_TWO_PI - 0.5 * (z * z).sum(axis=1)


def coupling_widths(dim: int, hidden: int) -> list[int]:
    """Widths, end to end, of a coupling layer's conditioner net: the
    untouched half in, the transformed half's scales then shifts out."""
    return [dim // 2, hidden, hidden, 2 * (dim - dim // 2)]


class ElementwiseAffine:
    """h = (x - shift) * exp(-log_scale), log-det -sum(log_scale): a class
    head's input map, the identity until `train` fits it to the class."""

    def __init__(self, dim: int):
        self.dim = dim
        self.shift, self.log_scale = Param(np.zeros(dim)), Param(np.zeros(dim))
        self._out = None

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = self.log_scale.value
        return (x - self.shift.value) * np.exp(-s), np.full(x.shape[0], -s.sum())

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._out, log_det = self(x)
        return self._out, log_det

    def inverse(self, y: np.ndarray) -> np.ndarray:
        return y * np.exp(self.log_scale.value) + self.shift.value

    def backward(self, g_y: np.ndarray, g_log_det: np.ndarray) -> np.ndarray:
        g_x = g_y * np.exp(-self.log_scale.value)
        self.shift.grad -= g_x.sum(axis=0)
        self.log_scale.grad -= (g_y * self._out).sum(axis=0) + g_log_det.sum()
        return g_x

    def params(self) -> list[Param]:
        return [self.shift, self.log_scale]


class CouplingLayer:
    """One invertible coupling transform of the reversed input."""

    def __init__(self, dim: int, hidden: int, rng: Rng | None = None,
                 zero_init_outputs: bool = True):
        if dim < 2:
            raise DomainError(f"coupling layers need dim >= 2, got {dim}")
        self.dim = dim
        self.split = dim // 2
        self.net = MLP(coupling_widths(dim, hidden), rng,
                       zero_init_last=zero_init_outputs)
        self._cache = None

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(
                f"coupling layer has dim {self.dim}, got input {x.shape}")

    def _map(self, x: np.ndarray, net) -> tuple:
        """(y, per-row log-det, backward cache); `net` runs the conditioner."""
        self._check(x)
        xp = x[:, ::-1]
        left, right = xp[:, :self.split], xp[:, self.split:]
        out, k = net(left), right.shape[1]
        scale = np.tanh(out[:, :k])
        stretched = np.exp(scale)
        y = np.concatenate([left, right * stretched + out[:, k:]], axis=1)
        return y, scale.sum(axis=1), (right, scale, stretched)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Data -> latent; returns (y, per-row log-det)."""
        return self._map(x, self.net)[:2]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y, log_det, self._cache = self._map(x, self.net.forward)
        return y, log_det

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Exact algebraic inverse of the data -> latent map."""
        self._check(y)
        left, right = y[:, :self.split], y[:, self.split:]
        out, k = self.net(left), right.shape[1]
        xp = np.concatenate(
            [left, (right - out[:, k:]) * np.exp(-np.tanh(out[:, :k]))], axis=1)
        return xp[:, ::-1]

    def backward(self, g_y: np.ndarray, g_log_det: np.ndarray) -> np.ndarray:
        """Reverse-mode pass; valid only right after forward."""
        right, scale, stretched = self._cache
        g_right_out = g_y[:, self.split:]
        g_scale = g_right_out * right * stretched + g_log_det[:, None]
        g_left = g_y[:, :self.split] + self.net.backward(np.concatenate(
            [g_scale * (1.0 - scale * scale), g_right_out], axis=1))
        g_xp = np.concatenate([g_left, g_right_out * stretched], axis=1)
        return g_xp[:, ::-1]

    def params(self) -> list[Param]:
        return self.net.params()


class FlowStack:
    """An ordered composition of flow layers sharing one dimension."""

    def __init__(self, dim: int, layers: list):
        for layer in layers:
            if layer.dim != dim:
                raise ShapeError(f"stack dim {dim} != layer dim {layer.dim}")
        self.dim = dim
        self.layers = list(layers)

    @classmethod
    def build(cls, dim: int, depth: int, hidden: int, rng: Rng | None = None,
              zero_init_outputs: bool = True,
              input_affine: bool = False) -> "FlowStack":
        first = [ElementwiseAffine(dim)] if input_affine else []
        return cls(dim, first + [
            CouplingLayer(dim, hidden, rng, zero_init_outputs=zero_init_outputs)
            for _ in range(depth)
        ])

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"stack has dim {self.dim}, got input {x.shape}")

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Data -> latent, one row block at a time; returns (z, summed
        per-row log-det)."""
        self._check(x)
        z = np.empty(x.shape)
        log_det = np.zeros(x.shape[0])
        for rows in row_blocks(x.shape[0]):
            h = x[rows]
            for layer in self.layers:
                h, ld = layer(h)
                log_det[rows] += ld
            z[rows] = h
        return z, log_det

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._check(x)
        log_det = np.zeros(x.shape[0])
        h = x
        for layer in self.layers:
            h, ld = layer.forward(h)
            log_det += ld
        return h, log_det

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Latent -> data, one row block at a time."""
        self._check(z)
        x = np.empty(z.shape)
        for rows in row_blocks(z.shape[0]):
            h = z[rows]
            for layer in reversed(self.layers):
                h = layer.inverse(h)
            x[rows] = h
        return x

    def backward(self, g_z: np.ndarray, g_log_det: np.ndarray) -> np.ndarray:
        # every layer's log-det enters the total additively, so each layer
        # sees the same upstream log-det gradient
        g = g_z
        for layer in reversed(self.layers):
            g = layer.backward(g, g_log_det)
        return g

    def sample(self, rng: Rng, n: int) -> np.ndarray:
        """Invert the stack on n standard-normal latent draws."""
        if n < 1:
            raise DomainError(f"sample count must be >= 1, got {n}")
        z = rng.normals(n * self.dim).reshape(n, self.dim)
        return self.inverse(z)

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]
