"""Invertible affine coupling layers and stacks.

Direction convention: `forward` maps data space to latent space and returns
the log-determinant of that forward map, so a stack's log-density is

    log p(x) = log N(z; 0, I) + sum of per-layer forward log-dets

with z the stacked forward image of x. Sampling inverts the stack on
standard-normal draws. Each layer permutes its input, passes the first
`dim // 2` coordinates through unchanged, and affinely transforms the rest
with scale/shift networks fed by the untouched half; the scale net ends in
tanh so per-layer stretching stays within a factor of e.

Calling a layer or stack, `layer(x)`, is the pure inference pass and
stores nothing; `inverse` is pure too. `forward`/`backward` are the
training pair: `forward` computes what `layer(x)` computes and keeps what
`backward` needs on the layer until the next `forward`: the transformed
half of the permuted input (a view, so the permuted input stays alive) and
exp(scale), while the scale and shift nets keep their own MLP caches (see
`cccpde.nn`). A stack keeps nothing beyond its layers' caches.

A stack's pure calls, `stack(x)` and `stack.inverse(z)`, run the rows in
blocks of `nn.BLOCK_ROWS` (`nn.row_blocks`): each block passes through every
layer and lands in a preallocated full-size output. Every layer maps each
row on its own, so peak memory is bounded by the block, not the row count,
and the result is the one-pass result bit for bit wherever BLAS rounds a
row the same in any batch. OpenBLAS does for every layer of the 2-D and
16-D models at width 64; for conditioner outputs 2 to 4 wide (dims 3 to 8)
it switches kernels once a product passes about 1e6 multiply-adds, so
there a one-pass result over some thousands of rows can differ in the last
bit.
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


class CouplingLayer:
    """One invertible coupling transform with a fixed input permutation."""

    def __init__(self, dim: int, hidden: int, rng: Rng | None = None,
                 zero_init_outputs: bool = True):
        if dim < 2:
            raise DomainError(f"coupling layers need dim >= 2, got {dim}")
        self.dim = dim
        self.split = dim // 2
        if rng is None:
            self.perm = np.arange(dim, dtype=np.int64)
        else:
            self.perm = rng.permutation(dim)
        out = dim - self.split
        self.scale_net = MLP([self.split, hidden, hidden, out], rng,
                             output_activation="tanh",
                             zero_init_last=zero_init_outputs)
        self.shift_net = MLP([self.split, hidden, hidden, out], rng,
                             output_activation="identity",
                             zero_init_last=zero_init_outputs)
        self._cache = None

    @property
    def inv_perm(self) -> np.ndarray:
        return np.argsort(self.perm)

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(
                f"coupling layer has dim {self.dim}, got input {x.shape}")

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Data -> latent; returns (y, per-row log-det)."""
        self._check(x)
        xp = x[:, self.perm]
        left = xp[:, :self.split]
        scale = self.scale_net(left)
        shift = self.shift_net(left)
        y = np.concatenate([left, xp[:, self.split:] * np.exp(scale) + shift],
                           axis=1)
        return y, scale.sum(axis=1)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._check(x)
        xp = x[:, self.perm]
        left = xp[:, :self.split]
        right = xp[:, self.split:]
        scale = self.scale_net.forward(left)
        shift = self.shift_net.forward(left)
        stretched = np.exp(scale)
        y = np.concatenate([left, right * stretched + shift], axis=1)
        self._cache = (right, stretched)
        return y, scale.sum(axis=1)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Exact algebraic inverse of the data -> latent map."""
        self._check(y)
        left = y[:, :self.split]
        right = y[:, self.split:]
        scale = self.scale_net(left)
        shift = self.shift_net(left)
        xp = np.concatenate([left, (right - shift) * np.exp(-scale)], axis=1)
        return xp[:, self.inv_perm]

    def backward(self, g_y: np.ndarray,
                 g_log_det: np.ndarray) -> np.ndarray:
        """Reverse-mode pass; valid only right after forward."""
        right, stretched = self._cache
        g_left = g_y[:, :self.split].copy()
        g_right_out = g_y[:, self.split:]
        g_scale = g_right_out * right * stretched + g_log_det[:, None]
        g_left += self.scale_net.backward(g_scale)
        g_left += self.shift_net.backward(g_right_out)
        g_perm = np.concatenate([g_left, g_right_out * stretched], axis=1)
        return g_perm[:, self.inv_perm]

    def params(self) -> list[Param]:
        return self.scale_net.params() + self.shift_net.params()


class FlowStack:
    """An ordered composition of coupling layers sharing one dimension."""

    def __init__(self, dim: int, layers: list[CouplingLayer]):
        for layer in layers:
            if layer.dim != dim:
                raise ShapeError(
                    f"stack dim {dim} != layer dim {layer.dim}")
        self.dim = dim
        self.layers = list(layers)

    @classmethod
    def build(cls, dim: int, depth: int, hidden: int, rng: Rng | None = None,
              zero_init_outputs: bool = True) -> "FlowStack":
        return cls(dim, [
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
