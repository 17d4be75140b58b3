"""Deterministic RNG and special functions.

Randomness comes from the raw 64-bit stream of numpy's PCG64 generator,
which is identical on every platform and numpy version for a given seed;
subsystems obtain their own streams through `derive_seed`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

LOG_TWO_PI = math.log(2.0 * math.pi)

_MASK64 = (1 << 64) - 1
_DOUBLE_SCALE = 1.0 / (1 << 53)
# draws per block of `Rng.normals`; even, so every block holds whole pairs
NORMAL_BLOCK = 8192


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, label: str) -> int:
    """Derive a subsystem seed from a root seed and a fixed label."""
    h = 0xCBF29CE484222325  # FNV-1a
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    state, z = _splitmix64(seed & _MASK64)
    _, out = _splitmix64((z ^ h) & _MASK64)
    return out


class Rng:
    """numpy's PCG64 generator, read only through its raw 64-bit stream.

    Every draw is plain arithmetic on `random_raw`, so it inherits that
    stream's stability across platforms and numpy versions. One Rng is
    owned by one thread of control; concurrent callers derive independent
    instances via `derive_seed`. Normal variates come from Box-Muller on
    the uniform stream, consumed in pairs.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._bits = np.random.PCG64(self.seed)

    def _raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise DomainError(f"draw count must be nonnegative, got {n}")
        return self._bits.random_raw(n)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1), each from the top 53 bits of one raw draw."""
        return (self._raw(n) >> 11) * _DOUBLE_SCALE

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal draws via Box-Muller on paired uniforms.

        The uniforms are drawn and transformed NORMAL_BLOCK at a time into
        one preallocated output, in stream order, so the temporaries stay
        block-sized. An odd n consumes n + 1 uniforms and drops the sine of
        the last pair.
        """
        if n < 0:
            raise DomainError(f"draw count must be nonnegative, got {n}")
        z = np.empty(n + n % 2)
        for start in range(0, z.size, NORMAL_BLOCK):
            block = z[start:start + NORMAL_BLOCK]
            u = self.uniforms(block.size)
            radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))  # 1 - u in (0, 1]
            angle = (2.0 * math.pi) * u[1::2]
            block[0::2] = radius * np.cos(angle)
            block[1::2] = radius * np.sin(angle)
        return z[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n): the order of n raw draws."""
        return np.argsort(self._raw(n), kind="stable")


# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-06,
    1.5056327351493116e-07,
)


def log_gamma(x):
    """ln Gamma(x) for x > 0, elementwise; a float for scalar input."""
    x = np.asarray(x, dtype=np.float64)
    bad = ~(x > 0)
    if bad.any():
        raise DomainError(f"log_gamma requires x > 0, got {x.flat[np.argmax(bad)]}")
    # reflection keeps the series on its accurate range
    reflect = x < 0.5
    z = np.where(reflect, 1.0 - x, x) - 1.0
    acc = np.full_like(z, _LANCZOS_COEFFS[0])
    for i in range(1, 9):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = 0.5 * LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(acc)
    small = np.where(reflect, x, 0.5)
    out = np.where(reflect, np.log(np.pi / np.sin(np.pi * small)) - out, out)
    return float(out) if out.ndim == 0 else out


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along an axis, safe against -inf rows."""
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out)
    return np.squeeze(out, axis=axis)
