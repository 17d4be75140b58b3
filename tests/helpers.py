"""Shared test utilities: error metrics, gradient oracles, AUC brute force,
and the masked activations and per-array Adam that `cccpde.nn` replaced,
kept as bit-exact references."""

from __future__ import annotations

import mpmath as mp
import numpy as np

from cccpde.nn import LEAKY_SLOPE
from cccpde.numerics import finite_diff_grad


def rel_err(a, b) -> float:
    """Max absolute difference scaled by the larger operand magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def worst_param_grad_err(params, run_backward, eval_loss, h=1e-6) -> float:
    """Analytic parameter gradients vs central differences, worst case."""
    for p in params:
        p.grad[...] = 0.0
    run_backward()
    worst = 0.0
    for p in params:
        def f(v, p=p):
            old = p.value.copy()
            p.value[...] = v
            out = eval_loss()
            p.value[...] = old
            return out
        fd = finite_diff_grad(f, p.value.copy(), h)
        worst = max(worst, rel_err(fd, p.grad))
    return worst


def input_grad_err(forward, backward, x, weights, h=1e-6) -> float:
    """Input gradient of sum(weights * forward(x)) vs central differences.

    The finite-difference sweep runs first because forward passes clobber
    layer caches; the canonical forward/backward pair runs after.
    """
    def f(v):
        return float((forward(v) * weights).sum())

    fd = finite_diff_grad(f, x.copy(), h)
    forward(x)
    g = backward(weights)
    return rel_err(fd, g)


def mp_central_diff_grad(f, x, dps=50) -> np.ndarray:
    """Gradient of f at x by mpmath central differences (`mp.diff`).

    f takes the entries of x, flattened row-major, as a list of mpmath
    numbers and returns one. At `dps` digits the difference keeps the
    leading digits of a gradient far below the function's magnitude,
    which a float64 step of 1e-6 loses to cancellation.
    """
    with mp.workdps(dps):
        point = [mp.mpf(float(v)) for v in np.ravel(x)]
        grad = [
            float(mp.diff(lambda t, i=i: f(point[:i] + [t] + point[i + 1:]),
                          point[i]))
            for i in range(len(point))
        ]
    return np.array(grad).reshape(np.shape(x))


def auc_bruteforce(scores, labels) -> float:
    """Pair-counting AUC: correctly ordered pairs plus half credit on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def constant_coupling(dim, scale_value, shift_value, hidden=4):
    """Coupling layer with constant scale/shift and identity permutation."""
    from cccpde.flow import CouplingLayer

    layer = CouplingLayer(dim, hidden, rng=None)
    layer.scale_net.layers[-1].bias.value[...] = np.arctanh(scale_value)
    layer.shift_net.layers[-1].bias.value[...] = shift_value
    return layer


def random_coupling(dim, hidden, rng, split=None):
    """Coupling layer with randomized (non-identity) transform weights."""
    from cccpde.flow import CouplingLayer

    return CouplingLayer(dim, hidden, rng, split=split, zero_init_outputs=False)


def numerical_coupling_logdet(layer, x_row, h=1e-6) -> float:
    """log |det| of the layer Jacobian at one point, by central differences."""
    dim = layer.dim
    jac = np.zeros((dim, dim))
    for j in range(dim):
        xp = x_row.copy()
        xm = x_row.copy()
        xp[j] += h
        xm[j] -= h
        yp, _ = layer.forward(xp[None, :])
        ym, _ = layer.forward(xm[None, :])
        jac[:, j] = (yp - ym)[0] / (2.0 * h)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign != 0  # permutation parity may flip the sign; magnitude matters
    return float(logdet)


def reference_activation(tag, x):
    """Activation by boolean-mask assignment, one branch per sign."""
    if tag == "identity":
        return x
    if tag == "tanh":
        return np.tanh(x)
    if tag == "sigmoid":
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    if tag == "elu":
        out = x.copy()
        neg = x < 0
        out[neg] = np.expm1(x[neg])
        return out
    if tag == "leaky_relu":
        out = x.copy()
        neg = x < 0
        out[neg] = LEAKY_SLOPE * x[neg]
        return out
    raise ValueError(tag)


def reference_activation_grad(tag, x, upstream):
    """Upstream times a derivative array filled by boolean-mask assignment."""
    if tag == "identity":
        return upstream
    if tag == "tanh":
        t = np.tanh(x)
        return upstream * (1.0 - t * t)
    if tag == "sigmoid":
        s = reference_activation("sigmoid", x)
        return upstream * s * (1.0 - s)
    if tag == "elu":
        d = np.ones_like(x)
        neg = x < 0
        d[neg] = np.exp(x[neg])
        return upstream * d
    if tag == "leaky_relu":
        d = np.ones_like(x)
        d[x < 0] = LEAKY_SLOPE
        return upstream * d
    raise ValueError(tag)


class ReferenceAdam:
    """Adam as a loop over the parameter arrays, one moment pair each."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.moments = None

    def step(self, params):
        if self.moments is None:
            self.moments = [(np.zeros_like(p.value), np.zeros_like(p.value))
                            for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, (m, v) in zip(params, self.moments):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
