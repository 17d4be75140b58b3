"""Shared test utilities: error metrics, the finite-difference gradient
and Monte Carlo pseudo-count oracles, AUC brute force, perturbed models and
a strategy for rows far outside the data, and code the package
replaced, kept as bit-exact references: the masked activations, the
per-array and the six-vector Adam, the training pairs that cached every
pre-activation, the training loop that evaluated the full set after every
epoch, one-shot normals, one-pass inference and the per-scalar CSV
formatters."""

from __future__ import annotations

import math
from contextlib import contextmanager

import mpmath as mp
import numpy as np
from hypothesis import strategies as st

from cccpde.bayes import OVERFLOW_LOG, UNDERFLOW_LOG
from cccpde.data import Standardizer
from cccpde.errors import DomainError, NumericError
from cccpde.flow import gaussian_logpdf
from cccpde.model import CccpDeModel
from cccpde.nn import LAYER_NORM_EPS, LEAKY_SLOPE, AdamState, DenseBlock, MLP
from cccpde.numerics import Rng, log_gamma


def rel_err(a, b) -> float:
    """Max absolute difference scaled by the larger operand magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    if h <= 0:
        raise DomainError(f"finite_diff_grad requires h > 0, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = float(f(x))
        x[idx] = orig - h
        lo = float(f(x))
        x[idx] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite function value near index {idx}")
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def ball_volume(dim: int, radius: float) -> float:
    """Volume of the Euclidean ball of the given radius."""
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    return math.exp(0.5 * dim * math.log(math.pi) + dim * math.log(radius)
                    - log_gamma(0.5 * dim + 1.0))


def mc_count_estimate(log_density_fn, x: np.ndarray, radius: float,
                      n_draws: int, rng, class_count: float) -> float:
    """Monte Carlo estimate of expected same-class samples in a ball: the
    oracle for the pseudo-count c = V * N * p(x).

    Averages the density over uniform draws in the ball around x and
    multiplies by the ball volume and the class training count.
    """
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    if n_draws < 100:
        raise DomainError(f"need at least 100 draws, got {n_draws}")
    if class_count < 0:
        raise DomainError("class count must be nonnegative")
    if class_count == 0:
        return 0.0
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    dim = x.size
    dirs = rng.normals(n_draws * dim).reshape(n_draws, dim)
    norms = np.sqrt((dirs * dirs).sum(axis=1, keepdims=True))
    radii = radius * rng.uniforms(n_draws) ** (1.0 / dim)
    points = x[None, :] + dirs / norms * radii[:, None]
    log_p = np.asarray(log_density_fn(points), dtype=np.float64)
    dens = np.exp(np.clip(log_p, UNDERFLOW_LOG, OVERFLOW_LOG))
    return class_count * ball_volume(dim, radius) * float(dens.mean())


def stack_log_density(stack, x):
    """Per-row log p(x) of a flow stack under its unit-Gaussian latent."""
    z, log_det = stack(x)
    return gaussian_logpdf(z) + log_det


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
    """Pair-counting AUC: correctly ordered pairs plus half credit on ties.

    A nan score ranks below every other score, -inf included, and ties
    with every other nan."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = ((pos > neg) | (~np.isnan(pos) & np.isnan(neg))).sum()
    ties = ((pos == neg) | (np.isnan(pos) & np.isnan(neg))).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def constant_coupling(dim, scale_value, shift_value, hidden=4):
    """Coupling layer with constant scale/shift: it maps (x0, x1) to
    (x1, x0 * e^s + shift) at dim 2."""
    from cccpde.flow import CouplingLayer

    layer = CouplingLayer(dim, hidden, rng=None)
    k = dim - dim // 2
    layer.net.layers[-1].bias.value[:k] = np.arctanh(scale_value)
    layer.net.layers[-1].bias.value[k:] = shift_value
    return layer


def random_coupling(dim, hidden, rng):
    """Coupling layer with randomized (non-identity) transform weights."""
    from cccpde.flow import CouplingLayer

    return CouplingLayer(dim, hidden, rng, zero_init_outputs=False)


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
    assert sign != 0  # the reversal may flip the sign; magnitude matters
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


class SixVectorAdam:
    """`nn.AdamState` as it kept six full-length flat vectors: value, grad,
    the two moments and two scratch vectors for one whole-model update."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.packed = False

    def _pack(self, params):
        if self.packed:
            return
        self.packed = True
        self.value = np.concatenate([p.value.ravel() for p in params] or [[]])
        self.grad = np.concatenate([p.grad.ravel() for p in params] or [[]])
        self.m, self.v, self.a, self.b = (
            np.zeros_like(self.value) for _ in range(4))
        start = 0
        for p in params:
            end = start + p.value.size
            p.value = self.value[start:end].reshape(p.value.shape)
            p.grad = self.grad[start:end].reshape(p.grad.shape)
            start = end

    def zero_grad(self, params):
        self._pack(params)
        self.grad.fill(0.0)

    def step(self, params):
        self._pack(params)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g, m, v, a, b = self.grad, self.m, self.v, self.a, self.b
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - self.beta2
        v += a
        np.divide(m, c1, out=a)
        a *= self.lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.value -= a


def reference_normals(rng, n):
    """`Rng.normals` as one Box-Muller transform over all its uniforms."""
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    u = rng.uniforms(2 * pairs)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * math.pi) * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def rng_random(rng) -> float:
    """One uniform draw in [0, 1) from the top 53 bits of one raw draw of
    `rng`: the scalar form of `Rng.uniforms`."""
    return (rng._bits.random_raw() >> 11) * 2.0 ** -53


def rng_randint_below(rng, n: int) -> int:
    """Uniform integer in [0, n) from raw draws of `rng`, by rejection
    (no modulo bias)."""
    if n <= 0:
        raise DomainError(f"randint_below requires n >= 1, got {n}")
    span = 1 << 64
    limit = span - span % n
    while True:
        r = rng._bits.random_raw()
        if r < limit:
            return r % n


def reference_dropout(x, rate, rng):
    """Training-mode `nn.dropout` with its keep mask as float64 ones and zeros."""
    mask = (rng.uniforms(x.size).reshape(x.shape) >= rate).astype(np.float64)
    return x * mask / (1.0 - rate), mask


def reference_layer_norm_standardize(x):
    """`LayerNorm._standardize` as it took the variance from `np.var`,
    which computes the row mean a second time."""
    mean = x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + LAYER_NORM_EPS)
    return (x - mean) * inv, inv


def reference_mlp_forward(self, x):
    """`MLP.forward` as it kept every layer's pre-activation."""
    pres = []
    h = x
    for i, layer in enumerate(self.layers):
        h = layer.forward(h)
        pres.append(h)
        h = reference_activation(self._tag(i), h)
    self._pres = pres
    return h


def reference_mlp_backward(self, upstream):
    g = upstream
    for i in reversed(range(len(self.layers))):
        g = reference_activation_grad(self._tag(i), self._pres[i], g)
        g = self.layers[i].backward(g)
    return g


def reference_dense_block_forward(self, x, rng=None, training=False):
    """`DenseBlock.forward` as it kept a float mask and the pre-activation."""
    if training and self.dropout_rate > 0.0:
        dropped, mask = reference_dropout(x, self.dropout_rate, rng)
    else:
        dropped, mask = x, None
    pre = self.norm.forward(self.dense.forward(dropped))
    self._cache = (mask, pre)
    return reference_activation("elu", pre)


def reference_dense_block_backward(self, upstream):
    mask, pre = self._cache
    g = reference_activation_grad("elu", pre, upstream)
    g = self.dense.backward(self.norm.backward(g))
    if mask is not None:
        g = g * mask / (1.0 - self.dropout_rate)
    return g


@contextmanager
def reference_training_pairs():
    """Run every MLP and DenseBlock, and so every coupling layer and
    sigmoid head, through the reference training pairs above."""
    swapped = {
        (MLP, "forward"): reference_mlp_forward,
        (MLP, "backward"): reference_mlp_backward,
        (DenseBlock, "forward"): reference_dense_block_forward,
        (DenseBlock, "backward"): reference_dense_block_backward,
    }
    saved = {key: getattr(*key) for key in swapped}
    try:
        for (cls, name), fn in swapped.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)


def reference_cccpde_loss_and_grads(model, x, labels, rng):
    """`CccpDeModel.loss_and_grads` as it looped over `np.unique(labels)`."""
    labels = np.asarray(labels, dtype=np.int64)
    xs = model.standardizer.apply(x)
    n = xs.shape[0]
    base_out, log_det_base = model.base.forward(xs)
    g_base_out = np.zeros_like(base_out)
    w_flow = 1.0 / n
    flow_nll = 0.0
    for k in np.unique(labels):
        rows = np.nonzero(labels == k)[0]
        head = model.heads[k]
        z, log_det_head = head.forward(base_out[rows])
        log_p = gaussian_logpdf(z) + log_det_base[rows] + log_det_head
        flow_nll -= float(log_p.sum())
        g_base_out[rows] += head.backward(w_flow * z,
                                          np.full(rows.size, -w_flow))
    disc_loss, g_disc = model.disc.loss_and_grads(base_out, labels, rng)
    model.base.backward(g_base_out + g_disc, np.full(n, -w_flow))
    return flow_nll / n + disc_loss


def reference_train(model, dataset, config, rng):
    """`model.train` as it evaluated the inference-mode loss on the full
    training set after every epoch; returns that per-epoch trace, whose
    last entry is `train`'s final loss."""
    features, labels = dataset.features, dataset.labels
    model.standardizer = Standardizer.fit(features)
    if isinstance(model, CccpDeModel):
        counts = np.bincount(labels, minlength=2).astype(np.float64)
        model.class_counts = counts
        model.fit_head_inputs(features, labels)
    adam = AdamState(config.learning_rate)
    params = model.params()
    n = dataset.n_rows
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            adam.zero_grad(params)
            model.loss_and_grads(features[idx], labels[idx], rng=rng)
            adam.step(params)
        trace.append(model.eval_loss(features, labels))
    return trace


def one_pass_stack_call(stack, x):
    """`FlowStack.__call__` as one pass over all rows."""
    stack._check(x)
    log_det = np.zeros(x.shape[0])
    h = x
    for layer in stack.layers:
        h, ld = layer(h)
        log_det += ld
    return h, log_det


def one_pass_stack_inverse(stack, z):
    """`FlowStack.inverse` as one pass over all rows."""
    stack._check(z)
    h = z
    for layer in reversed(stack.layers):
        h = layer.inverse(h)
    return h


def one_pass_logits(head, x):
    """`SigmoidHead.logits` as one pass over all rows."""
    h = x
    for block in head.blocks:
        h = block(h)
    return head.out(h).ravel()


def perturbed(model, seed, std=2.0):
    """The model with every parameter moved off its initial value, so the
    zero-initialized coupling outputs transform too, and a standardizer of
    mean 0.5 and the given std in every dimension."""
    rng = Rng(seed)
    for p in model.params():
        p.value[...] += 0.2 * rng.normals(p.value.size).reshape(p.value.shape)
    model.standardizer = Standardizer(np.full(model.dim, 0.5),
                                      np.full(model.dim, std))
    return model


def far_rows(dim, max_rows=12):
    """Hypothesis strategy: (n, dim) arrays of finite entries +-10^k with k
    from 0 to 308, so rows reach from the data out to the float limit."""
    entry = st.builds(lambda k, sign: sign * 10.0 ** k,
                      st.integers(0, 308), st.sampled_from((-1.0, 1.0)))
    row = st.lists(entry, min_size=dim, max_size=dim)
    return st.lists(row, min_size=1, max_size=max_rows).map(np.array)


def special_floats(rng, n):
    """n floats that lead with the values repr formatting must keep exact:
    signed zero, the smallest subnormal, huge and integral magnitudes, then
    random values across many scales."""
    head = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -2.0,
                     1e16, 2.0 ** 53, 0.1, 1.0 / 3.0])
    tail = rng.normals(n) * 10.0 ** np.floor(rng.uniforms(n) * 40.0 - 20.0)
    return np.concatenate([head, tail])[:n]


def reference_save_csv(ds, path):
    """`data.save_csv` as it formatted cells one numpy scalar at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ",".join(f"f{j}" for j in range(ds.dim))
        fh.write(f"label,{cols}\n")
        for label, row in zip(ds.labels, ds.features):
            fh.write(str(int(label)) + ","
                     + ",".join(repr(float(v)) for v in row) + "\n")


def reference_write_roc_csv(curve, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fpr,tpr,threshold\n")
        for f, t, thr in zip(curve.fpr, curve.tpr, curve.thresholds):
            fh.write(f"{float(f)!r},{float(t)!r},{float(thr)!r}\n")


def reference_write_reports_csv(path, labels, score_ffnn, score_sigmoid,
                                log_densities, batch):
    labels = np.asarray(labels)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,label,score_ffnn,score_sigmoid,"
                 "logp_class0,logp_class1,post_mean,ci_lo,ci_hi,abstain\n")
        for i in range(len(batch)):
            fh.write(
                f"{i},{int(labels[i])},{float(score_ffnn[i])!r},"
                f"{float(score_sigmoid[i])!r},"
                f"{float(log_densities[i, 0])!r},{float(log_densities[i, 1])!r},"
                f"{float(batch.mean[i])!r},{float(batch.lo[i])!r},"
                f"{float(batch.hi[i])!r},{int(batch.abstain[i])}\n")


def reference_write_density_grid_csv(path, xs, ys, log_d, total):
    n_classes = log_d.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = ",".join(f"logp_{k}" for k in range(n_classes))
        fh.write(f"x,y,{cols},logp_total\n")
        idx = 0
        for y in ys:
            for x in xs:
                row = ",".join(repr(float(v)) for v in log_d[idx])
                fh.write(f"{float(x)!r},{float(y)!r},{row},"
                         f"{float(total[idx])!r}\n")
                idx += 1


def reference_write_trace_csv(trace, path):
    """The `train` trace writer as `cli.py` looped over epochs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(trace, 1):
            fh.write(f"{epoch},{loss!r}\n")


def reference_write_glm_demo_csv(path, grid, mu, sigma, truth):
    """The `glm-demo` writer as `cli.py` looped over grid points."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,mu,sigma,y_true\n")
        for i in range(grid.size):
            fh.write(f"{float(grid[i])!r},{float(mu[i])!r},"
                     f"{float(sigma[i])!r},{float(truth[i])!r}\n")
