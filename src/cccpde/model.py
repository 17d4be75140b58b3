"""Model assembly and training.

Three architectures live here: the dense feed-forward baseline, the
class-conditional coupling-flow estimator (shared coupling base, one
coupling head per class, plus an auxiliary sigmoid head), and a small
heteroscedastic Gaussian regressor. One minibatch Adam loop trains all
three. Trace rows are the epochs' training-mode minibatch means; only the
final loss, one inference-mode full-set pass, is reproducible from a file.

Every model carries a Standardizer, the identity until `train` fits it
on the training set. Public densities and scores accept raw feature space
and include the change-of-scale correction; the networks see only the
standardized model space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Standardizer, binary_labels
from .errors import DomainError, ModelFormatError, ShapeError
from .flow import FlowStack, gaussian_logpdf
from .nn import (
    AdamState,
    DenseLayer,
    MLP,
    Param,
    SigmoidHead,
    bce_with_logits,
    gaussian_nll_loss,
)
from .numerics import Rng
from .serialize import read_state, write_state


@dataclass
class TrainConfig:
    """Optimizer settings of a training run; desk-scale defaults.

    Network sizes and dropout are model constructor arguments; each model
    owns its loss. The learning rate must be positive and finite.
    """

    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise DomainError(f"learning rate must be positive and finite, "
                              f"got {self.learning_rate}")


def _check_network(sizes_ok: bool, dropout_rate: float) -> None:
    if not sizes_ok:
        raise DomainError("network sizes must be positive")
    if not 0.0 <= dropout_rate < 1.0:
        raise DomainError(f"dropout must lie in [0, 1), got {dropout_rate}")


class FfnnModel:
    """Feed-forward baseline: dense blocks, final dense layer, sigmoid."""

    def __init__(self, dim: int, hidden: int = 64, n_blocks: int = 4,
                 dropout_rate: float = 0.05, rng: Rng | None = None):
        _check_network(min(dim, hidden, n_blocks) >= 1, dropout_rate)
        self.dim = dim
        self.hidden = hidden
        self.n_blocks = n_blocks
        self.dropout_rate = dropout_rate
        self.head = SigmoidHead(dim, hidden, n_blocks, dropout_rate, rng)
        self.standardizer = Standardizer(np.zeros(dim), np.ones(dim))

    def score(self, x: np.ndarray) -> np.ndarray:
        """Positive-class probabilities, deterministic inference pass; a row
        whose standardized input overflows may score nan, silently."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.head(self.standardizer.apply(x))

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       rng: Rng | None = None) -> float:
        return self.head.loss_and_grads(self.standardizer.apply(x),
                                        binary_labels(y), rng)[0]

    def eval_loss(self, x: np.ndarray, y: np.ndarray) -> float:
        return bce_with_logits(self.head.logits(self.standardizer.apply(x)),
                               binary_labels(y))[0]

    def params(self) -> list[Param]:
        return self.head.params()

    def state_arrays(self) -> list:
        """Stored arrays in file order, mapped to the live arrays."""
        return (_sigmoid_head_arrays("block", "out", self.head)
                + _standardizer_arrays(self.standardizer))


class CccpDeModel:
    """Shared coupling base, one coupling head per class, sigmoid side head.

    Class-k log-density composes the base and head-k forward log-dets with
    the unit-Gaussian latent at the head output. The sigmoid head reads the
    base output through dense blocks; its loss propagates into the base.
    The training loss is the unweighted sum of the mean flow NLL and the
    sigmoid head's BCE. The detector is binary: classes 0 and 1, so
    `n_classes` accepts only 2 and the model file does not store it. The
    slot stays because `bench/micro.py` passes that 2 positionally.
    """

    def __init__(self, dim: int, n_classes: int = 2, hidden: int = 64,
                 base_depth: int = 3, head_depth: int = 1,
                 disc_blocks: int = 3, dropout_rate: float = 0.05,
                 rng: Rng | None = None):
        if n_classes != 2:
            raise DomainError(f"the detector is binary: n_classes must be 2, "
                              f"got {n_classes}")
        _check_network(min(hidden, head_depth, disc_blocks) >= 1
                       and base_depth >= 0, dropout_rate)
        self.dim = dim
        self.hidden = hidden
        self.base_depth, self.head_depth = base_depth, head_depth
        self.disc_blocks = disc_blocks
        self.base = FlowStack.build(dim, base_depth, hidden, rng)
        self.heads = [FlowStack.build(dim, head_depth, hidden, rng)
                      for _ in range(2)]
        self.disc = SigmoidHead(dim, hidden, disc_blocks, dropout_rate, rng)
        self.dropout_rate = dropout_rate
        # one row per class until `train` sets them, so the file loads
        self.class_counts = np.ones(2)
        self.standardizer = Standardizer(np.zeros(dim), np.ones(dim))

    @property
    def class_priors(self) -> np.ndarray:
        """Class base rates N_k / sum(N), derived from the class counts."""
        return self.class_counts / self.class_counts.sum()

    # -- forward passes ----------------------------------------------------

    def _flows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-class log-densities (n, 2) and the base output; no disc head.

        A row whose standardized input, base output, latent or log-det is
        not finite (rows far outside the data overflow on the way) gets
        log-density -inf in both classes: zero counts, so the prior
        posterior. The overflow and invalid-value warnings of such rows
        are silenced here; every other row keeps its bits.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            xs = self.standardizer.apply(x)
            base_out, log_det_base = self.base(xs)
            finite = (np.isfinite(xs).all(axis=1)
                      & np.isfinite(base_out).all(axis=1)
                      & np.isfinite(log_det_base))
            log_d = np.empty((xs.shape[0], 2))
            for k, head in enumerate(self.heads):
                z, log_det_head = head(base_out)
                finite &= np.isfinite(z).all(axis=1) & np.isfinite(log_det_head)
                log_d[:, k] = gaussian_logpdf(z) + log_det_base + log_det_head
        log_d[~finite] = -np.inf
        return log_d + self.standardizer.log_volume_scale, base_out

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-class log-densities (n, 2) and sigmoid scores (n,); a row
        whose base output is not finite may score nan."""
        log_d, base_out = self._flows(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return log_d, self.disc(base_out)

    def log_densities(self, x: np.ndarray) -> np.ndarray:
        """Per-class log-densities in raw input space."""
        return self._flows(x)[0]

    def sample_class(self, class_index: int, rng: Rng, n: int) -> np.ndarray:
        """Draw from one class head: latent draws inverted through head and base."""
        if class_index not in (0, 1):
            raise DomainError(f"class index must be 0 or 1, got {class_index}")
        xs = self.base.inverse(self.heads[class_index].sample(rng, n))
        return self.standardizer.inverse(xs)

    # -- training ----------------------------------------------------------

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray,
                       rng: Rng | None = None) -> float:
        labels = binary_labels(labels)
        xs = self.standardizer.apply(x)
        n = xs.shape[0]
        base_out, log_det_base = self.base.forward(xs)
        g_base_out = np.zeros_like(base_out)
        w_flow = 1.0 / n
        flow_nll = 0.0
        for k, head in enumerate(self.heads):
            rows = np.nonzero(labels == k)[0]
            if rows.size == 0:
                continue
            z, log_det_head = head.forward(base_out[rows])
            log_p = gaussian_logpdf(z) + log_det_base[rows] + log_det_head
            flow_nll -= float(log_p.sum())
            g_base_out[rows] += head.backward(w_flow * z,
                                              np.full(rows.size, -w_flow))
        disc_loss, g_disc = self.disc.loss_and_grads(base_out, labels, rng)
        self.base.backward(g_base_out + g_disc, np.full(n, -w_flow))
        return flow_nll / n + disc_loss

    def eval_loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        labels = binary_labels(labels)
        xs = self.standardizer.apply(x)
        n = xs.shape[0]
        base_out, log_det_base = self.base(xs)
        flow_nll = 0.0
        for k, head in enumerate(self.heads):
            rows = np.nonzero(labels == k)[0]
            if rows.size == 0:
                continue
            z, log_det_head = head(base_out[rows])
            log_p = gaussian_logpdf(z) + log_det_base[rows] + log_det_head
            flow_nll -= float(log_p.sum())
        disc_loss, _ = bce_with_logits(self.disc.logits(base_out), labels)
        return flow_nll / n + disc_loss

    def params(self) -> list[Param]:
        out = self.base.params()
        for head in self.heads:
            out += head.params()
        return out + self.disc.params()

    # -- persistence ---------------------------------------------------------

    def state_arrays(self) -> list:
        """Stored arrays in file order, mapped to the live arrays."""
        out = [("class_counts", self.class_counts)]
        out += _flow_stack_arrays("base", self.base)
        for k, head in enumerate(self.heads):
            out += _flow_stack_arrays(f"head{k}", head)
        return (out + _sigmoid_head_arrays("disc", "disc/out", self.disc)
                + _standardizer_arrays(self.standardizer))


class GlmRegressor:
    """Shared tanh trunk with linear mean and log-variance heads, on a
    scalar input. It has no dropout, so `loss_and_grads` ignores `rng`."""

    def __init__(self, hidden: int = 64, rng: Rng | None = None):
        if hidden < 1:
            raise DomainError("network sizes must be positive")
        self.hidden = hidden
        self.trunk = MLP([1, hidden, hidden], rng,
                         hidden_activation="tanh", output_activation="tanh")
        self.mean_head = DenseLayer(hidden, 1, rng)
        # zero-init keeps the initial variance at 1 while the mean settles
        self.log_var_head = DenseLayer(hidden, 1, zero_init=True)

    def _rows(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64).reshape(-1, 1)

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point mean and standard deviation."""
        h = self.trunk(self._rows(x))
        return self.mean_head(h).ravel(), np.exp(0.5 * self.log_var_head(h).ravel())

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray, rng=None) -> float:
        h = self.trunk.forward(self._rows(x))
        mu = self.mean_head.forward(h).ravel()
        log_var = self.log_var_head.forward(h).ravel()
        loss, g_mu, g_log_var = gaussian_nll_loss(mu, log_var,
                                                  np.asarray(y, dtype=np.float64))
        g_h = self.mean_head.backward(g_mu[:, None])
        g_h = g_h + self.log_var_head.backward(g_log_var[:, None])
        self.trunk.backward(g_h)
        return loss

    def params(self) -> list[Param]:
        return self.trunk.params() + self.mean_head.params() + self.log_var_head.params()


def train(model, dataset: Dataset, config: TrainConfig,
          rng: Rng) -> tuple[list[float], float]:
    """Minibatch Adam over shuffled epochs; returns (trace, final loss).

    The model's standardizer, and a density estimator's class counts, are
    first set from the training set. Trace entries are the epochs'
    training-mode minibatch losses, row-weighted; the final loss is one
    inference-mode pass over the training set, which a reloaded model
    reproduces exactly.
    """
    if dataset.n_rows == 0:
        raise DomainError("cannot train on an empty dataset")
    if dataset.dim != model.dim:
        raise ShapeError(
            f"model expects {model.dim} features, dataset has {dataset.dim}")
    features, labels = dataset.features, dataset.labels
    counts = np.bincount(labels, minlength=2).astype(np.float64)
    if not counts.all():
        raise DomainError(
            f"training set has no rows of class {int(np.argmin(counts))}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model.standardizer = Standardizer.fit(features)
    for warning in caught:  # a constant column warns at our caller
        warnings.warn(warning.message, stacklevel=2)
    if isinstance(model, CccpDeModel):
        model.class_counts = counts
    trace = _adam_epochs(model, features, labels, config, rng)
    return trace, model.eval_loss(features, labels)


def glm_fit_and_predict(x: np.ndarray, y: np.ndarray, config: TrainConfig,
                        rng: Rng, hidden: int = 64) -> GlmRegressor:
    """Train a fresh Gaussian regressor; its `predict` gives (mean, std)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise DomainError("cannot fit a regressor on empty data")
    if x.shape != y.shape:
        raise ShapeError(f"x shape {x.shape} != y shape {y.shape}")
    model = GlmRegressor(hidden, rng)
    _adam_epochs(model, x, y, config, rng)
    return model


def _adam_epochs(model, x, y, config: TrainConfig, rng: Rng) -> list[float]:
    """Minibatch Adam over epochs shuffled by `rng`, which also draws the
    dropout masks; returns each epoch's row-weighted mean minibatch loss."""
    adam = AdamState(config.learning_rate)
    params = model.params()
    n = x.shape[0]
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            adam.zero_grad(params)
            total += idx.size * model.loss_and_grads(x[idx], y[idx], rng=rng)
            adam.step(params)
        trace.append(total / n)
    return trace


# -- persistence -------------------------------------------------------------

# the kind byte of a model file -> the class it stores and the constructor
# keywords that its metadata holds as whole numbers; every kind also stores
# its `dropout_rate`
_MODEL_KINDS = {
    1: (FfnnModel, ("dim", "hidden", "n_blocks")),
    2: (CccpDeModel, ("dim", "hidden", "base_depth", "head_depth",
                      "disc_blocks")),
}


def save_model(model, path) -> None:
    """Write a model file; load_model(path) reproduces it bit-exactly."""
    kind_code, sizes = next((code, sizes) for code, (cls, sizes)
                            in _MODEL_KINDS.items() if type(model) is cls)
    meta = {key: getattr(model, key) for key in sizes + ("dropout_rate",)}
    write_state(path, kind_code, meta, model.state_arrays())


def load_model(path):
    """Build a model from a file's metadata by keyword, then copy in its
    arrays under one rule: dtype and shape match, values are finite, the
    standardizer std and class counts are positive, and each `*/perm` is a
    permutation. A refused metadata key or array is named."""
    kind_code, meta, arrays = read_state(path)
    if kind_code not in _MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind code {kind_code}")
    cls, sizes = _MODEL_KINDS[kind_code]
    keys = sizes + ("dropout_rate",)
    for key in keys:
        if key not in meta:
            raise ModelFormatError(f"model file is missing metadata {key!r}")
    unexpected = sorted(set(meta) - set(keys))
    if unexpected:
        raise ModelFormatError(f"model file has unexpected metadata: {unexpected}")
    for key in sizes:
        if not meta[key].is_integer():
            raise ModelFormatError(
                f"metadata {key!r} is not a whole number, got {meta[key]}")
    try:
        model = cls(**{key: int(meta[key]) for key in sizes},
                    dropout_rate=meta["dropout_rate"])
    except DomainError as exc:
        raise ModelFormatError(f"model file metadata: {exc}") from None
    stored = {}
    for name, arr in arrays:
        if name in stored:
            raise ModelFormatError(f"duplicate array {name!r}")
        stored[name] = arr
    for name, live in model.state_arrays():
        if name not in stored:
            raise ModelFormatError(f"model file is missing array {name!r}")
        arr = stored.pop(name)
        if arr.dtype != live.dtype or arr.shape != live.shape:
            raise ModelFormatError(
                f"array {name!r} is {arr.dtype} of shape {arr.shape}, "
                f"expected {live.dtype} of shape {live.shape}")
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"array {name} is not finite")
        if name in ("standardizer/std", "class_counts") and not (arr > 0).all():
            raise ModelFormatError(f"array {name} is not positive")
        if name.endswith("/perm") and not np.array_equal(np.sort(arr),
                                                         np.arange(arr.size)):
            raise ModelFormatError(
                f"array {name} is not a permutation of range({arr.size})")
        live[...] = arr
    if stored:
        raise ModelFormatError(
            f"model file has unexpected arrays: {sorted(stored)}")
    return model


def _mlp_arrays(prefix: str, net: MLP) -> list:
    out = []
    for j, layer in enumerate(net.layers):
        out.append((f"{prefix}/{j}/weight", layer.weight.value))
        out.append((f"{prefix}/{j}/bias", layer.bias.value))
    return out


def _flow_stack_arrays(prefix: str, stack: FlowStack) -> list:
    out = []
    for i, layer in enumerate(stack.layers):
        out.append((f"{prefix}/{i}/perm", layer.perm))
        out += _mlp_arrays(f"{prefix}/{i}/scale", layer.scale_net)
        out += _mlp_arrays(f"{prefix}/{i}/shift", layer.shift_net)
    return out


def _sigmoid_head_arrays(block_prefix: str, out_prefix: str,
                         head: SigmoidHead) -> list:
    out = []
    for i, block in enumerate(head.blocks):
        out += [
            (f"{block_prefix}/{i}/dense/weight", block.dense.weight.value),
            (f"{block_prefix}/{i}/dense/bias", block.dense.bias.value),
            (f"{block_prefix}/{i}/norm/gain", block.norm.gain.value),
            (f"{block_prefix}/{i}/norm/bias", block.norm.bias.value),
        ]
    return out + [(f"{out_prefix}/weight", head.out.weight.value),
                  (f"{out_prefix}/bias", head.out.bias.value)]


def _standardizer_arrays(standardizer: Standardizer) -> list:
    return [("standardizer/mean", standardizer.mean),
            ("standardizer/std", standardizer.std)]
