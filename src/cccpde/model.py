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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .data import Dataset, Standardizer, binary_labels
from .errors import DomainError, ModelFormatError, ShapeError
from .flow import FlowStack, coupling_widths, gaussian_logpdf
from .nn import (
    AdamState,
    DenseLayer,
    MLP,
    Param,
    SigmoidHead,
    bce_with_logits,
    gaussian_nll_loss,
    sigmoid_head_widths,
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

    @staticmethod
    def sizes_of(stored: dict) -> dict[str, int]:
        """The constructor sizes that a file's arrays imply."""
        return {"dim": _length(stored, "standardizer/mean"),
                "hidden": _length(stored, "out/weight"),
                "n_blocks": _count(stored, "block/{}/dense/weight")}

    @staticmethod
    def layout(dim: int, hidden: int, n_blocks: int) -> Iterator:
        """(name, shape) of every stored array, in file order, lazily."""
        yield "dropout_rate", (1,)
        yield from _sigmoid_head_layout(
            "block", "out", sigmoid_head_widths(dim, hidden, n_blocks))
        yield from _standardizer_layout(dim)

    def state_arrays(self) -> list:
        """Stored arrays in file order, mapped to the live arrays."""
        return _named(self.layout(self.dim, self.hidden, self.n_blocks),
                      [np.array([self.dropout_rate])]
                      + [p.value for p in self.head.params()]
                      + [self.standardizer.mean, self.standardizer.std])


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

    @staticmethod
    def sizes_of(stored: dict) -> dict[str, int]:
        """The constructor sizes that a file's arrays imply."""
        return {"dim": _length(stored, "standardizer/mean"),
                "hidden": _length(stored, "disc/out/weight"),
                "base_depth": _count(stored, "base/{}/perm"),
                "head_depth": _count(stored, "head0/{}/perm"),
                "disc_blocks": _count(stored, "disc/{}/dense/weight")}

    @staticmethod
    def layout(dim: int, hidden: int, base_depth: int, head_depth: int,
               disc_blocks: int) -> Iterator:
        """(name, shape) of every stored array, in file order, lazily."""
        yield "dropout_rate", (1,)
        yield "class_counts", (2,)
        for prefix, depth in (("base", base_depth), ("head0", head_depth),
                              ("head1", head_depth)):
            for i in range(depth):
                yield f"{prefix}/{i}/perm", (dim,)
                for net in ("scale", "shift"):
                    yield from _mlp_layout(f"{prefix}/{i}/{net}",
                                           coupling_widths(dim, hidden))
        yield from _sigmoid_head_layout(
            "disc", "disc/out", sigmoid_head_widths(dim, hidden, disc_blocks))
        yield from _standardizer_layout(dim)

    def state_arrays(self) -> list:
        """Stored arrays in file order, mapped to the live arrays."""
        live = [np.array([self.dropout_rate]), self.class_counts]
        for stack in (self.base, *self.heads):
            for layer in stack.layers:
                live += [layer.perm] + [p.value for p in layer.params()]
        live += [p.value for p in self.disc.params()]
        return _named(self.layout(self.dim, self.hidden, self.base_depth,
                                  self.head_depth, self.disc_blocks),
                      live + [self.standardizer.mean, self.standardizer.std])


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

# the kind byte of a model file -> the class it stores
_MODEL_KINDS = {1: FfnnModel, 2: CccpDeModel}


def save_model(model, path) -> None:
    """Write a model file; load_model(path) reproduces it bit-exactly."""
    kind_code = next(code for code, cls in _MODEL_KINDS.items()
                     if type(model) is cls)
    write_state(path, kind_code, model.state_arrays())


def load_model(path):
    """Check a file's arrays against its class's layout in one ordered
    pass, then build the model by keyword and copy the arrays in.

    The sizes come from the array shapes. The i-th stored array must be the
    i-th layout entry, so a missing, extra, duplicated or reordered array
    is refused where the names first differ. Each array then passes one
    rule: dtype and shape, finite values, positive standardizer std and
    class counts, and `*/perm` a permutation. The layout is read only up
    to the first refusal, which names the array."""
    kind_code, arrays = read_state(path)
    if kind_code not in _MODEL_KINDS:
        raise ModelFormatError(f"unknown model kind code {kind_code}")
    cls = _MODEL_KINDS[kind_code]
    sizes = cls.sizes_of(dict(arrays))
    for i, ((name, arr), (expected, shape)) in enumerate(zip_longest(
            arrays, cls.layout(**sizes), fillvalue=(None, None))):
        if name != expected:
            raise ModelFormatError(f"array {i} is {_name_or_end(name)}; the "
                                   f"layout expects {_name_or_end(expected)}")
        dtype = np.dtype(np.int64 if name.endswith("/perm") else np.float64)
        if arr.dtype != dtype or arr.shape != shape:
            raise ModelFormatError(
                f"array {name!r} is {arr.dtype} of shape {arr.shape}, "
                f"expected {dtype} of shape {shape}")
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"array {name} is not finite")
        if name in ("standardizer/std", "class_counts") and not (arr > 0).all():
            raise ModelFormatError(f"array {name} is not positive")
        if name.endswith("/perm") and not np.array_equal(np.sort(arr),
                                                         np.arange(arr.size)):
            raise ModelFormatError(
                f"array {name} is not a permutation of range({arr.size})")
    try:  # every layout starts with `dropout_rate`
        model = cls(**sizes, dropout_rate=float(arrays[0][1][0]))
    except DomainError as exc:
        raise ModelFormatError(f"model file: {exc}") from None
    # the live `dropout_rate` entry is a copy; the constructor took the value
    for (_, live), (_, arr) in zip(model.state_arrays(), arrays, strict=True):
        live[...] = arr
    return model


def _name_or_end(name: str | None) -> str:
    return "the end of the file" if name is None else repr(name)


def _length(stored: dict, name: str) -> int:
    """A stored array's first-axis length; the layout check then compares
    its whole shape."""
    if name not in stored:
        raise ModelFormatError(f"model file is missing array {name!r}")
    return next(iter(stored[name].shape), 0)


def _count(stored: dict, pattern: str) -> int:
    """How many consecutive indices from 0 `pattern` names in `stored`."""
    n = 0
    while pattern.format(n) in stored:
        n += 1
    return n


def _named(layout: Iterator, live: list) -> list:
    return [(name, arr) for (name, _), arr in zip(layout, live, strict=True)]


def _dense_layout(prefix: str, n_in: int, n_out: int) -> list:
    return [(f"{prefix}/weight", (n_in, n_out)), (f"{prefix}/bias", (n_out,))]


def _mlp_layout(prefix: str, widths: list[int]) -> list:
    return [entry for j in range(len(widths) - 1) for entry in
            _dense_layout(f"{prefix}/{j}", widths[j], widths[j + 1])]


def _sigmoid_head_layout(block_prefix: str, out_prefix: str,
                         widths: list[int]) -> Iterator:
    for i, width in enumerate(widths[1:-1]):
        block = f"{block_prefix}/{i}"
        yield from _dense_layout(f"{block}/dense", widths[i], width) + [
            (f"{block}/norm/gain", (width,)), (f"{block}/norm/bias", (width,))]
    yield from _dense_layout(out_prefix, widths[-2], widths[-1])


def _standardizer_layout(dim: int) -> list:
    return [("standardizer/mean", (dim,)), ("standardizer/std", (dim,))]
