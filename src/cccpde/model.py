"""Model assembly and training.

Three architectures live here: the dense feed-forward baseline, the
class-conditional coupling-flow estimator (shared coupling base, one
coupling head per class, plus an auxiliary sigmoid head), and a small
heteroscedastic Gaussian regressor. Training is plain minibatch Adam over
seed-shuffled epochs; the per-epoch loss trace is evaluated in inference
mode on the full training set, so a reloaded model reproduces it exactly.

Models may carry a Standardizer; public densities and scores then accept
raw feature space and include the change-of-scale correction, while
training and traces run in standardized model space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Standardizer
from .errors import DomainError, ModelFormatError, ShapeError
from .flow import CouplingLayer, FlowStack, gaussian_logpdf
from .nn import (
    AdamState,
    DenseBlock,
    DenseLayer,
    MLP,
    Param,
    activation,
    bce_loss,
    gaussian_nll_loss,
)
from .numerics import Rng
from .serialize import read_state, write_state


@dataclass
class TrainConfig:
    """Hyperparameters for a training run; desk-scale defaults."""

    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden: int = 64
    base_depth: int = 3
    head_depth: int = 1
    disc_blocks: int = 3
    ffnn_blocks: int = 4
    dropout: float = 0.05
    flow_weight: float = 1.0
    disc_weight: float = 1.0

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise DomainError("learning rate must be positive")
        if self.flow_weight < 0 or self.disc_weight < 0:
            raise DomainError("loss weights must be nonnegative")
        if self.hidden < 1 or self.head_depth < 1 or self.base_depth < 0:
            raise DomainError("network sizes must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError(f"dropout must lie in [0, 1), got {self.dropout}")


class FfnnModel:
    """Feed-forward baseline: dense blocks, final dense layer, sigmoid."""

    kind = "ffnn"

    def __init__(self, dim: int, hidden: int = 64, n_blocks: int = 4,
                 dropout_rate: float = 0.05, rng: Rng | None = None):
        self.dim = dim
        self.hidden = hidden
        self.n_blocks = n_blocks
        self.dropout_rate = dropout_rate
        sizes = [dim] + [hidden] * n_blocks
        self.blocks = [
            DenseBlock(sizes[i], sizes[i + 1], dropout_rate, rng)
            for i in range(n_blocks)
        ]
        self.out = DenseLayer(hidden, 1, rng)
        self.standardizer: Standardizer | None = None

    def _model_space(self, x: np.ndarray) -> np.ndarray:
        return self.standardizer.apply(x) if self.standardizer else x

    def _forward(self, x: np.ndarray, rng: Rng | None,
                 training: bool) -> tuple[np.ndarray, np.ndarray]:
        h = self._model_space(np.asarray(x, dtype=np.float64))
        for block in self.blocks:
            h = block.forward(h, rng, training)
        logits = self.out.forward(h).ravel()
        return activation("sigmoid", logits), logits

    def score(self, x: np.ndarray) -> np.ndarray:
        """Positive-class probabilities, deterministic inference pass."""
        return self._forward(x, None, False)[0]

    # this model ignores the loss weights; `train` passes them to both kinds
    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       rng: Rng | None = None, training: bool = True,
                       flow_weight: float = 1.0,
                       disc_weight: float = 1.0) -> float:
        p, _ = self._forward(x, rng, training)
        loss, grad_p = bce_loss(p, np.asarray(y, dtype=np.float64))
        g = (grad_p * p * (1.0 - p))[:, None]
        g = self.out.backward(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        return loss

    def eval_loss(self, x: np.ndarray, y: np.ndarray,
                  flow_weight: float = 1.0, disc_weight: float = 1.0) -> float:
        p, _ = self._forward(x, None, False)
        return bce_loss(p, np.asarray(y, dtype=np.float64))[0]

    def params(self) -> list[Param]:
        out = [p for block in self.blocks for p in block.params()]
        return out + self.out.params()

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def to_state(self) -> tuple[dict, list]:
        meta = {
            "dim": self.dim, "hidden": self.hidden, "n_blocks": self.n_blocks,
            "dropout": self.dropout_rate,
            "has_standardizer": 1.0 if self.standardizer else 0.0,
        }
        arrays = []
        for i, block in enumerate(self.blocks):
            arrays += _dense_block_arrays(f"block/{i}", block)
        arrays += [("out/weight", self.out.weight.value),
                   ("out/bias", self.out.bias.value)]
        arrays += _standardizer_arrays(self.standardizer)
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: list) -> "FfnnModel":
        model = cls(int(meta["dim"]), int(meta["hidden"]),
                    int(meta["n_blocks"]), float(meta["dropout"]), rng=None)
        get = _array_getter(arrays)
        for i, block in enumerate(model.blocks):
            _assign_dense_block(f"block/{i}", block, get)
        _assign_param(model.out.weight, get("out/weight"), "out/weight")
        _assign_param(model.out.bias, get("out/bias"), "out/bias")
        model.standardizer = _restore_standardizer(meta, get)
        get.finish()
        return model


class CccpDeModel:
    """Shared coupling base, per-class coupling heads, sigmoid side head.

    Class-k log-density composes the base and head-k forward log-dets with
    the unit-Gaussian latent at the head output. The sigmoid head reads the
    base output through dense blocks; its loss propagates into the base.
    """

    kind = "cccpde"

    def __init__(self, dim: int, n_classes: int = 2, hidden: int = 64,
                 base_depth: int = 3, head_depth: int = 1,
                 disc_blocks: int = 3, dropout_rate: float = 0.05,
                 rng: Rng | None = None):
        if n_classes < 2:
            raise DomainError(f"need at least 2 classes, got {n_classes}")
        self.dim = dim
        self.n_classes = n_classes
        self.hidden = hidden
        self.base = FlowStack.build(dim, base_depth, hidden, rng)
        self.heads = [FlowStack.build(dim, head_depth, hidden, rng)
                      for _ in range(n_classes)]
        sizes = [dim] + [hidden] * disc_blocks
        self.disc_blocks = [
            DenseBlock(sizes[i], sizes[i + 1], dropout_rate, rng)
            for i in range(disc_blocks)
        ]
        self.disc_out = DenseLayer(hidden, 1, rng)
        self.dropout_rate = dropout_rate
        self.class_counts = np.zeros(n_classes)
        self.class_priors = np.full(n_classes, 1.0 / n_classes)
        self.standardizer: Standardizer | None = None

    # -- forward passes ----------------------------------------------------

    def _model_space(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=np.float64)
        if self.standardizer is None:
            return x, 0.0
        return self.standardizer.apply(x), self.standardizer.log_volume_scale

    def _disc_forward(self, base_out: np.ndarray, rng: Rng | None,
                      training: bool) -> tuple[np.ndarray, np.ndarray]:
        h = base_out
        for block in self.disc_blocks:
            h = block.forward(h, rng, training)
        logits = self.disc_out.forward(h).ravel()
        return activation("sigmoid", logits), logits

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-class log-densities (n, M) and sigmoid scores (n,)."""
        xs, correction = self._model_space(x)
        base_out, log_det_base = self.base.forward(xs)
        log_d = np.empty((xs.shape[0], self.n_classes))
        for k, head in enumerate(self.heads):
            z, log_det_head = head.forward(base_out)
            log_d[:, k] = gaussian_logpdf(z) + log_det_base + log_det_head
        scores, _ = self._disc_forward(base_out, None, False)
        return log_d + correction, scores

    def log_densities(self, x: np.ndarray) -> np.ndarray:
        """Per-class log-densities in raw input space."""
        return self.forward(x)[0]

    def sample_class(self, class_index: int, rng: Rng, n: int) -> np.ndarray:
        """Draw from one class head: latent draws inverted through head and base."""
        if not 0 <= class_index < self.n_classes:
            raise DomainError(
                f"class index {class_index} out of range [0, {self.n_classes})")
        z = rng.normals(n * self.dim).reshape(n, self.dim)
        xs = self.base.inverse(self.heads[class_index].inverse(z))
        return self.standardizer.inverse(xs) if self.standardizer else xs

    # -- training ----------------------------------------------------------

    def _check_labels(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise DomainError(
                f"labels must lie in [0, {self.n_classes}), got "
                f"[{labels.min()}, {labels.max()}]")
        return labels.astype(np.int64)

    def loss_and_grads(self, x: np.ndarray, labels: np.ndarray,
                       rng: Rng | None = None, training: bool = True,
                       flow_weight: float = 1.0,
                       disc_weight: float = 1.0) -> float:
        labels = self._check_labels(labels)
        xs, _ = self._model_space(x)
        n = xs.shape[0]
        base_out, log_det_base = self.base.forward(xs)
        g_base_out = np.zeros_like(base_out)
        flow_nll = 0.0
        for k in np.unique(labels):
            rows = np.nonzero(labels == k)[0]
            head = self.heads[k]
            z, log_det_head = head.forward(base_out[rows])
            log_p = gaussian_logpdf(z) + log_det_base[rows] + log_det_head
            flow_nll -= float(log_p.sum())
            g_z = (flow_weight / n) * z
            g_log_det = np.full(rows.size, -flow_weight / n)
            g_base_out[rows] += head.backward(g_z, g_log_det)
        p, _ = self._disc_forward(base_out, rng, training)
        disc_loss, grad_p = bce_loss(p, labels.astype(np.float64))
        g = (disc_weight * grad_p * p * (1.0 - p))[:, None]
        g = self.disc_out.backward(g)
        for block in reversed(self.disc_blocks):
            g = block.backward(g)
        g_base_out += g
        self.base.backward(g_base_out, np.full(n, -flow_weight / n))
        return flow_weight * flow_nll / n + disc_weight * disc_loss

    def eval_loss(self, x: np.ndarray, labels: np.ndarray,
                  flow_weight: float = 1.0, disc_weight: float = 1.0) -> float:
        labels = self._check_labels(labels)
        xs, _ = self._model_space(x)
        n = xs.shape[0]
        base_out, log_det_base = self.base.forward(xs)
        flow_nll = 0.0
        for k in np.unique(labels):
            rows = np.nonzero(labels == k)[0]
            z, log_det_head = self.heads[k].forward(base_out[rows])
            log_p = gaussian_logpdf(z) + log_det_base[rows] + log_det_head
            flow_nll -= float(log_p.sum())
        p, _ = self._disc_forward(base_out, None, False)
        disc_loss, _ = bce_loss(p, labels.astype(np.float64))
        return flow_weight * flow_nll / n + disc_weight * disc_loss

    def record_class_stats(self, labels: np.ndarray) -> None:
        labels = self._check_labels(labels)
        counts = np.bincount(labels, minlength=self.n_classes).astype(np.float64)
        self.class_counts = counts
        self.class_priors = counts / counts.sum()

    def params(self) -> list[Param]:
        out = self.base.params()
        for head in self.heads:
            out += head.params()
        for block in self.disc_blocks:
            out += block.params()
        return out + self.disc_out.params()

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    # -- persistence ---------------------------------------------------------

    def to_state(self) -> tuple[dict, list]:
        meta = {
            "dim": self.dim, "n_classes": self.n_classes, "hidden": self.hidden,
            "base_depth": len(self.base.layers),
            "head_depth": len(self.heads[0].layers),
            "disc_blocks": len(self.disc_blocks),
            "dropout": self.dropout_rate,
            "has_standardizer": 1.0 if self.standardizer else 0.0,
        }
        arrays = [("class_counts", self.class_counts),
                  ("class_priors", self.class_priors)]
        arrays += _flow_stack_arrays("base", self.base)
        for k, head in enumerate(self.heads):
            arrays += _flow_stack_arrays(f"head{k}", head)
        for i, block in enumerate(self.disc_blocks):
            arrays += _dense_block_arrays(f"disc/{i}", block)
        arrays += [("disc/out/weight", self.disc_out.weight.value),
                   ("disc/out/bias", self.disc_out.bias.value)]
        arrays += _standardizer_arrays(self.standardizer)
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: list) -> "CccpDeModel":
        model = cls(int(meta["dim"]), int(meta["n_classes"]),
                    int(meta["hidden"]), int(meta["base_depth"]),
                    int(meta["head_depth"]), int(meta["disc_blocks"]),
                    float(meta["dropout"]), rng=None)
        get = _array_getter(arrays)
        model.class_counts = get("class_counts").astype(np.float64)
        model.class_priors = get("class_priors").astype(np.float64)
        _assign_flow_stack("base", model.base, get)
        for k, head in enumerate(model.heads):
            _assign_flow_stack(f"head{k}", head, get)
        for i, block in enumerate(model.disc_blocks):
            _assign_dense_block(f"disc/{i}", block, get)
        _assign_param(model.disc_out.weight, get("disc/out/weight"), "disc/out/weight")
        _assign_param(model.disc_out.bias, get("disc/out/bias"), "disc/out/bias")
        model.standardizer = _restore_standardizer(meta, get)
        get.finish()
        return model


class GlmRegressor:
    """Shared tanh trunk with linear mean and log-variance heads."""

    kind = "glm"

    def __init__(self, in_dim: int = 1, hidden: int = 64,
                 rng: Rng | None = None):
        self.dim = in_dim
        self.hidden = hidden
        self.trunk = MLP([in_dim, hidden, hidden], rng,
                         hidden_activation="tanh", output_activation="tanh")
        self.mean_head = DenseLayer(hidden, 1, rng)
        # zero-init keeps the initial variance at 1 while the mean settles
        self.log_var_head = DenseLayer(hidden, 1, zero_init=True)

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = self.trunk.forward(np.asarray(x, dtype=np.float64).reshape(-1, self.dim))
        return self.mean_head.forward(h).ravel(), self.log_var_head.forward(h).ravel()

    def predict(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point mean and standard deviation."""
        mu, log_var = self._forward(x)
        return mu, np.exp(0.5 * log_var)

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> float:
        mu, log_var = self._forward(x)
        loss, g_mu, g_log_var = gaussian_nll_loss(mu, log_var,
                                                  np.asarray(y, dtype=np.float64))
        g_h = self.mean_head.backward(g_mu[:, None])
        g_h = g_h + self.log_var_head.backward(g_log_var[:, None])
        self.trunk.backward(g_h)
        return loss

    def params(self) -> list[Param]:
        return self.trunk.params() + self.mean_head.params() + self.log_var_head.params()

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()


def train(model, dataset: Dataset, config: TrainConfig,
          rng: Rng) -> list[float]:
    """Minibatch Adam over shuffled epochs; returns the per-epoch loss trace.

    Trace entries are inference-mode losses on the full training set, so
    they are reproducible from a reloaded model.
    """
    if dataset.n_rows == 0:
        raise DomainError("cannot train on an empty dataset")
    if dataset.dim != model.dim:
        raise ShapeError(
            f"model expects {model.dim} features, dataset has {dataset.dim}")
    features, labels = dataset.features, dataset.labels
    if isinstance(model, CccpDeModel):
        model.record_class_stats(labels)
    adam = AdamState(config.learning_rate)
    params = model.params()
    n = dataset.n_rows
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            model.zero_grads()
            model.loss_and_grads(features[idx], labels[idx], rng=rng,
                                 training=True,
                                 flow_weight=config.flow_weight,
                                 disc_weight=config.disc_weight)
            adam.step(params)
        trace.append(model.eval_loss(features, labels,
                                     config.flow_weight, config.disc_weight))
    return trace


def glm_fit_and_predict(x: np.ndarray, y: np.ndarray, config: TrainConfig,
                        rng: Rng) -> tuple[np.ndarray, np.ndarray, GlmRegressor]:
    """Train a fresh Gaussian regressor and return (mean, std) per input."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise DomainError("cannot fit a regressor on empty data")
    if x.shape != y.shape:
        raise ShapeError(f"x shape {x.shape} != y shape {y.shape}")
    model = GlmRegressor(1, config.hidden, rng)
    adam = AdamState(config.learning_rate)
    params = model.params()
    n = x.size
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            model.zero_grads()
            model.loss_and_grads(x[idx], y[idx])
            adam.step(params)
    mu, sigma = model.predict(x)
    return mu, sigma, model


# -- persistence helpers -----------------------------------------------------

_KIND_CODES = {"ffnn": 1, "cccpde": 2}
_KIND_CLASSES: dict[int, type] = {}


def save_model(model, path) -> None:
    """Write a model file; load_model(path) reproduces it bit-exactly."""
    meta, arrays = model.to_state()
    write_state(path, _KIND_CODES[model.kind], meta, arrays)


def load_model(path):
    kind_code, meta, arrays = read_state(path)
    cls = _KIND_CLASSES.get(kind_code)
    if cls is None:
        raise ModelFormatError(f"unknown model kind code {kind_code}")
    return cls.from_state(meta, arrays)


class _array_getter:
    def __init__(self, arrays: list):
        self._store = {}
        for name, arr in arrays:
            if name in self._store:
                raise ModelFormatError(f"duplicate array {name!r}")
            self._store[name] = arr

    def __call__(self, name: str) -> np.ndarray:
        if name not in self._store:
            raise ModelFormatError(f"model file is missing array {name!r}")
        return self._store.pop(name)

    def finish(self) -> None:
        if self._store:
            raise ModelFormatError(
                f"model file has unexpected arrays: {sorted(self._store)}")


def _assign_param(param: Param, arr: np.ndarray, name: str) -> None:
    if arr.shape != param.value.shape:
        raise ModelFormatError(
            f"array {name!r} has shape {arr.shape}, expected {param.value.shape}")
    param.value[...] = arr


def _mlp_arrays(prefix: str, net: MLP) -> list:
    out = []
    for j, layer in enumerate(net.layers):
        out.append((f"{prefix}/{j}/weight", layer.weight.value))
        out.append((f"{prefix}/{j}/bias", layer.bias.value))
    return out


def _assign_mlp(prefix: str, net: MLP, get) -> None:
    for j, layer in enumerate(net.layers):
        _assign_param(layer.weight, get(f"{prefix}/{j}/weight"), f"{prefix}/{j}/weight")
        _assign_param(layer.bias, get(f"{prefix}/{j}/bias"), f"{prefix}/{j}/bias")


def _flow_stack_arrays(prefix: str, stack: FlowStack) -> list:
    out = []
    for i, layer in enumerate(stack.layers):
        out.append((f"{prefix}/{i}/perm", layer.perm))
        out += _mlp_arrays(f"{prefix}/{i}/scale", layer.scale_net)
        out += _mlp_arrays(f"{prefix}/{i}/shift", layer.shift_net)
    return out


def _assign_flow_stack(prefix: str, stack: FlowStack, get) -> None:
    for i, layer in enumerate(stack.layers):
        perm = get(f"{prefix}/{i}/perm").astype(np.int64)
        if sorted(perm.tolist()) != list(range(layer.dim)):
            raise ModelFormatError(
                f"array {prefix}/{i}/perm is not a permutation of range({layer.dim})")
        layer.perm = perm
        layer.inv_perm = np.argsort(perm)
        _assign_mlp(f"{prefix}/{i}/scale", layer.scale_net, get)
        _assign_mlp(f"{prefix}/{i}/shift", layer.shift_net, get)


def _dense_block_arrays(prefix: str, block: DenseBlock) -> list:
    return [
        (f"{prefix}/dense/weight", block.dense.weight.value),
        (f"{prefix}/dense/bias", block.dense.bias.value),
        (f"{prefix}/norm/gain", block.norm.gain.value),
        (f"{prefix}/norm/bias", block.norm.bias.value),
    ]


def _assign_dense_block(prefix: str, block: DenseBlock, get) -> None:
    _assign_param(block.dense.weight, get(f"{prefix}/dense/weight"),
                  f"{prefix}/dense/weight")
    _assign_param(block.dense.bias, get(f"{prefix}/dense/bias"),
                  f"{prefix}/dense/bias")
    _assign_param(block.norm.gain, get(f"{prefix}/norm/gain"),
                  f"{prefix}/norm/gain")
    _assign_param(block.norm.bias, get(f"{prefix}/norm/bias"),
                  f"{prefix}/norm/bias")


def _standardizer_arrays(standardizer: Standardizer | None) -> list:
    if standardizer is None:
        return []
    return [("standardizer/mean", standardizer.mean),
            ("standardizer/std", standardizer.std)]


def _restore_standardizer(meta: dict, get) -> Standardizer | None:
    if not meta.get("has_standardizer"):
        return None
    return Standardizer(get("standardizer/mean").astype(np.float64),
                        get("standardizer/std").astype(np.float64))


_KIND_CLASSES[1] = FfnnModel
_KIND_CLASSES[2] = CccpDeModel
