"""Synthetic dataset generators, CSV interchange and standardization.

The presets reproduce three uncertainty regimes on 2-D Gaussian mixtures:
cleanly separable classes, heavily overlapping classes (irreducible
ambiguity), and an open-set layout whose extra cluster never appears in
training. CSV is the only interchange format: header `label,f0,...,fK`,
one label plus float features per row. The detector is binary, so every
label is 0 or 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvFormatError, DomainError, ShapeError
from .numerics import Rng, derive_seed
from .presets import PRESETS


def binary_labels(labels) -> np.ndarray:
    """`labels` as an array, checked to hold only 0 and 1.

    The detector is binary; any other label raises a DomainError that
    names the first row holding it.
    """
    labels = np.asarray(labels)
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        row = int(np.argmax(bad))
        raise DomainError(
            f"labels must be 0 or 1, got {labels.flat[row]} in row {row}")
    return labels


@dataclass
class Dataset:
    """Feature matrix plus 0/1 class labels."""

    features: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ShapeError(
                f"label count {self.labels.shape} does not match "
                f"{self.features.shape[0]} feature rows")
        self.labels = binary_labels(self.labels).astype(np.int64)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _checked_components(components: list) -> list:
    """The components, checked, with each center as a float64 vector."""
    if not components:
        raise DomainError("mixture needs at least one component")
    dim = len(np.atleast_1d(components[0][1]))
    out = []
    for label, center, var, count in components:
        if count < 1:
            raise DomainError(f"component counts must be >= 1, got {count}")
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        if center.size != dim:
            raise ShapeError(f"center length {center.size} != dim {dim}")
        var = np.asarray(var, dtype=np.float64)
        if var.ndim != 0 or not 0.0 < var < math.inf:
            raise DomainError(f"component variance must be a positive "
                              f"finite scalar, got {var}")
        out.append((label, center, float(var), count))
    return out


def gen_mixture(components: list[tuple[int, np.ndarray, float, int]],
                seed: int, name: str = "mixture") -> Dataset:
    """Draw a labeled isotropic Gaussian mixture.

    Each component is (class label, center, variance, count); the variance
    is a positive scalar, shared by every axis. Components are emitted in
    order, deterministically under the seed.
    """
    rng = Rng(seed)
    blocks = []
    labels = []
    for label, center, var, count in _checked_components(components):
        z = rng.normals(count * center.size).reshape(count, center.size)
        blocks.append(center[None, :] + z * math.sqrt(var))
        labels.append(np.full(count, label, dtype=np.int64))
    return Dataset(np.vstack(blocks), np.concatenate(labels), name=name)


def mixture_log_densities(components: list, x: np.ndarray) -> np.ndarray:
    """Each class's true log-density at the rows of `x`, shape (n, 2), for
    a (label, center, variance, count) list as `gen_mixture` takes it: a
    class's components weighted by their shares of its rows, and -inf for
    a class with none."""
    components = _checked_components(components)
    dim = components[0][1].size
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"x must be (n, {dim}), got {x.shape}")
    binary_labels([label for label, *_ in components])
    out = np.full((x.shape[0], 2), -np.inf)
    for label, center, var, count in components:
        rows = sum(n for k, *_, n in components if k == label)
        log_p = (math.log(count / rows)
                 - 0.5 * dim * math.log(2.0 * math.pi * var)
                 - 0.5 * ((x - center) ** 2).sum(axis=1) / var)
        out[:, label] = np.logaddexp(out[:, label], log_p)
    return out


def separable_components(n_per_class: int) -> list:
    return [
        (0, (-2.5, 0.0), 0.36, n_per_class),
        (1, (2.5, 0.0), 0.36, n_per_class),
    ]


def overlap_components(n_per_class: int, separation: float = 1.0) -> list:
    half = 0.5 * separation
    return [
        (0, (-half, 0.0), 1.0, n_per_class),
        (1, (half, 0.0), 1.0, n_per_class),
    ]


def composite_components(n_per_class: int) -> list:
    """Half of each class is cleanly separable, half sits in a shared blob."""
    tight = n_per_class // 2
    loose = n_per_class - tight
    return [
        (0, (-3.0, 0.0), 0.25, tight),
        (0, (0.0, 0.0), 1.0, loose),
        (1, (3.0, 0.0), 0.25, tight),
        (1, (0.0, 0.0), 1.0, loose),
    ]


def heldout_component(count: int) -> tuple:
    # the open-set cluster; label 0 is a placeholder, these rows are
    # out-of-set by construction
    return (0, (0.0, 2.8), 0.36, count)


def preset_datasets(preset: str, seed: int, train_size: int,
                    test_size: int) -> dict[str, Dataset]:
    """Generate train/test (and for openset, heldout) datasets for a preset."""
    if preset not in PRESETS:
        raise DomainError(
            f"unknown preset {preset!r}; choose one of {', '.join(PRESETS)}")
    # half of each size goes to each class, and a composite class has
    # two components
    least = 4 if preset == "composite" else 2
    for key, size in (("train_size", train_size), ("test_size", test_size)):
        if size < least or size % 2:
            raise DomainError(
                f"{key} must be even and >= {least} for preset {preset!r}, "
                f"got {size}")
    if preset == "composite":
        make = composite_components
    elif preset == "overlap":
        make = overlap_components
    else:
        make = separable_components
    train_seed = derive_seed(seed, f"{preset}/train")
    test_seed = derive_seed(seed, f"{preset}/test")
    out = {
        "train": gen_mixture(make(train_size // 2), train_seed,
                             name=f"{preset}-train"),
        "test": gen_mixture(make(test_size // 2), test_seed,
                            name=f"{preset}-test"),
    }
    if preset == "openset":
        held_seed = derive_seed(seed, "openset/heldout")
        out["heldout"] = gen_mixture([heldout_component(test_size)], held_seed,
                                     name="openset-heldout")
    return out


CSV_BLOCK_ROWS = 16  # rows turned into Python objects at a time


def write_csv(path, header, columns) -> None:
    """Write one CSV: a header row, then one line per row, `\n` endings.

    The only place that turns numbers into CSV text. `columns` holds one
    1-D array per header name, all of one length. Integer and boolean
    columns print as ints; every other column is read as float64 and
    prints in shortest round-trip `repr`. Rows are formatted
    `CSV_BLOCK_ROWS` at a time, so no whole table is held as Python objects.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c.astype(np.int64 if c.dtype.kind in "biu" else np.float64,
                        copy=False) for c in columns]
    if len(columns) != len(header):
        raise ShapeError(f"{len(columns)} columns for {len(header)} names")
    n = columns[0].shape[0] if columns else 0
    if any(c.shape != (n,) for c in columns):
        raise ShapeError(f"columns must be 1-D of one length, got shapes "
                         f"{[c.shape for c in columns]}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            cells = [map(repr, c[start:start + CSV_BLOCK_ROWS].tolist())
                     for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def save_csv(ds: Dataset, path) -> None:
    """Write `label,f0,...,fK` rows through `write_csv`."""
    write_csv(path, ["label"] + [f"f{j}" for j in range(ds.dim)],
              [ds.labels, *ds.features.T])


def load_csv(path) -> Dataset:
    """Read a dataset CSV, validating structure line by line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or all(not line.strip() for line in lines):
        raise CsvFormatError(f"empty file: {path}")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise CsvFormatError("expected header 'label,f0,...'", line=1)
    for j, name in enumerate(header[1:]):
        if name != f"f{j}":
            raise CsvFormatError(
                f"expected feature column 'f{j}', got {name!r}", line=1)
    dim = len(header) - 1
    features = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise CsvFormatError(
                f"ragged row: expected {dim + 1} cells, got {len(cells)}",
                line=lineno)
        try:
            label = int(cells[0])
        except ValueError:
            raise CsvFormatError(
                f"non-integer label {cells[0]!r}", line=lineno) from None
        if label not in (0, 1):
            raise CsvFormatError(f"label {label} is not 0 or 1", line=lineno)
        try:
            row = [float(c) for c in cells[1:]]
        except ValueError:
            raise CsvFormatError("non-numeric feature cell", line=lineno) from None
        if not all(map(math.isfinite, row)):
            raise CsvFormatError("non-finite feature cell", line=lineno)
        labels.append(label)
        features.append(row)
    feats = np.array(features, dtype=np.float64) if features \
        else np.zeros((0, dim))
    return Dataset(feats, np.array(labels, dtype=np.int64), name=str(path))


@dataclass
class Standardizer:
    """Per-dimension mean/std fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        """Fit on `features`; a column whose mean or std is not finite (its
        sum or sum of squares overflows) raises a DomainError naming it."""
        features = np.asarray(features, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = features.mean(axis=0)
            std = features.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if np.any(bad):
            j = int(np.argmax(bad))
            raise DomainError(
                f"feature column 'f{j}' has no finite mean and std "
                f"(mean {mean[j]}, std {std[j]}); rescale it")
        degenerate = std < 1e-12
        if np.any(degenerate):
            warnings.warn(
                f"dimensions {np.nonzero(degenerate)[0].tolist()} are "
                "constant; passing them through unscaled", stacklevel=2)
            std = np.where(degenerate, 1.0, std)
        return cls(mean, std)

    def _check(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.mean.shape[0]:
            raise ShapeError(
                f"standardizer fitted on {self.mean.shape[0]} dims expects "
                f"(n, {self.mean.shape[0]}) input, got {features.shape}")
        return features

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (self._check(features) - self.mean) / self.std

    def inverse(self, features: np.ndarray) -> np.ndarray:
        return self._check(features) * self.std + self.mean

    @property
    def log_volume_scale(self) -> float:
        """log of the Jacobian of apply(); corrects densities to input space."""
        return -float(np.sum(np.log(self.std)))


def gen_regression_1d(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Heteroscedastic 1-D regression sample: y = sin(x) + noise.

    x is uniform on [-3, 3]; the noise is Gaussian with standard deviation
    0.1 + 0.1*|x|, so uncertainty grows away from the origin.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    rng = Rng(seed)
    x = 6.0 * rng.uniforms(n) - 3.0
    noise = rng.normals(n) * regression_true_std(x)
    return x, np.sin(x) + noise


def regression_true_mean(x: np.ndarray) -> np.ndarray:
    return np.sin(x)


def regression_true_std(x: np.ndarray) -> np.ndarray:
    return 0.1 + 0.1 * np.abs(x)
