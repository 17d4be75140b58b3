"""Classification and uncertainty evaluation.

ROC curves sweep the unique scores with half-credit on ties, so the area
matches the rank-based pair-counting statistic exactly. Equal scores tie,
infinite ones included, and every nan score sits in one tie group ranked
below -inf, so the area never depends on row order. The posterior's
abstain flags partition the samples once and the same retained set is
applied to every scorer, keeping before/after curves comparable across
models. Every CSV is written by `data.write_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import PosteriorBatch
from .data import binary_labels, write_csv
from .errors import DomainError, ShapeError
from .numerics import logsumexp

NO_SUPPORT = -1  # classification outcome when every class has zero density


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep (score >= threshold predicts positive) plus its area."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC over unique score thresholds; trapezoid area, ties get half credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(
            f"scores {scores.shape} and labels {labels.shape} must be equal 1-D")
    labels = binary_labels(labels)
    pos_total = int(np.sum(labels == 1))
    neg_total = int(np.sum(labels == 0))
    if pos_total == 0 or neg_total == 0:
        raise DomainError("ROC needs at least one sample of each class")
    # descending, with every nan last
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(np.float64)
    # group indices where a run of tied scores ends; a nan is followed
    # only by nans, so the nan run is one group
    ends = np.nonzero((sorted_scores[1:] != sorted_scores[:-1])
                      & ~np.isnan(sorted_scores[:-1]))[0]
    ends = np.concatenate([ends, [scores.size - 1]])
    cum_tp = np.cumsum(sorted_pos)[ends]
    cum_fp = (ends + 1.0) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / pos_total])
    fpr = np.concatenate([[0.0], cum_fp / neg_total])
    thresholds = np.concatenate([[np.inf], sorted_scores[ends]])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))
    return RocCurve(fpr, tpr, thresholds, auc)


def ratio_test_classify(log_densities: np.ndarray,
                        log_priors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prior-weighted maximum-likelihood classification of (n, 2) densities.

    Returns (predictions, scores). Rows where both classes have zero
    density get the NO_SUPPORT outcome instead of an arbitrary class. The
    score is the log odds (class 1 minus class 0); it is nan on NO_SUPPORT
    rows. Ties break toward class 0.
    """
    log_densities = np.atleast_2d(np.asarray(log_densities, dtype=np.float64))
    log_priors = np.asarray(log_priors, dtype=np.float64).reshape(-1)
    if log_densities.shape[1] != 2 or log_priors.size != 2:
        raise ShapeError(
            f"binary classification needs (n, 2) log-densities and 2 priors, "
            f"got {log_densities.shape} and {log_priors.size}")
    adjusted = log_densities + log_priors[None, :]
    predictions = np.argmax(adjusted, axis=1).astype(np.int64)
    no_support = np.all(np.isneginf(adjusted), axis=1)
    predictions[no_support] = NO_SUPPORT
    with np.errstate(invalid="ignore"):
        scores = adjusted[:, 1] - adjusted[:, 0]
    scores[no_support] = np.nan
    return predictions, scores


def filter_by_uncertainty(batch: PosteriorBatch) -> tuple[np.ndarray, np.ndarray]:
    """Partition sample indices by the batch's abstain flags, stable order.

    The posterior decided abstention once, against its own threshold;
    abstaining samples are rejected.
    """
    abstain = np.asarray(batch.abstain, dtype=bool)
    return np.nonzero(~abstain)[0], np.nonzero(abstain)[0]


def filtered_roc_comparison(labels: np.ndarray,
                            scores_by_scorer: dict[str, np.ndarray],
                            batch: PosteriorBatch,
                            ) -> tuple[dict[str, tuple[RocCurve | None,
                                                       RocCurve | None]],
                                       np.ndarray, np.ndarray]:
    """Full vs retained ROC per scorer, under one shared retained set.

    The retained set comes from the abstain flags alone, so every scorer
    is filtered identically. A row set without both classes has no curve:
    the full curve is None when the labels lack a class, the retained
    curve when the retained set does.
    """
    labels = binary_labels(labels)
    n = labels.shape[0]
    if len(batch) != n:
        raise ShapeError(f"{len(batch)} reports for {n} labels")
    for name, scores in scores_by_scorer.items():
        if np.asarray(scores).shape[0] != n:
            raise ShapeError(
                f"scorer {name!r} has {np.asarray(scores).shape[0]} scores "
                f"for {n} labels")
    retained, rejected = filter_by_uncertainty(batch)
    kept = labels[retained]
    full_both, kept_both = (bool(np.any(rows == 0) and np.any(rows == 1))
                            for rows in (labels, kept))
    curves = {}
    for name, scores in scores_by_scorer.items():
        scores = np.asarray(scores, dtype=np.float64)
        curves[name] = (roc_auc(scores, labels) if full_both else None,
                        roc_auc(scores[retained], kept) if kept_both else None)
    return curves, retained, rejected


def in_set_score(model, x: np.ndarray) -> np.ndarray:
    """Maximum per-class log-density; high for supported points."""
    return model.log_densities(x).max(axis=1)


def density_grid(model, bounds: tuple[float, float, float, float],
                 resolution: int):
    """Per-class and prior-weighted total log-densities on a 2-D grid.

    Returns (x grid, y grid, points, per-class log-densities, total
    log-density); point rows vary x fastest.
    """
    if model.dim != 2:
        raise DomainError(f"density grids need a 2-D model, got dim {model.dim}")
    if resolution < 2:
        raise DomainError(f"resolution must be >= 2, got {resolution}")
    x_min, x_max, y_min, y_max = bounds
    if not (x_max > x_min and y_max > y_min):
        raise DomainError(f"degenerate bounds {bounds}")
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)
    points = np.column_stack([np.tile(xs, resolution), np.repeat(ys, resolution)])
    log_d = model.log_densities(points)
    with np.errstate(divide="ignore"):
        log_priors = np.log(model.class_priors)
    total = logsumexp(log_d + log_priors[None, :], axis=1)
    return xs, ys, points, log_d, total


# -- CSV export ---------------------------------------------------------------


def write_roc_csv(curve: RocCurve, path) -> None:
    write_csv(path, ["fpr", "tpr", "threshold"],
              [curve.fpr, curve.tpr, curve.thresholds])


def write_reports_csv(path, labels, score_ffnn, score_sigmoid,
                      batch: PosteriorBatch) -> None:
    log_d = batch.log_densities
    write_csv(path, ["index", "label", "score_ffnn", "score_sigmoid",
                     "logp_class0", "logp_class1", "post_mean", "ci_lo",
                     "ci_hi", "abstain"],
              [np.arange(len(batch)), np.asarray(labels).astype(np.int64),
               score_ffnn, score_sigmoid, log_d[:, 0], log_d[:, 1],
               batch.mean, batch.lo, batch.hi, batch.abstain])


def write_density_grid_csv(path, xs, ys, log_d, total) -> None:
    """Rows vary x fastest, as the points of `density_grid` do."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    write_csv(path, ["x", "y", *(f"logp_{k}" for k in range(log_d.shape[1])),
                     "logp_total"],
              [np.tile(xs, ys.size), np.repeat(ys, xs.size), *log_d.T, total])
