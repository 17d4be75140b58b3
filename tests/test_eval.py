import dataclasses
import itertools

import numpy as np
import pytest

import cccpde.evaluate as ev
from cccpde.bayes import PosteriorBatch
from cccpde.data import CSV_BLOCK_ROWS
from cccpde.errors import DomainError, ShapeError
from cccpde.numerics import Rng

from helpers import (
    auc_bruteforce,
    reference_write_density_grid_csv,
    reference_write_reports_csv,
    reference_write_roc_csv,
    special_floats,
)


def make_batch(intervals, threshold=0.1, log_densities=None):
    """A batch with the given interval ends that abstains, as the posterior
    does, where the interval is wider than the threshold."""
    lo, hi = (np.array(ends, dtype=np.float64) for ends in zip(*intervals))
    n = lo.size
    if log_densities is None:
        log_densities = np.zeros((n, 2))
    return PosteriorBatch(
        log_densities=log_densities, counts=np.zeros((n, 2)),
        a=np.ones(n), b=np.ones(n), lo=lo, hi=hi,
        mean=0.5 * (lo + hi), abstain=(hi - lo) > threshold)


def grid_points(xs, ys):
    """The points of a grid over the axes `xs` and `ys`, x varying fastest."""
    return np.column_stack([np.tile(xs, ys.size), np.repeat(ys, xs.size)])


class TestRocAuc:
    def test_perfect_separation(self):
        curve = ev.roc_auc(np.array([0.9, 0.8, 0.3, 0.2]),
                           np.array([1, 1, 0, 0]))
        assert curve.auc == 1.0

    def test_three_of_four_pairs(self):
        curve = ev.roc_auc(np.array([0.9, 0.8, 0.3, 0.2]),
                           np.array([1, 0, 1, 0]))
        assert curve.auc == pytest.approx(0.75, abs=1e-15)

    def test_all_ties_is_half(self):
        curve = ev.roc_auc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0]))
        assert curve.auc == pytest.approx(0.5, abs=1e-15)

    def test_curve_invariants(self):
        rng = Rng(100)
        scores = rng.uniforms(50)
        labels = (rng.uniforms(50) > 0.4).astype(int)
        curve = ev.roc_auc(scores, labels)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.thresholds[0] == np.inf

    def test_matches_bruteforce_with_ties(self):
        rng = Rng(101)
        for _ in range(30):
            n = 2 + rng.randint_below(199)
            scores = np.round(rng.uniforms(n) * 10.0) / 10.0
            labels = (rng.uniforms(n) > 0.5).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            curve = ev.roc_auc(scores, labels)
            assert abs(curve.auc - auc_bruteforce(scores, labels)) < 1e-12

    @pytest.mark.parametrize("special", [np.nan, -np.inf, np.inf])
    def test_two_tied_special_scores_ignore_row_order(self, special):
        scores = np.array([special, special, 0.5, 0.1])
        labels = np.array([1, 0, 1, 0])
        aucs = {ev.roc_auc(scores[list(p)], labels[list(p)]).auc
                for p in itertools.permutations(range(4))}
        assert aucs == {auc_bruteforce(scores, labels)}

    def test_infinite_and_nan_ties_ignore_row_order(self):
        # equal infinities tie, and every nan sits in one group below -inf
        scores = np.array([np.nan, np.inf, -np.inf, 0.5, np.nan, -np.inf,
                           np.inf, 0.1, 0.5, np.nan, -np.inf, 0.1])
        labels = np.array([1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0])
        expected = auc_bruteforce(scores, labels)
        rng = Rng(103)
        for _ in range(30):
            order = rng.permutation(scores.size)
            curve = ev.roc_auc(scores[order], labels[order])
            assert abs(curve.auc - expected) < 1e-12
            np.testing.assert_array_equal(
                curve.thresholds, [np.inf, np.inf, 0.5, 0.1, -np.inf, np.nan])

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            ev.roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, -1], [0, 1, 0.5]])
    def test_labels_outside_zero_one_rejected(self, labels):
        # any other label would count as a false positive but not in the
        # negatives' total: [0, 1, 2] would read FPR 2.0 and AUC 2.0
        with pytest.raises(DomainError, match="row 2"):
            ev.roc_auc(np.array([0.1, 0.9, 0.5]), np.array(labels))


class TestRatioTest:
    def test_argmax_on_densities(self):
        pred, _ = ev.ratio_test_classify(np.array([[-3.0, -1.0]]),
                                         np.log([0.5, 0.5]))
        assert pred[0] == 1

    def test_prior_dominance(self):
        pred, _ = ev.ratio_test_classify(np.array([[-2.0, -2.0]]),
                                         np.log([0.9, 0.1]))
        assert pred[0] == 0

    def test_additive_invariance(self):
        rng = Rng(102)
        log_d = rng.normals(20).reshape(10, 2)
        priors = np.log([0.3, 0.7])
        base_pred, _ = ev.ratio_test_classify(log_d, priors)
        shifted_pred, _ = ev.ratio_test_classify(log_d + 11.5, priors)
        scaled_pred, _ = ev.ratio_test_classify(log_d, priors + np.log(4.0))
        assert np.array_equal(base_pred, shifted_pred)
        assert np.array_equal(base_pred, scaled_pred)

    def test_no_support_outcome(self):
        log_d = np.array([[-np.inf, -np.inf], [-1.0, -2.0]])
        pred, scores = ev.ratio_test_classify(log_d, np.log([0.5, 0.5]))
        assert pred[0] == ev.NO_SUPPORT
        assert pred[1] == 0
        assert np.isnan(scores[0])

    def test_tie_breaks_to_lower_class(self):
        pred, _ = ev.ratio_test_classify(np.array([[-1.0, -1.0]]),
                                         np.log([0.5, 0.5]))
        assert pred[0] == 0

    @pytest.mark.parametrize("columns, priors", [(3, 3), (2, 3), (3, 2)])
    def test_only_two_classes(self, columns, priors):
        with pytest.raises(ShapeError, match=r"\(n, 2\)"):
            ev.ratio_test_classify(np.zeros((2, columns)),
                                   np.log(np.full(priors, 1.0 / priors)))

    def test_binary_score_is_log_odds(self):
        _, scores = ev.ratio_test_classify(np.array([[-4.0, -1.0]]),
                                           np.log([0.25, 0.75]))
        expected = (-1.0 + np.log(0.75)) - (-4.0 + np.log(0.25))
        assert scores[0] == pytest.approx(expected, rel=1e-12)


class TestFiltering:
    def test_retention_semantics(self):
        batch = make_batch([(0.33, 0.36), (0.13, 0.55)])
        retained, rejected = ev.filter_by_uncertainty(batch)
        assert retained.tolist() == [0]
        assert rejected.tolist() == [1]

    def test_threshold_above_one_rejects_nothing(self):
        batch = make_batch([(0.0, 0.95), (0.4, 0.6)], threshold=1.0)
        retained, rejected = ev.filter_by_uncertainty(batch)
        assert rejected.size == 0
        assert retained.size == 2

    def test_partition_and_monotonicity(self):
        rng = Rng(103)
        intervals = []
        for _ in range(40):
            lo = 0.4 * rng.random()
            intervals.append((lo, lo + 0.6 * rng.random()))
        previous = set()
        for threshold in (0.05, 0.1, 0.2, 0.4, 0.8):
            batch = make_batch(intervals, threshold)
            retained, rejected = ev.filter_by_uncertainty(batch)
            merged = np.sort(np.concatenate([retained, rejected]))
            assert np.array_equal(merged, np.arange(40))
            current = set(retained.tolist())
            assert previous <= current  # raising threshold never shrinks it
            previous = current

    def test_partition_is_the_abstain_flags(self):
        # the filter reads the posterior's decision; it never re-derives it
        # from the interval range
        batch = make_batch([(0.3, 0.35), (0.1, 0.9), (0.4, 0.45)])
        flipped = dataclasses.replace(batch, abstain=~batch.abstain)
        retained, rejected = ev.filter_by_uncertainty(flipped)
        assert retained.tolist() == [1]
        assert rejected.tolist() == [0, 2]


class TestFilteredComparison:
    def test_empty_rejection_keeps_curves_identical(self):
        rng = Rng(104)
        labels = (rng.uniforms(30) > 0.5).astype(int)
        labels[0], labels[1] = 0, 1
        scores = {"only": rng.uniforms(30)}
        batch = make_batch([(0.4, 0.42)] * 30)
        curves, retained, rejected = ev.filtered_roc_comparison(
            labels, scores, batch)
        assert rejected.size == 0
        full, filtered = curves["only"]
        assert full.auc == filtered.auc
        assert np.array_equal(full.fpr, filtered.fpr)

    def test_misaligned_lengths_rejected(self):
        labels = np.array([0, 1, 0])
        batch = make_batch([(0.1, 0.15)] * 3)
        with pytest.raises(ShapeError):
            ev.filtered_roc_comparison(labels, {"s": np.zeros(2)}, batch)
        with pytest.raises(ShapeError):
            ev.filtered_roc_comparison(labels, {"s": np.zeros(3)},
                                       make_batch([(0.1, 0.15)] * 2))

    def test_retained_set_without_a_class_gives_no_filtered_curve(self):
        labels = np.array([0, 1, 0, 1, 1])
        # only the class-1 rows have narrow intervals
        batch = make_batch([(0.1, 0.9), (0.4, 0.42), (0.2, 0.8), (0.5, 0.51),
                            (0.6, 0.65)])
        scores = {"a": np.array([0.1, 0.9, 0.2, 0.8, 0.7]),
                  "b": np.array([0.5, 0.4, 0.3, 0.2, 0.1])}
        curves, retained, rejected = ev.filtered_roc_comparison(
            labels, scores, batch)
        assert retained.tolist() == [1, 3, 4]
        assert rejected.tolist() == [0, 2]
        for name, (full, filtered) in curves.items():
            assert filtered is None
            assert full.auc == ev.roc_auc(scores[name], labels).auc

    def test_labels_without_a_class_give_no_curves(self):
        batch = make_batch([(0.4, 0.42), (0.1, 0.9), (0.5, 0.51)])
        curves, retained, rejected = ev.filtered_roc_comparison(
            np.zeros(3, dtype=int), {"a": np.array([0.1, 0.9, 0.2])}, batch)
        assert curves == {"a": (None, None)}
        assert retained.tolist() == [0, 2] and rejected.tolist() == [1]
        with pytest.raises(DomainError, match="labels must be 0 or 1"):
            ev.filtered_roc_comparison(np.array([0, 2, 0]),
                                       {"a": np.zeros(3)}, batch)


class TestInSetScore:
    def test_monotone_under_head_addition(self, separable_bundle):
        model = separable_bundle["model"]
        x = separable_bundle["test"].features[:200]
        log_d = model.log_densities(x)
        assert np.all(log_d.max(axis=1) >= log_d[:, 0])
        assert np.array_equal(ev.in_set_score(model, x), log_d.max(axis=1))

    def test_training_points_score_above_faraway_points(self, separable_bundle):
        model = separable_bundle["model"]
        train = separable_bundle["train"].features
        far = train + np.array([0.0, 30.0])  # ~10 cluster sigmas away
        near_scores = ev.in_set_score(model, train[:500])
        far_scores = ev.in_set_score(model, far[:500])
        assert near_scores.mean() > far_scores.mean()


class TestDensityGrid:
    def test_resolution_two_gives_four_rows(self, separable_bundle):
        xs, ys, points, log_d, total = ev.density_grid(
            separable_bundle["model"], (-1.0, 1.0, -1.0, 1.0), 2)
        assert points.shape == (4, 2)
        assert np.array_equal(points, grid_points(xs, ys))
        assert log_d.shape == (4, 2)
        assert total.shape == (4,)

    def test_total_density_normalizes(self, separable_bundle):
        model = separable_bundle["model"]
        train = separable_bundle["train"].features
        mean, std = train.mean(axis=0), train.std(axis=0)
        bounds = (mean[0] - 6 * std[0], mean[0] + 6 * std[0],
                  mean[1] - 6 * std[1], mean[1] + 6 * std[1])
        xs, ys, _, _, total = ev.density_grid(model, bounds, 150)
        cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
        assert abs(np.exp(total).sum() * cell - 1.0) < 1e-2

    def test_mirror_symmetry_of_total_density(self, separable_bundle):
        # training mixture is symmetric under x -> -x with classes swapped,
        # so the learned total density should be roughly mirror-symmetric
        model = separable_bundle["model"]
        xs, ys, points, _, total = ev.density_grid(
            model, (-5.0, 5.0, -3.0, 3.0), 81)
        grid = total.reshape(ys.size, xs.size)
        mirrored = grid[:, ::-1]
        occupied = grid > -8.0
        gap = np.abs(grid[occupied] - mirrored[occupied])
        assert gap.mean() < 0.75

    def test_requires_two_dims(self):
        class FakeModel:
            dim = 3

        with pytest.raises(DomainError):
            ev.density_grid(FakeModel(), (0, 1, 0, 1), 10)

    def test_resolution_validated(self, separable_bundle):
        with pytest.raises(DomainError):
            ev.density_grid(separable_bundle["model"], (0, 1, 0, 1), 1)


class TestCsvWriters:
    def test_roc_csv_round_trip(self, tmp_path):
        rng = Rng(105)
        scores = rng.uniforms(40)
        labels = (rng.uniforms(40) > 0.5).astype(int)
        labels[:2] = [0, 1]
        curve = ev.roc_auc(scores, labels)
        path = tmp_path / "roc.csv"
        ev.write_roc_csv(curve, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "fpr,tpr,threshold"
        parsed = np.array([[float(c) for c in row.split(",")]
                           for row in rows[1:]])
        assert np.array_equal(parsed[:, 0], curve.fpr)
        assert np.array_equal(parsed[:, 1], curve.tpr)
        assert np.isinf(parsed[0, 2])

    def test_reports_csv_columns(self, tmp_path):
        batch = make_batch([(0.2, 0.3), (0.1, 0.9)], log_densities=np.array(
            [[-1.0, -2.0], [-3.0, -4.0]]))
        path = tmp_path / "reports.csv"
        ev.write_reports_csv(path, np.array([0, 1]), np.array([0.4, 0.6]),
                             np.array([0.3, 0.7]), batch)
        rows = path.read_text().splitlines()
        assert rows[0] == ("index,label,score_ffnn,score_sigmoid,"
                           "logp_class0,logp_class1,post_mean,ci_lo,ci_hi,"
                           "abstain")
        assert len(rows) == 3
        parsed = np.array([[float(c) for c in row.split(",")]
                           for row in rows[1:]])  # every cell must parse
        assert parsed[0, 0] == 0.0
        assert parsed[0, 6] == 0.25  # midpoint of the interval (0.2, 0.3)
        assert parsed[:, 4:6].tolist() == [[-1.0, -2.0], [-3.0, -4.0]]
        assert set(parsed[:, 9].tolist()) <= {0.0, 1.0}

    def test_bytes_match_per_scalar_formatters(self, tmp_path):
        rng = Rng(106)
        n = 200

        def col():
            return special_floats(rng, n)

        def same(write_new, write_old):
            write_new(tmp_path / "new.csv")
            write_old(tmp_path / "old.csv")
            new = (tmp_path / "new.csv").read_bytes()
            assert new == (tmp_path / "old.csv").read_bytes()
            return new

        curve = ev.RocCurve(col(), col(), np.r_[np.inf, col()[1:]], 0.5)
        same(lambda p: ev.write_roc_csv(curve, p),
             lambda p: reference_write_roc_csv(curve, p))

        lo = np.sort(rng.uniforms(n))
        log_d = np.column_stack([col(), col()])
        batch = make_batch(list(zip(lo, np.minimum(lo + 0.2, 1.0))),
                           log_densities=log_d)
        scores = (np.arange(n) % 2, np.r_[np.nan, col()[1:]], col())
        out = same(lambda p: ev.write_reports_csv(p, *scores, batch),
                   lambda p: reference_write_reports_csv(p, *scores, log_d,
                                                         batch))
        assert b"\n0,0,nan,-0.0,-0.0,-0.0," in out

        xs, ys = col()[:20], col()[:10]
        log_d, total = np.column_stack([col(), col(), col()]), col()
        same(lambda p: ev.write_density_grid_csv(p, grid_points(xs, ys),
                                                 log_d, total),
             lambda p: reference_write_density_grid_csv(p, xs, ys, log_d,
                                                        total))

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1])
    def test_bytes_match_at_block_edges(self, tmp_path, n):
        rng = Rng(107 + n)

        def col():
            return np.r_[np.nan, np.inf, -np.inf, special_floats(rng, n)][:n]

        def same(write_new, write_old):
            write_new(tmp_path / "new.csv")
            write_old(tmp_path / "old.csv")
            new = (tmp_path / "new.csv").read_bytes()
            assert new == (tmp_path / "old.csv").read_bytes()
            assert new.count(b"\n") == 1 + n

        curve = ev.RocCurve(col(), col(), col(), 0.5)
        same(lambda p: ev.write_roc_csv(curve, p),
             lambda p: reference_write_roc_csv(curve, p))

        lo = rng.uniforms(n)
        hi = lo + 0.15 * rng.uniforms(n)
        log_d = np.column_stack([col(), col()])
        batch = PosteriorBatch(
            log_densities=log_d, counts=np.zeros((n, 2)), a=np.ones(n),
            b=np.ones(n), lo=lo, hi=hi, mean=col(), abstain=(hi - lo) > 0.1)
        scores = (np.arange(n) % 2, col(), col())
        same(lambda p: ev.write_reports_csv(p, *scores, batch),
             lambda p: reference_write_reports_csv(p, *scores, log_d, batch))

        xs, ys = col(), np.array([-0.0])
        log_d, total = np.column_stack([col(), col()]), col()
        same(lambda p: ev.write_density_grid_csv(p, grid_points(xs, ys),
                                                 log_d, total),
             lambda p: reference_write_density_grid_csv(p, xs, ys, log_d,
                                                        total))
