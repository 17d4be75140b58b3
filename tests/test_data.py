import numpy as np
import pytest

from cccpde.data import (
    CSV_BLOCK_ROWS,
    PRESETS,
    Dataset,
    Standardizer,
    composite_components,
    gen_mixture,
    gen_regression_1d,
    heldout_component,
    load_csv,
    mixture_log_densities,
    overlap_components,
    preset_datasets,
    regression_true_std,
    save_csv,
    separable_components,
    write_csv,
)
from cccpde.errors import CsvFormatError, DomainError, ShapeError
from cccpde.numerics import Rng

from helpers import reference_save_csv, special_floats

# row counts around the writer's block size
EDGE_ROWS = [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1]


class TestGenMixture:
    def test_row_accounting(self):
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 100),
                          (1, (1.0, 1.0), 1.0, 100)], seed=5)
        assert ds.n_rows == 200
        assert int((ds.labels == 0).sum()) == 100
        assert int((ds.labels == 1).sum()) == 100

    def test_separable_moments(self):
        sets = preset_datasets("separable", 11, 4000, 100)
        tr = sets["train"]
        for label, center in ((0, (-2.5, 0.0)), (1, (2.5, 0.0))):
            rows = tr.features[tr.labels == label]
            se = rows.std(axis=0) / np.sqrt(rows.shape[0])
            assert np.all(np.abs(rows.mean(axis=0) - center) < 3.0 * se + 1e-9)

    def test_isotropic_moments(self):
        ds = gen_mixture([(0, (1.0, -2.0), 0.49, 20_000)], seed=9)
        assert np.abs(np.cov(ds.features.T) - 0.49 * np.eye(2)).max() < 0.02

    @pytest.mark.parametrize("var", [
        np.array([1.0, 0.5]), np.array([[1.0, 0.6], [0.6, 1.0]]), 0.0, -1.0,
        float("nan"), float("inf"),
    ], ids=["diagonal", "full", "zero", "negative", "nan", "inf"])
    def test_only_a_positive_scalar_variance(self, var):
        with pytest.raises(DomainError, match="positive finite scalar"):
            gen_mixture([(0, (0.0, 0.0), var, 10)], seed=1)

    def test_deterministic_under_seed(self):
        a = gen_mixture([(0, (0.0, 0.0), 1.0, 50)], seed=33)
        b = gen_mixture([(0, (0.0, 0.0), 1.0, 50)], seed=33)
        assert np.array_equal(a.features, b.features)

    def test_openset_heldout_excluded_from_training(self):
        sets = preset_datasets("openset", 21, 400, 400)
        held_center = np.array([0.0, 2.8])
        train_dists = np.linalg.norm(sets["train"].features - held_center,
                                     axis=1)
        held_dists = np.linalg.norm(sets["heldout"].features - held_center,
                                    axis=1)
        assert sets["heldout"].name == "openset-heldout"
        # held-out cluster occupies a region the training set never covers
        assert held_dists.mean() < 1.0 < np.percentile(train_dists, 1.0)

    def test_overlap_identical_centers_bayes_rate(self):
        comps = overlap_components(2000, separation=0.0)
        assert comps[0][1] == comps[1][1]



def wide16_like(n_rows):
    # the bench's 16-D composite: two tight clusters and a shared blob
    def center(x0):
        return np.r_[x0, np.zeros(15)]
    quarter = n_rows // 4
    return [(0, center(-3.0), 0.7, quarter), (0, center(0.0), 1.0, quarter),
            (1, center(3.0), 0.7, quarter), (1, center(0.0), 1.0, quarter)]


class TestMixtureLogDensities:
    """The true per-class log-densities, checked against scipy's normal."""

    @pytest.mark.parametrize("components", [
        # composite's odd count gives its components unequal weights
        separable_components(30), overlap_components(30, separation=1.5),
        composite_components(31), wide16_like(200),
    ], ids=["separable", "overlap", "composite", "wide16"])
    def test_matches_scipy_mixture(self, components):
        from scipy.special import logsumexp
        from scipy.stats import multivariate_normal

        dim = len(components[0][1])
        x = 3.0 * Rng(4).normals(300 * dim).reshape(300, dim)
        got = mixture_log_densities(components, x)
        assert got.shape == (300, 2)
        for k in (0, 1):
            own = [c for c in components if c[0] == k]
            rows = sum(count for *_, count in own)
            expected = logsumexp([
                np.log(count / rows) + multivariate_normal(
                    center, var * np.eye(dim)).logpdf(x)
                for _, center, var, count in own], axis=0)
            np.testing.assert_allclose(got[:, k], expected, rtol=1e-12,
                                       atol=1e-12)

    def test_class_without_components_is_minus_inf(self):
        out = mixture_log_densities([heldout_component(10)], np.zeros((3, 2)))
        assert np.isfinite(out[:, 0]).all()
        assert np.all(out[:, 1] == -np.inf)

    def test_refuses_bad_input(self):
        comps = separable_components(5)
        with pytest.raises(ShapeError, match=r"got \(4, 3\)"):
            mixture_log_densities(comps, np.zeros((4, 3)))
        with pytest.raises(DomainError, match="0 or 1, got 2"):
            mixture_log_densities(comps + [(2, (0.0, 0.0), 1.0, 5)],
                                  np.zeros((1, 2)))
        with pytest.raises(DomainError, match="positive finite scalar"):
            mixture_log_densities([(0, (0.0, 0.0), 0.0, 5)], np.zeros((1, 2)))

class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 40),
                          (1, (2.0, -1.0), 0.5, 40)], seed=7)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_bytes_match_per_scalar_formatter(self, tmp_path):
        features = special_floats(Rng(12), 300 * 3).reshape(300, 3)
        ds = Dataset(features, np.arange(300) % 2)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b"\n0,-0.0,0.0,5e-324\n" in new

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_bytes_match_at_block_edges(self, tmp_path, n):
        # an int column next to float columns, across the writer's blocks
        floats = np.r_[np.nan, np.inf, -np.inf,
                       special_floats(Rng(13 + n), 3 * n)][:3 * n]
        ds = Dataset(floats.reshape(n, 3), np.arange(n) % 2)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == 1 + n

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["label,f0,f1"] + ["0,1.0,2.0"] * 5 + ["1,3.0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CsvFormatError, match="line 7"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,abc\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0,f1\n0,1.0,{cell}\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,0.5,0.25\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(path)

    def test_wrong_feature_names(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,x,y\n0,1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="f0"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0.5,1.0\n")
        with pytest.raises(CsvFormatError, match="label"):
            load_csv(path)

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_other_than_zero_one_names_line(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0\n0,1.0\n1,2.0\n{label},3.0\n")
        with pytest.raises(CsvFormatError,
                           match=f"label {label} is not 0 or 1 \\(line 4\\)"):
            load_csv(path)


class TestWriteCsv:
    def test_header_only_for_no_rows(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"],
                  [np.zeros(0, dtype=np.int64), np.zeros(0)])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    def test_int_bool_and_float_cells(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["i", "flag", "x"],
                  [np.array([7, -2]), np.array([True, False]),
                   np.array([0.5, 3.0], dtype=np.float32)])
        assert (tmp_path / "t.csv").read_bytes() == \
            b"i,flag,x\n7,1,0.5\n-2,0,3.0\n"

    def test_one_row_of_special_values(self, tmp_path):
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                  1e308, 0.1]
        write_csv(tmp_path / "t.csv", [f"c{j}" for j in range(len(values))],
                  [np.array([v]) for v in values])
        assert (tmp_path / "t.csv").read_text().splitlines()[1] == \
            ",".join(map(repr, values))

    def test_names_must_match_columns(self, tmp_path):
        with pytest.raises(ShapeError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3)])

    @pytest.mark.parametrize("columns", [
        [np.zeros(3), np.zeros(2)], [np.zeros((3, 1)), np.zeros(3)]],
        ids=["ragged", "2-d"])
    def test_columns_must_be_1d_of_one_length(self, tmp_path, columns):
        with pytest.raises(ShapeError, match="one length"):
            write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert not (tmp_path / "t.csv").exists()


class TestStandardizer:
    def test_fit_apply_normalizes_training_data(self):
        ds = gen_mixture([(0, (5.0, -3.0), 4.0, 500)], seed=13)
        std = Standardizer.fit(ds.features)
        out = std.apply(ds.features)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-12

    def test_constant_dimension_passthrough(self):
        feats = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.warns(UserWarning, match="constant"):
            std = Standardizer.fit(feats)
        assert std.std[0] == 1.0

    def test_no_leakage_on_shifted_test_data(self):
        train = gen_mixture([(0, (0.0, 0.0), 1.0, 500)], seed=14)
        test = gen_mixture([(0, (2.0, 2.0), 1.0, 500)], seed=15)
        std = Standardizer.fit(train.features)
        out = std.apply(test.features)
        assert np.abs(out.mean(axis=0)).min() > 0.5

    def test_apply_dim_mismatch(self):
        std = Standardizer.fit(np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(ShapeError):
            std.apply(np.zeros((4, 3)))

    def test_inverse_round_trip(self):
        feats = np.random.default_rng(1).normal(3.0, 2.0, size=(64, 2))
        std = Standardizer.fit(feats)
        assert np.abs(std.inverse(std.apply(feats)) - feats).max() < 1e-12


class TestRegressionGenerator:
    def test_deterministic(self):
        x1, y1 = gen_regression_1d(100, 8)
        x2, y2 = gen_regression_1d(100, 8)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)

    def test_noise_scale_grows_with_x(self):
        x, y = gen_regression_1d(50_000, 9)
        resid = y - np.sin(x)
        inner = np.abs(x) < 0.5
        outer = np.abs(x) > 2.5
        assert resid[inner].std() < resid[outer].std()
        assert abs(resid[outer].std()
                   - regression_true_std(x[outer]).mean()) < 0.02


class TestDatasetInvariants:
    def test_label_count_must_match(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))

    def test_negative_labels_rejected(self):
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 2)), np.array([-1, 0]))

    @pytest.mark.parametrize("labels, row", [
        ([0, 1, 2], 2), ([1, -1, 0], 1), ([0, 1, 0.5], 2), ([0, np.nan, 1], 1),
    ])
    def test_labels_other_than_zero_one_name_the_row(self, labels, row):
        with pytest.raises(DomainError, match=f"0 or 1, got .* in row {row}$"):
            Dataset(np.zeros((3, 2)), np.array(labels))

    def test_unknown_preset(self):
        with pytest.raises(DomainError, match="separable"):
            preset_datasets("spiral", 0, 10, 10)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_preset_writes_every_size_it_accepts(self, preset):
        least = 4 if preset == "composite" else 2
        sets = preset_datasets(preset, 3, least, least + 2)
        assert (sets["train"].n_rows, sets["test"].n_rows) == (least, least + 2)
        for size in (least - 1, least + 1):
            with pytest.raises(DomainError, match=f"^train_size must be even "
                               f"and >= {least} .* got {size}$"):
                preset_datasets(preset, 3, size, least)
            with pytest.raises(DomainError, match=f"^test_size must be even "
                               f"and >= {least} .* got {size}$"):
                preset_datasets(preset, 3, least, size)
