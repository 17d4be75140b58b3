import subprocess
import sys

import numpy as np
import pytest

from cccpde.cli import build_parser, main
from cccpde.data import load_csv
from cccpde.model import load_model, save_model

from helpers import rel_err


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """One small end-to-end pipeline shared by the CLI tests."""
    import time

    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert run("gen-data", "--preset", "composite", "--out", data_dir,
               "--seed", 5, "--train-size", 600, "--test-size", 600) == 0
    ffnn = root / "ffnn.bin"
    cc = root / "cccpde.bin"
    t0 = time.monotonic()
    assert run("train", "--model", "ffnn", "--data", data_dir / "train.csv",
               "--out", ffnn, "--epochs", 6, "--seed", 1) == 0
    assert run("train", "--model", "cccpde", "--data", data_dir / "train.csv",
               "--out", cc, "--epochs", 6, "--seed", 2,
               "--head-depth", 2) == 0
    assert time.monotonic() - t0 < 60.0  # desk-scale training budget
    eval_dir = root / "eval"
    assert run("eval", "--model", cc, "--ffnn", ffnn,
               "--data", data_dir / "test.csv", "--out", eval_dir,
               "--volume", 8.0) == 0
    return {"root": root, "data": data_dir, "ffnn": ffnn, "cc": cc,
            "eval": eval_dir}


class TestGenData:
    def test_writes_files_and_config(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen-data", "--preset", "overlap", "--out", out,
                   "--seed", 3, "--train-size", 100, "--test-size", 80) == 0
        assert (out / "train.csv").exists()
        assert (out / "test.csv").exists()
        assert (out / "config_used.txt").exists()
        ds = load_csv(out / "train.csv")
        assert ds.n_rows == 100

    def test_openset_emits_heldout(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen-data", "--preset", "openset", "--out", out,
                   "--train-size", 60, "--test-size", 60) == 0
        assert (out / "heldout.csv").exists()

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen-data", "--preset", "spiral", "--out", tmp_path)
        assert exc.value.code == 2
        assert "separable" in capsys.readouterr().err

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("gen-data", "--preset", "separable", "--out", out,
                       "--seed", 11, "--train-size", 120,
                       "--test-size", 120) == 0
            outs.append((out / "train.csv").read_bytes())
        assert outs[0] == outs[1]


class TestTrain:
    def test_trace_has_one_row_per_epoch(self, toy_run):
        trace = (toy_run["cc"].with_suffix(".trace.csv")).read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 1 + 6

    def test_reload_reproduces_final_loss(self, toy_run):
        trace = (toy_run["cc"].with_suffix(".trace.csv")).read_text().splitlines()
        final = float(trace[-1].split(",")[1])
        model = load_model(toy_run["cc"])
        ds = load_csv(toy_run["data"] / "train.csv")
        again = model.eval_loss(ds.features, ds.labels)
        assert abs(again - final) < 1e-12

    def test_config_file_layering(self, toy_run, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2  # short run\nhidden = 8\n")
        out = tmp_path / "m.bin"
        assert run("train", "--model", "ffnn",
                   "--data", toy_run["data"] / "train.csv", "--out", out,
                   "--config", cfg, "--epochs", 1) == 0
        trace = out.with_suffix(".trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 1  # flag beats file
        log = out.with_suffix(".config.txt").read_text()
        assert "hidden = 8" in log  # file beats default

    def test_unknown_config_key_fails(self, toy_run, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epcohs = 2\n")
        assert run("train", "--model", "ffnn",
                   "--data", toy_run["data"] / "train.csv",
                   "--out", tmp_path / "m.bin", "--config", cfg) == 1

    def test_missing_data_is_runtime_error(self, tmp_path):
        assert run("train", "--model", "ffnn", "--data",
                   tmp_path / "nope.csv", "--out", tmp_path / "m.bin") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--hidden", 0, "network sizes must be positive"),
        ("--head-depth", 0, "network sizes must be positive"),
        ("--disc-blocks", 0, "network sizes must be positive"),
        ("--dropout", 1.0, "dropout must lie in"),
        ("--flow-weight", -1, "loss weights must be nonnegative"),
    ], ids=["hidden", "head-depth", "disc-blocks", "dropout", "flow-weight"])
    def test_invalid_size_is_runtime_error(self, toy_run, tmp_path, capsys,
                                           flag, value, message):
        assert run("train", "--model", "cccpde",
                   "--data", toy_run["data"] / "train.csv",
                   "--out", tmp_path / "m.bin", flag, value) == 1
        assert message in capsys.readouterr().err


class TestEval:
    def test_outputs_exist_and_parse(self, toy_run):
        out = toy_run["eval"]
        for name in ("reports.csv", "roc.csv", "roc_filtered.csv",
                     "roc_ratio.csv", "roc_ratio_filtered.csv",
                     "roc_ffnn.csv", "roc_ffnn_filtered.csv",
                     "config_used.txt"):
            assert (out / name).exists(), name
        rows = (out / "roc.csv").read_text().splitlines()
        parsed = np.array([[float(c) for c in r.split(",")]
                           for r in rows[1:]])
        assert np.all(np.diff(parsed[:, 0]) >= 0)
        assert np.all(np.diff(parsed[:, 1]) >= 0)
        assert parsed[0, 0] == 0.0 and parsed[-1, 0] == 1.0

    def test_reports_partition_test_set(self, toy_run):
        rows = (toy_run["eval"] / "reports.csv").read_text().splitlines()[1:]
        ds = load_csv(toy_run["data"] / "test.csv")
        assert len(rows) == ds.n_rows
        abstain = np.array([int(r.split(",")[-1]) for r in rows])
        assert set(abstain.tolist()) <= {0, 1}

    def test_seed_is_usage_error(self, toy_run, tmp_path):
        # eval draws no random numbers, so it takes no --seed
        with pytest.raises(SystemExit) as exc:
            run("eval", "--model", toy_run["cc"],
                "--data", toy_run["data"] / "test.csv",
                "--out", tmp_path / "e", "--seed", 1)
        assert exc.value.code == 2

    def test_missing_model_is_runtime_error(self, toy_run, tmp_path):
        assert run("eval", "--model", tmp_path / "nope.bin",
                   "--data", toy_run["data"] / "test.csv",
                   "--out", tmp_path / "e") == 1

    def test_nan_threshold_is_runtime_error(self, toy_run, tmp_path, capsys):
        assert run("eval", "--model", toy_run["cc"],
                   "--data", toy_run["data"] / "test.csv",
                   "--out", tmp_path / "e", "--threshold", "nan") == 1
        assert "threshold must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("volume", ["nan", "inf"])
    def test_non_finite_volume_is_runtime_error(self, toy_run, tmp_path,
                                                capsys, volume):
        assert run("eval", "--model", toy_run["cc"],
                   "--data", toy_run["data"] / "test.csv",
                   "--out", tmp_path / "e", "--volume", volume) == 1
        assert "volume must be positive and finite" in capsys.readouterr().err

    def test_large_volume_succeeds(self, toy_run, tmp_path):
        # pseudo-counts near 1e6 and beyond once broke the incomplete beta
        out = tmp_path / "e"
        assert run("eval", "--model", toy_run["cc"],
                   "--data", toy_run["data"] / "test.csv",
                   "--out", out, "--volume", 1e6) == 0
        rows = (out / "reports.csv").read_text().splitlines()[1:]
        lo_hi = np.array([[float(c) for c in r.split(",")[7:9]] for r in rows])
        assert np.all(np.isfinite(lo_hi)) and np.all(lo_hi[:, 0] <= lo_hi[:, 1])


class TestSampleAndGrid:
    def test_sample_rows_and_density(self, toy_run, tmp_path):
        out = tmp_path / "samples.csv"
        assert run("sample", "--model", toy_run["cc"], "--class-index", 1,
                   "--count", 10, "--out", out, "--seed", 4) == 0
        with pytest.warns(UserWarning):  # single-class file, by design
            ds = load_csv(out)
        assert ds.n_rows == 10
        assert set(ds.labels.tolist()) == {1}
        model = load_model(toy_run["cc"])
        assert np.all(np.isfinite(model.log_densities(ds.features)[:, 1]))

    def test_sample_zero_count_is_runtime_error(self, toy_run, tmp_path):
        assert run("sample", "--model", toy_run["cc"], "--count", 0,
                   "--out", tmp_path / "s.csv") == 1

    def test_sample_class_out_of_range(self, toy_run, tmp_path):
        assert run("sample", "--model", toy_run["cc"], "--class-index", 7,
                   "--count", 3, "--out", tmp_path / "s.csv") == 1

    def test_grid_rows_and_normalization(self, separable_bundle, tmp_path):
        model_path = tmp_path / "sep.bin"
        save_model(separable_bundle["model"], model_path)
        out = tmp_path / "grid.csv"
        assert run("density-grid", "--model", model_path, "--out", out,
                   "--resolution", 120) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x,y,logp_0,logp_1,logp_total"
        assert len(rows) == 1 + 120 * 120
        parsed = np.array([[float(c) for c in r.split(",")]
                           for r in rows[1:]])
        xs = np.unique(parsed[:, 0])
        ys = np.unique(parsed[:, 1])
        cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
        assert abs(np.exp(parsed[:, 4]).sum() * cell - 1.0) < 1e-2


class TestGlmDemo:
    def test_outputs_and_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("glm-demo", "--out", out, "--seed", 7,
                       "--train-size", 600, "--epochs", 40,
                       "--grid-size", 50) == 0
            outs.append((out / "glm_demo.csv").read_bytes())
        assert outs[0] == outs[1]
        rows = outs[0].decode().splitlines()
        assert rows[0] == "x,mu,sigma,y_true"
        assert len(rows) == 1 + 50

    def test_coverage_against_known_generator(self, tmp_path):
        from cccpde.data import regression_true_mean, regression_true_std
        from cccpde.numerics import Rng

        out = tmp_path / "glm"
        assert run("glm-demo", "--out", out, "--seed", 9) == 0
        rows = (out / "glm_demo.csv").read_text().splitlines()[1:]
        parsed = np.array([[float(c) for c in r.split(",")] for r in rows])
        x, mu, sigma = parsed[:, 0], parsed[:, 1], parsed[:, 2]
        fresh = (regression_true_mean(x)
                 + Rng(123).normals(x.size) * regression_true_std(x))
        coverage = np.mean((fresh >= mu - 2 * sigma)
                           & (fresh <= mu + 2 * sigma))
        assert 0.88 <= coverage <= 0.99


    def test_zero_grid_size_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "glm"
        assert run("glm-demo", "--out", out, "--grid-size", 0,
                   "--epochs", 1) == 1
        assert "grid size must be >= 1" in capsys.readouterr().err
        assert not (out / "glm_demo.csv").exists()


class TestParser:
    def test_option_strings_per_subcommand(self):
        common = ["--config", "--help", "--out", "-h"]
        expected = {
            "gen-data": ["--preset", "--seed", "--test-size", "--train-size"],
            "train": ["--base-depth", "--batch-size", "--data",
                      "--disc-blocks", "--disc-weight", "--dropout",
                      "--epochs", "--ffnn-blocks", "--flow-weight",
                      "--head-depth", "--hidden", "--learning-rate",
                      "--model", "--no-standardize", "--seed"],
            "eval": ["--base-rate", "--data", "--ffnn", "--mass", "--model",
                     "--prior-a", "--prior-b", "--prior-strength",
                     "--threshold", "--volume"],
            "sample": ["--class-index", "--count", "--model", "--seed"],
            "density-grid": ["--bounds", "--model", "--resolution"],
            "glm-demo": ["--batch-size", "--epochs", "--grid-size",
                         "--hidden", "--learning-rate", "--seed",
                         "--train-size"],
        }
        subparsers = build_parser()._subparsers._group_actions[0].choices
        assert sorted(subparsers) == sorted(expected)
        for name, own in expected.items():
            options = sorted(s for action in subparsers[name]._actions
                             for s in action.option_strings)
            assert options == sorted(common + own), name


class TestProcessEntry:
    def test_usage_error_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "cccpde"],
                              capture_output=True)
        assert proc.returncode == 2

    def test_runtime_error_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cccpde", "train", "--model", "ffnn",
             "--data", str(tmp_path / "missing.csv"),
             "--out", str(tmp_path / "m.bin")],
            capture_output=True)
        assert proc.returncode == 1
        assert b"error:" in proc.stderr
