import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cccpde.cli as cli
import cccpde.evaluate as ev
import cccpde.model
from cccpde.bayes import BetaPosterior, posterior_reports
from cccpde.cli import build_parser, main
from cccpde.data import (
    Dataset,
    composite_components,
    gen_mixture,
    load_csv,
    regression_true_mean,
    save_csv,
)
from cccpde.model import CccpDeModel, FfnnModel, load_model, save_model
from cccpde.numerics import Rng
from cccpde.serialize import read_state, write_state

from helpers import (
    far_rows,
    perturbed,
    rel_err,
    reference_write_glm_demo_csv,
    reference_write_reports_csv,
    reference_write_trace_csv,
)


SUBCOMMANDS = ["gen-data", "train", "eval", "sample", "density-grid",
               "glm-demo"]

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*args):
    return main([str(a) for a in args])


def check_quick_start_parses(readme: str) -> None:
    """Every `cccpde ...` line of the README quick start, with `\\`
    continuations joined, parses with `build_parser()`."""
    block = readme.split("## Quick start", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip()]
    assert all(line.startswith("cccpde ") for line in lines)
    commands = [shlex.split(line)[1:] for line in lines]
    assert [argv[0] for argv in commands] == [
        "gen-data", "train", "train", "eval", "sample", "density-grid",
        "glm-demo"]
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0]


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

    def test_trace_bytes_match_per_epoch_formatter(self, toy_run, tmp_path,
                                                   monkeypatch):
        traces = []

        def recording_train(*args, **kwargs):
            traces.append(cli_train(*args, **kwargs))
            return traces[-1]

        # each subcommand imports its library names when it runs, so the
        # library attribute is the one to patch
        cli_train = cccpde.model.train
        monkeypatch.setattr(cccpde.model, "train", recording_train)
        out = tmp_path / "m.bin"
        assert run("train", "--model", "ffnn",
                   "--data", toy_run["data"] / "train.csv", "--out", out,
                   "--epochs", 3, "--hidden", 8) == 0
        reference_write_trace_csv(traces[0][0], tmp_path / "old.csv")
        new = out.with_suffix(".trace.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == 1 + 3

    def test_reload_reproduces_final_loss(self, toy_run):
        text = toy_run["cc"].with_suffix(".final_loss.txt").read_text()
        key, value = text.split(" = ")
        assert key == "final_loss"
        final = float(value)
        model = load_model(toy_run["cc"])
        ds = load_csv(toy_run["data"] / "train.csv")
        again = model.eval_loss(ds.features, ds.labels)
        assert abs(again - final) < 1e-12

    @pytest.mark.parametrize("flag, value, kind", [
        ("--epochs", "two", "int"),
        ("--learning-rate", "fast", "float"),
    ], ids=["epochs", "learning-rate"])
    def test_mistyped_value_is_usage_error(self, toy_run, tmp_path, capsys,
                                           flag, value, kind):
        with pytest.raises(SystemExit) as exc:
            run("train", "--model", "ffnn",
                "--data", toy_run["data"] / "train.csv",
                "--out", tmp_path / "m" / "model.bin", flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid {kind} value: {value!r}" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_standardize_flag_is_usage_error(self, toy_run, tmp_path):
        # every model standardizes its inputs; train fits the standardizer
        with pytest.raises(SystemExit) as exc:
            run("train", "--model", "cccpde", "--data",
                toy_run["data"] / "train.csv", "--out", tmp_path / "m.bin",
                "--no-standardize")
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rows, value", [(1, 1e160), (2, 1e308)],
                             ids=["std-overflows", "mean-overflows"])
    def test_non_finite_standardizer_is_runtime_error(self, tmp_path, capsys,
                                                      rows, value):
        ds = gen_mixture(composite_components(100), seed=53)
        ds.features[:rows, 1] = value
        data = tmp_path / "huge.csv"
        save_csv(ds, data)
        out = tmp_path / "m" / "model.bin"
        assert run("train", "--model", "cccpde", "--data", data, "--out", out,
                   "--epochs", 1, "--hidden", 4) == 1
        assert "feature column 'f1' has no finite mean and std" in \
            capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [data]

    def test_missing_data_is_runtime_error(self, tmp_path):
        assert run("train", "--model", "ffnn", "--data",
                   tmp_path / "nope.csv", "--out", tmp_path / "m.bin") == 1

    @pytest.mark.parametrize("model", ["cccpde", "ffnn"])
    def test_three_class_csv_is_runtime_error(self, tmp_path, capsys, model):
        data = tmp_path / "three.csv"
        rows = [f"{k % 3},{0.1 * k},{-0.2 * k}" for k in range(9)]
        data.write_text("label,f0,f1\n" + "\n".join(rows) + "\n")
        out = tmp_path / "m" / "model.bin"
        assert run("train", "--model", model, "--data", data, "--out", out,
                   "--epochs", 1, "--hidden", 4) == 1
        assert "label 2 is not 0 or 1 (line 4)" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("flag, value, message", [
        ("--hidden", 0, "network sizes must be positive"),
        ("--head-depth", 0, "network sizes must be positive"),
        ("--disc-blocks", 0, "network sizes must be positive"),
        ("--dropout", 1.0, "dropout must lie in"),
    ], ids=["hidden", "head-depth", "disc-blocks", "dropout"])
    def test_invalid_size_is_runtime_error(self, toy_run, tmp_path, capsys,
                                           flag, value, message):
        assert run("train", "--model", "cccpde",
                   "--data", toy_run["data"] / "train.csv",
                   "--out", tmp_path / "m.bin", flag, value) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["cccpde", "ffnn", "glm-demo"])
    def test_non_finite_learning_rate_is_runtime_error(
            self, toy_run, tmp_path, capsys, command, rate):
        if command == "glm-demo":
            args = ["glm-demo", "--out", tmp_path / "glm", "--epochs", 1]
        else:
            args = ["train", "--model", command, "--data",
                    toy_run["data"] / "train.csv", "--out", tmp_path / "m.bin",
                    "--epochs", 1, "--hidden", 4]
        assert run(*args, "--learning-rate", rate) == 1
        assert "learning rate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_loss_weights_are_usage_errors(self, toy_run, tmp_path):
        # the joint loss is the fixed sum flow NLL + BCE
        for flag in ("--flow-weight", "--disc-weight"):
            with pytest.raises(SystemExit) as exc:
                run("train", "--model", "cccpde", "--data",
                    toy_run["data"] / "train.csv", "--out", tmp_path / "m.bin",
                    flag, 1)
            assert exc.value.code == 2


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

    def test_retained_set_without_a_class_keeps_unfiltered_curves(
            self, toy_run, tmp_path, capsys):
        # a tiny volume gives near-zero counts, so every row abstains
        out = tmp_path / "e"
        assert run("eval", "--model", toy_run["cc"],
                   "--data", toy_run["data"] / "test.csv", "--out", out,
                   "--volume", 1e-12) == 0
        captured = capsys.readouterr()
        assert "warning: retained set lacks a class" in captured.err
        assert "retained 0, rejected 600 of 600" in captured.out
        assert (out / "roc.csv").exists() and (out / "roc_ratio.csv").exists()
        assert not list(out.glob("*_filtered.csv"))

    def test_one_class_test_set_writes_reports(self, tmp_path, capsys):
        # the openset preset's held-out rows are all class 0
        data = tmp_path / "os"
        assert run("gen-data", "--preset", "openset", "--out", data,
                   "--train-size", 200, "--test-size", 50) == 0
        model = tmp_path / "m.bin"
        assert run("train", "--model", "cccpde", "--data", data / "train.csv",
                   "--out", model, "--epochs", 2, "--hidden", 8) == 0
        heldout = load_csv(data / "heldout.csv")
        assert set(heldout.labels.tolist()) == {0}
        capsys.readouterr()
        out = tmp_path / "e"
        assert run("eval", "--model", model, "--data", data / "heldout.csv",
                   "--out", out, "--volume", 0.6) == 0
        captured = capsys.readouterr()
        assert "warning: test set lacks a class" in captured.err
        assert "auc" not in captured.out
        assert f"of {heldout.n_rows} (threshold 0.1)" in captured.out
        assert sorted(p.name for p in out.iterdir()) \
            == ["config_used.txt", "reports.csv"]
        rows = (out / "reports.csv").read_text().splitlines()[1:]
        assert len(rows) == heldout.n_rows

    def test_base_rate_prior_matches_library_path(self, toy_run, tmp_path):
        out = tmp_path / "e"
        assert run("eval", "--model", toy_run["cc"],
                   "--data", toy_run["data"] / "test.csv", "--out", out,
                   "--volume", 8.0, "--base-rate", 0.25,
                   "--prior-strength", 4) == 0
        model = load_model(toy_run["cc"])
        ds = load_csv(toy_run["data"] / "test.csv")
        log_d, sigmoid = model.forward(ds.features)
        batch = posterior_reports(log_d, model.class_counts,
                                  BetaPosterior(1.0, 3.0), 8.0)
        ev.write_reports_csv(tmp_path / "ref.csv", ds.labels,
                             np.full(ds.n_rows, np.nan), sigmoid, batch)
        assert (out / "reports.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()
        assert "prior = Beta(1.0, 3.0)\n" in (out / "config_used.txt").read_text()
        # the default base rate and strength give the uniform prior
        default_log = (toy_run["eval"] / "config_used.txt").read_text()
        assert "prior = Beta(1.0, 1.0)\n" in default_log

    def test_prior_shape_keys_are_gone(self, toy_run, tmp_path):
        args = ["eval", "--model", toy_run["cc"],
                "--data", toy_run["data"] / "test.csv", "--out", tmp_path / "e"]
        for flag in ("--prior-a", "--prior-b"):
            with pytest.raises(SystemExit) as exc:
                run(*args, flag, 1)
            assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["eval", "sample", "density-grid"])
    def test_baseline_model_is_runtime_error(self, toy_run, tmp_path, capsys,
                                             command):
        extra = ["--data", toy_run["data"] / "test.csv"] \
            if command == "eval" else []
        assert run(command, "--model", toy_run["ffnn"], *extra,
                   "--out", tmp_path / "o") == 1
        assert f"{toy_run['ffnn']} is not a density-estimator model" \
            in capsys.readouterr().err

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

    def test_extreme_rows_abstain_without_warnings(self, toy_run, tmp_path):
        # z * z and the disc and baseline LayerNorm variances overflow on
        # these rows; both log-densities are -inf and the row abstains
        data = tmp_path / "extreme.csv"
        data.write_text("label,f0,f1\n0,1e300,-1e300\n1,-1e300,1e300\n"
                        "0,0.5,0.1\n1,1e300,1e300\n")
        out = tmp_path / "e"
        assert run("eval", "--model", toy_run["cc"], "--ffnn", toy_run["ffnn"],
                   "--data", data, "--out", out) == 0
        model, baseline = load_model(toy_run["cc"]), load_model(toy_run["ffnn"])
        ds = load_csv(data)
        with np.errstate(over="ignore"):
            log_d, sigmoid = model.forward(ds.features)
            ffnn = baseline.score(ds.features)
        batch = posterior_reports(log_d, model.class_counts,
                                  BetaPosterior(1.0, 1.0),
                                  cli._default_volume(model))
        reference_write_reports_csv(tmp_path / "ref.csv", ds.labels, ffnn,
                                    sigmoid, log_d, batch)
        assert (out / "reports.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()
        rows = [r.split(",") for r in
                (out / "reports.csv").read_text().splitlines()[1:]]
        assert [r[4:6] + r[-1:] for r in rows[:2] + rows[3:]] \
            == [["-inf", "-inf", "1"]] * 3
        # the three no-support rows share one nan threshold
        roc = (out / "roc_ratio.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in roc].count("nan") == 1

    def test_large_volume_succeeds(self, toy_run, tmp_path):
        # pseudo-counts near 1e6 and beyond once broke the incomplete beta
        out = tmp_path / "e"
        assert run("eval", "--model", toy_run["cc"],
                   "--data", toy_run["data"] / "test.csv",
                   "--out", out, "--volume", 1e6) == 0
        rows = (out / "reports.csv").read_text().splitlines()[1:]
        lo_hi = np.array([[float(c) for c in r.split(",")[7:9]] for r in rows])
        assert np.all(np.isfinite(lo_hi)) and np.all(lo_hi[:, 0] <= lo_hi[:, 1])


class TestFailedRunWritesNothing:
    """Settings and inputs are checked before the output directory is made."""

    @pytest.mark.parametrize("command, flag, value, message", [
        ("eval", "--base-rate", 1.5, "base rate must lie in (0, 1)"),
        ("eval", "--threshold", 0, "threshold must be positive"),
        ("eval", "--mass", 1, "mass must lie in (0, 1)"),
        ("eval", "--volume", -1, "volume must be positive and finite"),
        ("gen-data", "--train-size", 1,
         "train_size must be even and >= 4 for preset 'composite', got 1"),
        ("gen-data", "--train-size", 2,
         "train_size must be even and >= 4 for preset 'composite', got 2"),
        ("gen-data", "--test-size", 5,
         "test_size must be even and >= 4 for preset 'composite', got 5"),
    ], ids=["base-rate", "threshold", "mass", "volume", "train-size",
            "composite-train-size", "odd-test-size"])
    def test_invalid_setting(self, toy_run, tmp_path, capsys, command, flag,
                             value, message):
        out = tmp_path / "out"
        if command == "eval":
            args = ["eval", "--model", toy_run["cc"],
                    "--data", toy_run["data"] / "test.csv"]
        else:
            args = ["gen-data", "--preset", "composite"]
        assert run(*args, "--out", out, flag, value) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_eval_on_wrong_dimension(self, toy_run, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("label,f0,f1,f2\n0,0.1,0.2,0.3\n1,0.4,0.5,0.6\n")
        out = tmp_path / "out"
        assert run("eval", "--model", toy_run["cc"], "--data", data,
                   "--out", out) == 1
        assert "expects (n, 2) input, got (2, 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_on_zero_standardizer_std(self, toy_run, tmp_path, capsys):
        kind, arrays = read_state(toy_run["cc"])
        model = tmp_path / "bad.bin"
        write_state(model, kind,
                    [(n, np.array([1.0, 0.0]) if n == "standardizer/std"
                      else a) for n, a in arrays])
        out = tmp_path / "out"
        assert run("eval", "--model", model,
                   "--data", toy_run["data"] / "test.csv", "--out", out) == 1
        assert "standardizer/std" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_on_nan_weight(self, toy_run, tmp_path, capsys):
        kind, arrays = read_state(toy_run["cc"])
        name = "head1/0/net/1/weight"
        model = tmp_path / "bad.bin"
        write_state(model, kind,
                    [(n, np.where(a == a.flat[0], np.nan, a) if n == name
                      else a) for n, a in arrays])
        out = tmp_path / "out"
        assert run("eval", "--model", model,
                   "--data", toy_run["data"] / "test.csv", "--out", out) == 1
        assert f"array {name} is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestSampleAndGrid:
    def test_sample_rows_and_density(self, toy_run, tmp_path):
        out = tmp_path / "samples.csv"
        assert run("sample", "--model", toy_run["cc"], "--class-index", 1,
                   "--count", 10, "--out", out, "--seed", 4) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a one-class file is valid
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

    def test_bytes_match_per_point_formatter(self, tmp_path, monkeypatch):
        models = []

        def recording_fit(*args, **kwargs):
            models.append(cli_fit(*args, **kwargs))
            return models[-1]

        cli_fit = cccpde.model.glm_fit_and_predict
        monkeypatch.setattr(cccpde.model, "glm_fit_and_predict", recording_fit)
        out = tmp_path / "glm"
        assert run("glm-demo", "--out", out, "--seed", 7, "--train-size", 300,
                   "--epochs", 5, "--grid-size", 133) == 0
        grid = np.linspace(-3.0, 3.0, 133)
        mu, sigma = models[0].predict(grid)
        reference_write_glm_demo_csv(tmp_path / "old.csv", grid, mu, sigma,
                                     regression_true_mean(grid))
        assert (out / "glm_demo.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

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


class TestConfigLog:
    """A run logs its settings, its named arguments and what it derived."""

    @pytest.mark.parametrize("command, named, derived", [
        ("gen-data", ["out", "preset"], []),
        ("train", ["data", "model", "out"], []),
        ("eval", ["data", "ffnn", "model", "out"], ["prior", "resolved_volume"]),
        ("sample", ["model", "out"], []),
        ("density-grid", ["bounds", "model", "out"], []),
        ("glm-demo", ["out"], []),
    ], ids=SUBCOMMANDS)
    def test_flag_only_run_logs_exactly(self, toy_run, tmp_path, command,
                                        named, derived):
        data, out = toy_run["data"], tmp_path / "out"
        argv, log, settings = {
            "gen-data": (["--preset", "separable", "--train-size", 20],
                         out / "config_used.txt", cli._GEN_SETTINGS),
            "train": (["--model", "ffnn", "--data", data / "train.csv",
                       "--epochs", 1, "--hidden", 4],
                      out.with_suffix(".config.txt"), cli._TRAIN_SETTINGS),
            "eval": (["--model", toy_run["cc"], "--ffnn", toy_run["ffnn"],
                      "--data", data / "test.csv"],
                     out / "config_used.txt", cli._EVAL_SETTINGS),
            "sample": (["--model", toy_run["cc"], "--count", 3],
                       out.with_suffix(".config.txt"), cli._SAMPLE_SETTINGS),
            "density-grid": (["--model", toy_run["cc"], "--resolution", 5],
                             out.with_suffix(".config.txt"), cli._GRID_SETTINGS),
            "glm-demo": (["--train-size", 20, "--epochs", 1, "--grid-size", 5],
                         out / "config_used.txt", cli._GLM_SETTINGS),
        }[command]
        assert run(command, *argv, "--out", out) == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert keys == sorted([*settings, *named, *derived])
        values = dict(line.split(" = ", 1) for line in lines)
        assert values["out"] == str(out)
        for key, (default, _) in settings.items():
            if f"--{key.replace('_', '-')}" not in argv:
                assert values[key] == str(default), key


class TestParser:
    def test_option_strings_per_subcommand(self):
        common = ["--help", "--out", "-h"]
        expected = {
            "gen-data": ["--preset", "--seed", "--test-size", "--train-size"],
            "train": ["--base-depth", "--batch-size", "--data",
                      "--disc-blocks", "--dropout", "--epochs",
                      "--ffnn-blocks", "--head-depth", "--hidden",
                      "--learning-rate", "--model", "--seed"],
            "eval": ["--base-rate", "--data", "--ffnn", "--mass", "--model",
                     "--prior-strength", "--threshold", "--volume"],
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

    @pytest.mark.parametrize("command, required", [
        ("gen-data", ["--preset", "composite"]),
        ("train", ["--model", "ffnn", "--data", "train.csv"]),
        ("eval", ["--model", "m.bin", "--data", "test.csv"]),
        ("sample", ["--model", "m.bin"]),
        ("density-grid", ["--model", "m.bin"]),
        ("glm-demo", []),
    ], ids=SUBCOMMANDS)
    def test_config_flag_is_usage_error(self, tmp_path, capsys, command,
                                        required):
        # settings are flags only; there is no config-file input
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(command, *required, "--out", out, "--config", cfg)
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_quick_start_parses(self):
        check_quick_start_parses(README.read_text(encoding="utf-8"))

    def test_truncated_flag_fails_the_quick_start_check(self, capsys):
        readme = README.read_text(encoding="utf-8")
        assert "--head-depth 2" in readme
        with pytest.raises(SystemExit) as exc:
            check_quick_start_parses(
                readme.replace("--head-depth 2", "--head-dept 2"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --head-dept 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--epoch", 2),
                                             ("--head-dept", 3)])
    def test_abbreviated_flag_is_usage_error(self, toy_run, tmp_path, capsys,
                                             flag, value):
        # only full flag names parse; argparse would otherwise take any
        # unambiguous prefix
        out = tmp_path / "m.bin"
        with pytest.raises(SystemExit) as exc:
            run("train", "--model", "cccpde", "--data",
                toy_run["data"] / "train.csv", "--out", out, flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_readme_flags_are_cli_options(self):
        readme = README.read_text(encoding="utf-8")
        # pip's flag in the install instructions is not ours
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) \
            - {"--no-build-isolation"}
        assert {"--model", "--volume", "--base-rate"} <= flags
        subparsers = build_parser()._subparsers._group_actions[0].choices
        options = {s for p in subparsers.values() for action in p._actions
                   for s in action.option_strings}
        assert sorted(flags - options) == []


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


@pytest.fixture(scope="module")
def far_model_files(tmp_path_factory):
    """Perturbed density and baseline model files per dimension; their
    standardizer std 0.5 turns an input of 1e308 into inf."""
    root = tmp_path_factory.mktemp("far-models")
    files = {}
    for dim in (2, 16):
        files[dim] = (root / f"cccpde{dim}.bin", root / f"ffnn{dim}.bin")
        save_model(perturbed(CccpDeModel(dim, 2, hidden=16, head_depth=2,
                                         rng=Rng(150)), 151, std=0.5),
                   files[dim][0])
        save_model(perturbed(FfnnModel(dim, 16, 2, 0.0, Rng(152)), 153,
                             std=0.5), files[dim][1])
    return files


@pytest.mark.parametrize("dim", [2, 16])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_eval_reports_every_far_row(far_model_files, tmp_path_factory, dim,
                                    data):
    # every finite row gets a report (ROADMAP item 6), with no
    # RuntimeWarning: the suite turns those into errors, and `main` would
    # then exit 1
    x = data.draw(far_rows(dim))
    labels = np.arange(x.shape[0]) % 2
    root = tmp_path_factory.mktemp("far-eval")
    save_csv(Dataset(x, labels), root / "rows.csv")
    model, baseline = far_model_files[dim]
    assert run("eval", "--model", model, "--ffnn", baseline,
               "--data", root / "rows.csv", "--out", root / "e") == 0
    rows = [r.split(",") for r in
            (root / "e" / "reports.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(x.shape[0]))
    log_d = np.array([[float(c) for c in r[4:6]] for r in rows])
    assert not np.isnan(log_d).any()
    post = np.array([[float(c) for c in r[6:9]] for r in rows])
    assert np.isfinite(post).all()
    no_support = np.isneginf(log_d).all(axis=1)
    assert all(rows[i][9] == "1" for i in np.nonzero(no_support)[0])


@settings(max_examples=10, deadline=None)
@given(x=far_rows(2, max_rows=8).filter(lambda x: x.shape[0] >= 2))
def test_train_on_far_rows_loads_or_names_the_column(tmp_path_factory, x):
    # ROADMAP item 6, train half: a model that loads and evaluates on its
    # own training rows, or exit 1 naming the column, with nothing written
    root = tmp_path_factory.mktemp("far-train")
    save_csv(Dataset(x, np.arange(x.shape[0]) % 2), root / "rows.csv")
    model = root / "m" / "cccpde.bin"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("train", "--model", "cccpde", "--data", root / "rows.csv",
                   "--out", model, "--epochs", 1, "--hidden", 4)
    if code == 0:
        load_model(model)
        assert run("eval", "--model", model, "--data", root / "rows.csv",
                   "--out", root / "e") == 0
    else:
        assert code == 1
        assert re.search(r"feature column 'f[01]' has no finite mean",
                         err.getvalue())
        assert not (root / "m").exists()


LIBRARY = {"bayes", "data", "errors", "evaluate", "flow", "model", "nn",
           "numerics", "serialize"}


def cli_imports(*args) -> tuple[int, set[str]]:
    """Run the CLI on `args` in a fresh interpreter, as `python -m cccpde`
    does; its exit code, and the cccpde submodules (by short name) and
    `numpy` that it imported."""
    probe = (
        "import runpy, sys\n"
        "sys.argv = ['cccpde', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('cccpde', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "names = [m.rpartition('.')[2] for m in sys.modules\n"
        "         if m == 'numpy' or m.startswith('cccpde.')]\n"
        "print(code, *names, file=sys.stderr)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", probe,
                           *(str(a) for a in args)],
                          capture_output=True, text=True, env=env)
    code, *names = proc.stderr.splitlines()[-1].split()
    return int(code), set(names)


class TestImports:
    """Each CLI process imports only what its subcommand runs."""

    @pytest.mark.parametrize("args", [
        ["--help"], ["gen-data", "--help"], ["train", "--epoch", "2"], [],
    ], ids=["help", "gen-data-help", "usage-error", "no-command"])
    def test_parser_alone_loads_no_numpy(self, args):
        code, modules = cli_imports(*args)
        assert code == (0 if "--help" in args else 2)
        assert modules == {"cli", "presets"}

    def test_gen_data_loads_no_model_code(self, tmp_path):
        code, modules = cli_imports("gen-data", "--preset", "separable",
                                    "--train-size", 20, "--test-size", 20,
                                    "--out", tmp_path / "d")
        assert code == 0
        assert "data" in modules
        assert modules & {"model", "nn", "flow", "serialize", "bayes",
                          "evaluate"} == set()

    @pytest.mark.parametrize("command", ["train", "sample", "glm-demo",
                                         "density-grid"])
    def test_no_posterior_code_outside_eval(self, toy_run, tmp_path,
                                            command):
        args = {
            "train": ["--model", "ffnn", "--data",
                      toy_run["data"] / "train.csv", "--epochs", 1,
                      "--hidden", 4, "--out", tmp_path / "m.bin"],
            "sample": ["--model", toy_run["cc"], "--count", 3,
                       "--out", tmp_path / "s.csv"],
            "glm-demo": ["--train-size", 20, "--epochs", 1, "--grid-size", 5,
                         "--out", tmp_path / "g"],
            "density-grid": ["--model", toy_run["cc"], "--resolution", 5,
                             "--out", tmp_path / "grid.csv"],
        }[command]
        code, modules = cli_imports(command, *args)
        assert code == 0
        assert "model" in modules
        # density-grid runs `evaluate`, whose only use of `bayes` is in
        # annotations
        assert modules & {"bayes", "evaluate"} \
            == ({"evaluate"} if command == "density-grid" else set())

    def test_eval_loads_the_posterior(self, toy_run, tmp_path):
        code, modules = cli_imports("eval", "--model", toy_run["cc"],
                                    "--data", toy_run["data"] / "test.csv",
                                    "--out", tmp_path / "e")
        assert code == 0
        assert {"numpy", "bayes", "evaluate", "model"} <= modules


class TestBlasThreads:
    """`main` pins BLAS to one thread unless the user set a count, before
    any subcommand imports numpy."""

    PROBE = (
        "import os, sys\n"
        "names = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')\n"
        "seen = []\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append([os.environ.get(n) for n in names])\n"
        "sys.meta_path.insert(0, Watch())\n"
        "from cccpde.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *seen[0])\n")

    @pytest.mark.parametrize("given, expected", [
        ({}, ["1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1"]),
    ], ids=["unset", "user-set"])
    def test_numpy_imports_with_the_thread_default(self, tmp_path, given,
                                                    expected):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(given, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, "gen-data", "--preset",
             "separable", "--train-size", "20", "--test-size", "20",
             "--out", str(tmp_path / "d")],
            capture_output=True, text=True, env=env)
        assert proc.stdout.split()[-3:] == ["0", *expected], proc.stderr
