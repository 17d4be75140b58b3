import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cccpde.evaluate as ev
from cccpde.bayes import BetaPosterior
from cccpde.data import Standardizer, gen_mixture, overlap_components
from cccpde.errors import (
    DomainError,
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
    ShapeError,
)
from cccpde.model import (
    CccpDeModel,
    FfnnModel,
    GlmRegressor,
    TrainConfig,
    glm_fit_and_predict,
    load_model,
    save_model,
    train,
)
from cccpde.flow import FlowStack, gaussian_logpdf
from cccpde.nn import (
    BLOCK_ROWS,
    AdamState,
    SigmoidHead,
    activation,
    bce_with_logits,
)
from cccpde.numerics import Rng, derive_seed
from cccpde.serialize import read_state, write_state

from helpers import (
    one_pass_logits,
    one_pass_stack_call,
    one_pass_stack_inverse,
    rel_err,
    worst_param_grad_err,
)


def small_model(dim=4, hidden=6, dropout=0.0, seed=8, head_depth=1):
    return CccpDeModel(dim, 2, hidden=hidden, base_depth=2,
                       head_depth=head_depth, disc_blocks=2,
                       dropout_rate=dropout, rng=Rng(seed))


both_models = pytest.mark.parametrize("build", [
    lambda: small_model(dim=2),
    lambda: FfnnModel(2, hidden=4, n_blocks=1, rng=Rng(9)),
], ids=["cccpde", "ffnn"])


class TestCccpDeForward:
    def test_untrained_heads_agree(self):
        # scale/shift output layers start at zero, so every head is the
        # same identity transform and all class densities coincide
        model = CccpDeModel(3, 2, hidden=8, rng=Rng(1))
        x = Rng(2).normals(15).reshape(5, 3)
        log_d, _ = model.forward(x)
        assert np.abs(log_d - log_d[:, :1]).max() == 0.0

    def test_outputs_are_pure(self):
        model = small_model()
        x = Rng(3).normals(32).reshape(8, 4)
        first = model.forward(x)
        second = model.forward(x)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_finite_for_extreme_inputs(self):
        model = small_model()
        x = np.array([[50.0, -50.0, 25.0, -25.0], [0.0, 0.0, 0.0, 0.0]])
        log_d, scores = model.forward(x)
        assert np.all(np.isfinite(log_d))
        assert np.all(np.isfinite(scores))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            small_model(dim=4).forward(np.zeros((2, 3)))

    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("kind", ["cccpde", "ffnn"])
    def test_non_2d_input_is_shape_error(self, kind, standardized):
        if kind == "cccpde":
            model = small_model(dim=2)
            calls = [model.log_densities, model.forward]
        else:
            model = FfnnModel(2, 6, 2, 0.0, Rng(8))
            calls = [model.score]
        if standardized:  # a fitted standardizer, not the identity
            model.standardizer = Standardizer(np.full(2, 0.5), np.full(2, 2.0))
        for call in calls:
            for x in (np.zeros(2), np.zeros(3), np.zeros((1, 2, 2))):
                with pytest.raises(ShapeError):
                    call(x)

    def test_log_densities_run_only_the_flows(self, monkeypatch):
        model = small_model()
        model.standardizer = Standardizer(np.full(4, 0.5), np.full(4, 2.0))
        x = Rng(4).normals(40).reshape(10, 4)
        expected = model.forward(x)[0]

        def no_disc(_):
            raise AssertionError("log_densities ran the sigmoid head")

        monkeypatch.setattr(model, "disc", no_disc)
        assert np.array_equal(model.log_densities(x), expected)


class TestStatelessInference:
    def test_forward_holds_no_row_state(self):
        # the quick-start architecture on a 150 x 150 density grid's rows
        model = CccpDeModel(2, 2, head_depth=2, rng=Rng(5))
        x = Rng(6).normals(2 * 22_500).reshape(22_500, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log_d, scores = model.forward(x)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mib = 2.0 ** 20
        # the returned arrays alone take about 0.5 MiB
        assert (after - before) / mib < 1.0
        assert (peak - before) / mib < 128.0
        assert log_d.shape == (22_500, 2) and scores.shape == (22_500,)

    @pytest.mark.parametrize("n", [22_500, 90_000])
    def test_forward_peak_stays_small_as_rows_grow(self, n):
        # the quick-start architecture; the stack and head calls run in row
        # blocks, so what grows with n is only the full-size stack outputs
        # and reductions (about 70 bytes a row), not the 64-wide hidden
        # activations; one pass peaks at about 2 KiB a row, 46 MiB at 22,500
        # rows
        model = CccpDeModel(2, 2, head_depth=2, rng=Rng(5))
        x = Rng(7).normals(2 * n).reshape(n, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log_d, scores = model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = peak - before - log_d.nbytes - scores.nbytes
        assert held / 2.0 ** 20 < 8.0


class TestTrainingMemory:
    """A training step holds only what backward reads; measured with
    tracemalloc on the quick-start model and 128-row batches."""

    def test_step_memory_above_packed_state(self):
        model = CccpDeModel(2, 2, head_depth=2, rng=Rng(5))
        params, adam = model.params(), AdamState()
        rng = Rng(6)
        x = rng.normals(256).reshape(128, 2)
        y = (rng.uniforms(128) < 0.5).astype(np.int64)

        def step():
            adam.zero_grad(params)
            model.loss_and_grads(x, y, rng=rng)
            adam.step(params)

        mib = 2.0 ** 20
        tracemalloc.start()
        try:
            adam.zero_grad(params)  # packs
            state = tracemalloc.get_traced_memory()[0]
            step()
            alive = tracemalloc.get_traced_memory()[0] - state
            tracemalloc.reset_peak()
            step()
            step()
            peak = tracemalloc.get_traced_memory()[1] - state
        finally:
            tracemalloc.stop()
        # value, grad and the two moments over 69,903 values take 2.13 MiB
        # (six vectors took 3.22), plus the two ADAM_CHUNK scratch arrays
        assert state / mib < 2.5
        # the caches left on the layers between steps (4.33 MiB when every
        # layer kept its pre-activation), and a step's high-water mark
        assert alive / mib < 3.0
        assert peak / mib < 3.5

    def test_training_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use: 1.3 MiB and about 7 ms
        script = (
            "import sys\n"
            "from cccpde.data import preset_datasets\n"
            "from cccpde.model import CccpDeModel, TrainConfig, train\n"
            "from cccpde.numerics import Rng\n"
            "sets = preset_datasets('composite', 0, 300, 10)\n"
            "train(CccpDeModel(2, 2, rng=Rng(1)), sets['train'],\n"
            "      TrainConfig(epochs=1), Rng(2))\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# row counts around the block size: one row, one block short, exact,
# a one-row remainder, and two blocks plus a short one
BLOCK_EDGE_ROWS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                   2 * BLOCK_ROWS + 3]


def perturbed(model, seed):
    """The model with every parameter moved off its initial value, so the
    zero-initialized coupling outputs transform too."""
    rng = Rng(seed)
    for p in model.params():
        p.value[...] += 0.2 * rng.normals(p.value.size).reshape(p.value.shape)
    model.standardizer = Standardizer(np.full(model.dim, 0.5),
                                      np.full(model.dim, 2.0))
    return model


class TestBlockedInference:
    """Model inference reaches the network only through the blocked stack
    and head calls, so every output equals the one-pass reference bit for
    bit."""

    @staticmethod
    def one_pass(monkeypatch, compute):
        with monkeypatch.context() as m:
            m.setattr(FlowStack, "__call__", one_pass_stack_call)
            m.setattr(FlowStack, "inverse", one_pass_stack_inverse)
            m.setattr(SigmoidHead, "logits", one_pass_logits)
            return compute()

    @staticmethod
    def labels(n):
        # the first block holds class 0 alone; later rows alternate
        return np.where(np.arange(n) < BLOCK_ROWS, 0, np.arange(n) % 2)

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    @pytest.mark.parametrize("dim", [2, 16])
    def test_cccpde_matches_one_pass(self, monkeypatch, dim, n):
        model = perturbed(CccpDeModel(dim, 2, head_depth=2, rng=Rng(120)), 121)
        x = 3.0 * Rng(122).normals(n * dim).reshape(n, dim)
        y = self.labels(n)

        def compute():
            log_d, scores = model.forward(x)
            return (log_d, scores, model.log_densities(x),
                    model.disc.logits(x),
                    np.array([model.eval_loss(x, y)]),
                    model.sample_class(1, Rng(123), n))

        for got, want in zip(compute(), self.one_pass(monkeypatch, compute)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
    def test_ffnn_matches_one_pass(self, monkeypatch, n):
        model = perturbed(FfnnModel(16, rng=Rng(124)), 125)
        x = 3.0 * Rng(126).normals(n * 16).reshape(n, 16)
        y = self.labels(n)

        def compute():
            return model.score(x), np.array([model.eval_loss(x, y)])

        for got, want in zip(compute(), self.one_pass(monkeypatch, compute)):
            assert np.array_equal(got, want)


class TestJointLoss:
    def test_weight_degeneracy(self):
        # the joint loss is the unweighted sum: mean flow NLL plus BCE
        model = small_model(seed=12)
        x = Rng(13).normals(24).reshape(6, 4)
        y = np.array([0, 1, 1, 0, 1, 0])
        log_d = model.log_densities(x)
        expected_nll = float(-log_d[np.arange(6), y].mean())
        logits = model.disc.logits(model.base(x)[0])
        assert np.array_equal(model.forward(x)[1], activation("sigmoid", logits))
        expected_bce = bce_with_logits(logits, y.astype(float))[0]
        assert model.eval_loss(x, y) == pytest.approx(expected_nll + expected_bce,
                                                      rel=1e-12)

    def test_gradients_match_finite_differences(self):
        model = small_model(seed=14)
        x = Rng(15).normals(32).reshape(8, 4)
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0])

        def run_backward():
            model.loss_and_grads(x, y)

        def eval_loss():
            return model.eval_loss(x, y)

        assert worst_param_grad_err(model.params(), run_backward,
                                    eval_loss, h=1e-6) < 1e-4

    def test_label_range_validated(self):
        model = small_model()
        with pytest.raises(DomainError):
            model.loss_and_grads(np.zeros((2, 4)), np.array([0, 2]))

    @both_models
    @pytest.mark.parametrize("method", ["loss_and_grads", "eval_loss"])
    def test_labels_other_than_zero_one_name_the_row(self, build, method):
        with pytest.raises(DomainError, match="0 or 1, got 2 in row 2$"):
            getattr(build(), method)(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_loss_decreases_over_early_steps(self):
        ds = gen_mixture([(0, (-2.0, 0.0), 0.25, 128),
                          (1, (2.0, 0.0), 0.25, 128)], seed=17)
        model = CccpDeModel(2, 2, hidden=32, rng=Rng(derive_seed(18, "init")))
        # full-batch steps so the per-epoch trace is one step per entry
        trace = train(model, ds, TrainConfig(epochs=50, batch_size=256),
                      Rng(derive_seed(18, "shuffle")))
        drops = sum(b < a for a, b in zip(trace, trace[1:]))
        assert drops >= 0.8 * (len(trace) - 1)


class TestTraining:
    def test_single_batch_single_epoch_is_one_step(self, monkeypatch):
        calls = []
        original = AdamState.step

        def counting(self, params):
            calls.append(1)
            original(self, params)

        monkeypatch.setattr(AdamState, "step", counting)
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 32),
                          (1, (1.0, 1.0), 1.0, 32)], seed=19)
        model = small_model(dim=2, seed=20)
        train(model, ds, TrainConfig(epochs=1, batch_size=64), Rng(21))
        assert len(calls) == 1

    def test_epochs_validated(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("rate", [0.0, -1e-3, np.nan, np.inf])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(DomainError, match="learning rate must be positive "
                                              "and finite"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("build, message", [
        (lambda: FfnnModel(2, n_blocks=0), "network sizes must be positive"),
        (lambda: CccpDeModel(2, hidden=0), "network sizes must be positive"),
        (lambda: FfnnModel(2, dropout_rate=1.0), "dropout must lie in"),
        (lambda: CccpDeModel(2, 3), "n_classes must be 2, got 3"),
        (lambda: CccpDeModel(2, 1), "n_classes must be 2, got 1"),
    ], ids=["ffnn-blocks", "cccpde-hidden", "ffnn-dropout", "cccpde-3-classes",
            "cccpde-1-class"])
    def test_network_settings_validated(self, build, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            build()

    def test_same_seed_bit_identical_parameters(self):
        ds = gen_mixture([(0, (-1.0, 0.0), 0.5, 96),
                          (1, (1.0, 0.0), 0.5, 96)], seed=22)
        results = []
        for _ in range(2):
            model = CccpDeModel(2, 2, hidden=16, rng=Rng(derive_seed(23, "init")))
            train(model, ds, TrainConfig(epochs=3, batch_size=32),
                  Rng(derive_seed(23, "shuffle")))
            results.append([p.value.copy() for p in model.params()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 4)], seed=1)
        empty = type(ds)(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(DomainError):
            train(small_model(dim=2), empty, TrainConfig(epochs=1), Rng(0))

    def test_dim_mismatch_rejected(self):
        ds = gen_mixture([(0, (0.0, 0.0, 0.0), 1.0, 8)], seed=1)
        with pytest.raises(ShapeError):
            train(small_model(dim=2), ds, TrainConfig(epochs=1), Rng(0))

    @both_models
    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_training_set_rejected(self, build, label):
        ds = gen_mixture([(label, (0.0, 0.0), 1.0, 8)], seed=1)
        with pytest.raises(DomainError, match=f"no rows of class {1 - label}"):
            train(build(), ds, TrainConfig(epochs=1), Rng(0))

    @both_models
    def test_train_fits_the_standardizer(self, build, tmp_path):
        ds = gen_mixture([(0, (-1.0, 3.0), 0.5, 40),
                          (1, (2.0, -1.0), 2.0, 40)], seed=40)
        fitted = Standardizer.fit(ds.features)
        plain, prefit = build(), build()
        assert np.array_equal(plain.standardizer.mean, np.zeros(2))
        assert np.array_equal(plain.standardizer.std, np.ones(2))
        prefit.standardizer = Standardizer.fit(ds.features)
        for model, name in ((plain, "plain.bin"), (prefit, "prefit.bin")):
            train(model, ds, TrainConfig(epochs=2, batch_size=32), Rng(41))
            save_model(model, tmp_path / name)
        assert plain.standardizer.mean.tobytes() == fitted.mean.tobytes()
        assert plain.standardizer.std.tobytes() == fitted.std.tobytes()
        assert ((tmp_path / "plain.bin").read_bytes()
                == (tmp_path / "prefit.bin").read_bytes())

    def test_class_stats_recorded(self):
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 30),
                          (1, (1.0, 1.0), 1.0, 90)], seed=24)
        model = small_model(dim=2, seed=25)
        train(model, ds, TrainConfig(epochs=1, batch_size=64), Rng(26))
        assert np.array_equal(model.class_counts, [30.0, 90.0])
        assert np.allclose(model.class_priors, [0.25, 0.75])


class TestTrainedQuality:
    def test_separable_ratio_accuracy(self, separable_bundle):
        model = separable_bundle["model"]
        test = separable_bundle["test"]
        log_d = model.log_densities(test.features)
        pred, _ = ev.ratio_test_classify(log_d, np.log(model.class_priors))
        assert (pred == test.labels).mean() > 0.9

    def test_loss_trace_improves(self, separable_bundle):
        trace = separable_bundle["trace"]
        assert trace[-1] < trace[0]

    def test_overlap_identical_centers_accuracy_near_chance(self):
        train_ds = gen_mixture(overlap_components(300, separation=0.0),
                               seed=derive_seed(27, "train"))
        test_ds = gen_mixture(overlap_components(300, separation=0.0),
                              seed=derive_seed(27, "test"))
        model = CccpDeModel(2, 2, hidden=32, rng=Rng(derive_seed(27, "init")))
        train(model, train_ds, TrainConfig(epochs=8, batch_size=128),
              Rng(derive_seed(27, "shuffle")))
        log_d = model.log_densities(test_ds.features)
        pred, _ = ev.ratio_test_classify(log_d, np.log(model.class_priors))
        accuracy = (pred == test_ds.labels).mean()
        assert 0.4 <= accuracy <= 0.6


class TestGlm:
    def test_coverage_on_held_out_grid(self, glm_bundle):
        mu = glm_bundle["grid_mu"]
        sigma = glm_bundle["grid_sigma"]
        fresh = glm_bundle["fresh_draws"]
        covered = (fresh >= mu - 2 * sigma) & (fresh <= mu + 2 * sigma)
        assert 0.88 <= covered.mean() <= 0.99

    def test_constant_targets_collapse_sigma(self):
        x = np.linspace(-3.0, 3.0, 400)
        y = np.full(400, 5.0)
        _, sigma, _ = glm_fit_and_predict(
            x, y, TrainConfig(epochs=200, batch_size=128), Rng(28))
        assert np.median(sigma) < 0.05

    def test_homoscedastic_sigma_recovered(self):
        rng = Rng(29)
        x = 6.0 * rng.uniforms(2000) - 3.0
        y = np.sin(x) + 0.5 * rng.normals(2000)
        _, sigma, _ = glm_fit_and_predict(
            x, y, TrainConfig(epochs=120, batch_size=128), Rng(30))
        assert 0.4 <= np.median(sigma) <= 0.6

    def test_empty_data_rejected(self):
        with pytest.raises(DomainError):
            glm_fit_and_predict(np.zeros(0), np.zeros(0),
                                TrainConfig(epochs=1), Rng(0))

    def test_variance_head_is_positive(self):
        model = GlmRegressor(16, Rng(31))
        _, sigma = model.predict(np.linspace(-2, 2, 32))
        assert np.all(sigma > 0)


class TestSerialization:
    def test_round_trip_log_densities_bit_exact(self, separable_bundle,
                                                tmp_path):
        model = separable_bundle["model"]
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        probes = Rng(32).normals(200).reshape(100, 2) * 3.0
        assert np.array_equal(back.log_densities(probes),
                              model.log_densities(probes))
        assert np.array_equal(back.forward(probes)[1],
                              model.forward(probes)[1])
        assert np.array_equal(back.class_counts, model.class_counts)

    def test_ffnn_round_trip(self, tmp_path):
        model = FfnnModel(2, 16, 2, 0.05, Rng(33))
        path = tmp_path / "ffnn.bin"
        save_model(model, path)
        back = load_model(path)
        probes = Rng(34).normals(40).reshape(20, 2)
        assert np.array_equal(back.score(probes), model.score(probes))

    @staticmethod
    def save_without_standardizer(model, path):
        """A format-1 file as saved from a model that had no standardizer:
        `has_standardizer` 0 and no standardizer arrays."""
        save_model(model, path)
        kind, meta, arrays = read_state(path)
        write_state(path, kind, {**meta, "has_standardizer": 0.0},
                    [(name, arr) for name, arr in arrays
                     if not name.startswith("standardizer/")])

    def test_file_without_standardizer_keeps_raw_space_bits(self, tmp_path):
        cc_path, ffnn_path = tmp_path / "cc.bin", tmp_path / "ffnn.bin"
        self.save_without_standardizer(perturbed(small_model(dim=3), 43),
                                       cc_path)
        self.save_without_standardizer(
            perturbed(FfnnModel(3, 6, 2, 0.0, Rng(44)), 45), ffnn_path)
        cc, ffnn = load_model(cc_path), load_model(ffnn_path)
        for model in (cc, ffnn):
            assert np.array_equal(model.standardizer.mean, np.zeros(3))
            assert np.array_equal(model.standardizer.std, np.ones(3))
        x = 3.0 * Rng(46).normals(3 * 700).reshape(700, 3)
        # the raw-space arithmetic: the networks on x itself, plus 0.0
        base_out, log_det_base = cc.base(x)
        log_d = np.empty((700, 2))
        for k, head in enumerate(cc.heads):
            z, log_det_head = head(base_out)
            log_d[:, k] = gaussian_logpdf(z) + log_det_base + log_det_head
        log_d = log_d + 0.0
        got_log_d, got_scores = cc.forward(x)
        assert got_log_d.tobytes() == log_d.tobytes()
        assert got_scores.tobytes() == cc.disc(base_out).tobytes()
        assert cc.log_densities(x).tobytes() == log_d.tobytes()
        assert ffnn.score(x).tobytes() == ffnn.head(x).tobytes()
        for k in (0, 1):
            want = cc.base.inverse(cc.heads[k].sample(Rng(47), 600))
            got = cc.sample_class(k, Rng(47), 600)
            assert got.tobytes() == want.tobytes()

    def test_corrupted_byte_is_checksum_error(self, tmp_path):
        model = small_model(dim=2, seed=35)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelChecksumError):
            load_model(path)

    def test_future_version_is_version_error(self, tmp_path):
        model = small_model(dim=2, seed=36)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_truncated_file_is_truncation_error(self, tmp_path):
        model = small_model(dim=2, seed=37)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ModelTruncatedError):
            load_model(path)

    def test_wrong_magic_is_format_error(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestLoaderChecks:
    """Model files that write_state accepts but the loader must refuse."""

    @staticmethod
    def stored(tmp_path):
        model = small_model(dim=2, seed=38)
        model.standardizer = Standardizer(np.array([1.0, -1.0]),
                                          np.array([2.0, 0.5]))
        path = tmp_path / "model.bin"
        save_model(model, path)
        return path, read_state(path)

    def rewrite_and_load(self, path, kind, meta, arrays):
        write_state(path, kind, meta, arrays)
        return load_model(path)

    def test_untouched_file_loads(self, tmp_path):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        model = self.rewrite_and_load(path, kind, meta, arrays)
        assert np.array_equal(model.standardizer.std, [2.0, 0.5])

    def test_missing_array(self, tmp_path):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        arrays = [(n, a) for n, a in arrays if n != "disc/out/bias"]
        with pytest.raises(ModelFormatError, match=re.escape("disc/out/bias")):
            self.rewrite_and_load(path, kind, meta, arrays)

    def test_extra_array(self, tmp_path):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        arrays.append(("disc/out/extra", np.zeros(3)))
        with pytest.raises(ModelFormatError, match=re.escape("disc/out/extra")):
            self.rewrite_and_load(path, kind, meta, arrays)

    def test_duplicate_array(self, tmp_path):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        arrays.append(arrays[3])
        with pytest.raises(ModelFormatError, match=re.escape(arrays[3][0])):
            self.rewrite_and_load(path, kind, meta, arrays)

    def test_wrong_shape(self, tmp_path):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        name = "base/1/scale/0/weight"
        arrays = [(n, a[:, :-1] if n == name else a) for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(name)):
            self.rewrite_and_load(path, kind, meta, arrays)

    @pytest.mark.parametrize("build", [
        lambda: small_model(dim=2, seed=38),
        lambda: FfnnModel(2, hidden=4, n_blocks=1, rng=Rng(39)),
    ], ids=["cccpde", "ffnn"])
    def test_missing_metadata(self, tmp_path, build):
        path = tmp_path / "model.bin"
        save_model(build(), path)
        kind, meta, arrays = read_state(path)
        for key in sorted(set(meta) - {"has_standardizer"}):
            dropped = {k: v for k, v in meta.items() if k != key}
            with pytest.raises(ModelFormatError,
                               match=re.escape(f"missing metadata {key!r}")):
                self.rewrite_and_load(path, kind, dropped, arrays)

    @pytest.mark.parametrize("n_classes", [1.0, 3.0])
    def test_n_classes_other_than_two(self, tmp_path, n_classes):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        assert meta["n_classes"] == 2
        with pytest.raises(ModelFormatError, match="n_classes must be 2"):
            self.rewrite_and_load(path, kind, {**meta, "n_classes": n_classes},
                                  arrays)

    def test_perm_not_a_permutation(self, tmp_path):
        path, (kind, meta, arrays) = self.stored(tmp_path)
        name = "head1/0/perm"
        arrays = [(n, np.zeros(2, dtype=np.int64) if n == name else a)
                  for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(name)):
            self.rewrite_and_load(path, kind, meta, arrays)

    @pytest.mark.parametrize("name, values", [
        ("standardizer/std", [1.0, 0.0, -2.0]),
        ("standardizer/std", [1.0, np.nan, 1.0]),
        ("standardizer/std", [1.0, np.inf, 1.0]),
        ("standardizer/mean", [0.0, np.nan, 0.0]),
    ], ids=["std-nonpositive", "std-nan", "std-inf", "mean-nan"])
    def test_standardizer_that_cannot_standardize(self, tmp_path, name,
                                                   values):
        path = tmp_path / "model.bin"
        save_model(small_model(dim=3, seed=38), path)
        kind, meta, arrays = read_state(path)
        arrays = [(n, np.array(values) if n == name else a)
                  for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(name)):
            self.rewrite_and_load(path, kind, meta, arrays)
