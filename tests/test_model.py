import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cccpde.evaluate as ev
from cccpde.bayes import BetaPosterior, posterior_reports
from cccpde.data import (
    Standardizer,
    composite_components,
    gen_mixture,
    overlap_components,
)
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
from cccpde.flow import FlowStack
from cccpde.nn import (
    BLOCK_ROWS,
    AdamState,
    SigmoidHead,
    activation,
    bce_with_logits,
)
from cccpde.numerics import Rng, derive_seed
from cccpde.serialize import FORMAT_VERSION, MAGIC, read_state, write_state

from helpers import (
    far_rows,
    one_pass_logits,
    one_pass_stack_call,
    one_pass_stack_inverse,
    perturbed,
    reference_train,
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


@pytest.fixture(scope="module")
def far_models():
    """Perturbed models per dimension; standardizer std 0.5 turns an input
    of 1e308 into inf, and smaller far inputs overflow in the flows."""
    return {dim: (perturbed(CccpDeModel(dim, 2, hidden=16, head_depth=2,
                                        rng=Rng(140)), 141, std=0.5),
                  perturbed(FfnnModel(dim, 16, 2, 0.0, Rng(142)), 143,
                            std=0.5))
            for dim in (2, 16)}


# Every finite row gets a report (ROADMAP item 6): a row whose standardized
# input, latent or log-det is not finite has log-density -inf in both
# classes, so the prior posterior, and raises no warning (the suite turns
# RuntimeWarnings into errors). Module-level, not methods: hypothesis
# refuses one test run from several class instances.


@pytest.mark.parametrize("dim", [2, 16])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_far_rows_get_a_posterior(far_models, dim, data):
    model, baseline = far_models[dim]
    x = data.draw(far_rows(dim))
    log_d, _ = model.forward(x)
    assert not np.isnan(log_d).any()
    assert np.array_equal(model.log_densities(x), log_d)
    with np.errstate(over="ignore"):
        overflows = ~np.isfinite((x - 0.5) / 0.5).all(axis=1)
    assert np.isneginf(log_d[overflows]).all()
    batch = posterior_reports(log_d, model.class_counts,
                              BetaPosterior(1.0, 1.0), 1.0)
    assert np.isfinite(batch.lo).all() and np.isfinite(batch.hi).all()
    no_support = np.isneginf(log_d).all(axis=1)
    assert np.array_equal(batch.a[no_support], np.ones(no_support.sum()))
    assert batch.abstain[no_support].all()
    assert baseline.score(x).shape == (x.shape[0],)


@pytest.mark.parametrize("dim", [2, 16])
def test_in_range_rows_keep_their_bits(far_models, dim):
    model, baseline = far_models[dim]
    x = 3.0 * Rng(144).normals(40 * dim).reshape(40, dim)
    far = x.copy()
    far[::3] = np.where(np.arange(dim) % 2, 1e308, -1e308)
    far[1::7] = 1e250
    kept = (far == x).all(axis=1)
    want, got = model.forward(x), model.forward(far)
    for w, g in zip(want, got):
        assert np.array_equal(g[kept], w[kept])
    assert np.isneginf(got[0][~kept]).all()
    assert np.array_equal(baseline.score(far)[kept], baseline.score(x)[kept])


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
        config = TrainConfig(epochs=50, batch_size=256)
        model, twin = (CccpDeModel(2, 2, hidden=32,
                                   rng=Rng(derive_seed(18, "init")))
                       for _ in range(2))
        # full-batch steps, each followed by the inference-mode loss on the
        # full set, so the trace is one step per entry
        trace = reference_train(model, ds, config,
                                Rng(derive_seed(18, "shuffle")))
        drops = sum(b < a for a, b in zip(trace, trace[1:]))
        assert drops >= 0.8 * (len(trace) - 1)
        # the per-epoch passes change no parameter of the model `train` makes
        train(twin, ds, config, Rng(derive_seed(18, "shuffle")))
        for p, q in zip(model.params(), twin.params()):
            assert p.value.tobytes() == q.value.tobytes()


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

    def test_class_priors_derived_from_counts(self, tmp_path):
        # the priors are not stored: the counts give them, bit for bit,
        # before and after a save
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 37),
                          (1, (1.0, 1.0), 1.0, 74)], seed=27)
        model = small_model(dim=2, seed=28)
        assert model.class_priors.tolist() == [0.5, 0.5]
        train(model, ds, TrainConfig(epochs=1, batch_size=64), Rng(29))
        counts = np.bincount(ds.labels, minlength=2).astype(np.float64)
        want = (counts / counts.sum()).tobytes()
        save_model(model, tmp_path / "model.bin")
        back = load_model(tmp_path / "model.bin")
        assert model.class_priors.tobytes() == back.class_priors.tobytes() == want
        with pytest.raises(AttributeError):
            model.class_priors = np.array([0.5, 0.5])

    @pytest.mark.parametrize("build, dim", [
        (lambda dim: FfnnModel(dim, 16, 2, 0.1, Rng(derive_seed(42, "init"))), 2),
        (lambda dim: CccpDeModel(dim, 2, hidden=16, dropout_rate=0.1,
                                 rng=Rng(derive_seed(42, "init"))), 2),
        (lambda dim: CccpDeModel(dim, 2, hidden=16, dropout_rate=0.1,
                                 rng=Rng(derive_seed(42, "init"))), 16),
    ], ids=["ffnn-d2", "cccpde-d2", "cccpde-d16"])
    def test_bits_match_per_epoch_eval_reference(self, build, dim):
        centers = np.eye(dim)[0]
        ds = gen_mixture([(0, -centers, 0.5, 90), (1, centers, 0.8, 110)],
                         seed=43)
        config = TrainConfig(epochs=4, batch_size=48)
        model, ref = build(dim), build(dim)
        _, final = train(model, ds, config, Rng(derive_seed(42, "shuffle")))
        ref_trace = reference_train(ref, ds, config,
                                    Rng(derive_seed(42, "shuffle")))
        assert final == ref_trace[-1]
        for (name, a), (_, b) in zip(model.state_arrays(), ref.state_arrays()):
            assert a.tobytes() == b.tobytes(), name

    @both_models
    def test_trace_is_row_weighted_minibatch_mean(self, build, monkeypatch):
        model = build()
        losses = []
        original = type(model).loss_and_grads

        def recording(self, x, y, rng=None):
            losses.append((original(self, x, y, rng=rng), x.shape[0]))
            return losses[-1][0]

        monkeypatch.setattr(type(model), "loss_and_grads", recording)
        ds = gen_mixture([(0, (-1.0, 0.0), 0.5, 45),
                          (1, (1.0, 0.5), 0.5, 55)], seed=44)
        # 100 rows in batches of 32: three of 32 and one of 4 per epoch
        trace, _ = train(model, ds, TrainConfig(epochs=3, batch_size=32),
                         Rng(45))
        assert len(losses) == 3 * 4
        for epoch, entry in enumerate(trace):
            batches = losses[4 * epoch:4 * epoch + 4]
            assert [rows for _, rows in batches] == [32, 32, 32, 4]
            assert entry == pytest.approx(
                sum(loss * rows for loss, rows in batches) / 100, rel=1e-14)

    def test_final_loss_is_one_full_set_eval(self, monkeypatch):
        calls = []
        original = CccpDeModel.eval_loss

        def counting(self, x, y):
            calls.append(x.shape[0])
            return original(self, x, y)

        monkeypatch.setattr(CccpDeModel, "eval_loss", counting)
        ds = gen_mixture([(0, (0.0, 0.0), 1.0, 30),
                          (1, (1.0, 1.0), 1.0, 34)], seed=46)
        model = small_model(dim=2, seed=47)
        _, final = train(model, ds, TrainConfig(epochs=3, batch_size=16),
                         Rng(48))
        assert calls == [64]
        assert final == original(model, ds.features, ds.labels)

    @both_models
    def test_constant_column_warning_points_at_caller(self, build):
        ds = gen_mixture([(0, (0.0, 2.0), 1.0, 20),
                          (1, (1.0, 2.0), 1.0, 20)], seed=49)
        ds.features[:, 1] = 2.0
        with pytest.warns(UserWarning, match=r"dimensions \[1\] are constant") \
                as record:
            train(build(), ds, TrainConfig(epochs=1), Rng(50))
        assert [w.filename for w in record] == [__file__]

    @both_models
    @pytest.mark.parametrize("rows, value", [(1, 1e160), (2, 1e308)],
                             ids=["std-overflows", "mean-overflows"])
    def test_non_finite_standardizer_refused(self, build, monkeypatch,
                                             rows, value):
        steps = []
        monkeypatch.setattr(AdamState, "step",
                            lambda self, params: steps.append(1))
        ds = gen_mixture(composite_components(100), seed=51)
        ds.features[:rows, 1] = value
        with pytest.raises(DomainError, match="feature column 'f1' has no "
                                              "finite mean and std"):
            train(build(), ds, TrainConfig(epochs=1), Rng(52))
        assert steps == []


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
        model = glm_fit_and_predict(
            x, y, TrainConfig(epochs=200, batch_size=128), Rng(28))
        _, sigma = model.predict(x)
        assert np.median(sigma) < 0.05

    def test_homoscedastic_sigma_recovered(self):
        rng = Rng(29)
        x = 6.0 * rng.uniforms(2000) - 3.0
        y = np.sin(x) + 0.5 * rng.normals(2000)
        model = glm_fit_and_predict(
            x, y, TrainConfig(epochs=120, batch_size=128), Rng(30))
        _, sigma = model.predict(x)
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

    def test_file_layout(self, tmp_path):
        """The model file layout, pinned: kind byte, and each array's name,
        dtype and ndim in file order; there is no metadata section. A change
        to the layout edits this list and bumps FORMAT_VERSION once, as
        ROADMAP's coupling rules ask of the items that change the model
        file."""
        def coupling(prefix):
            return [(f"{prefix}/perm", "int64", 1)] + [
                (f"{prefix}/{net}/{j}/{part}", "float64", ndim)
                for net in ("scale", "shift") for j in range(3)
                for part, ndim in (("weight", 2), ("bias", 1))]

        def sigmoid_head(blocks, out):
            return [(f"{blocks}/0/{part}", "float64", ndim)
                    for part, ndim in (("dense/weight", 2), ("dense/bias", 1),
                                       ("norm/gain", 1), ("norm/bias", 1))] + [
                (f"{out}/weight", "float64", 2), (f"{out}/bias", "float64", 1)]

        dropout = [("dropout_rate", "float64", 1)]
        standardizer = [("standardizer/mean", "float64", 1),
                        ("standardizer/std", "float64", 1)]
        expected = {
            "ffnn": (1, dropout + sigmoid_head("block", "out") + standardizer),
            "cccpde": (2, dropout + [("class_counts", "float64", 1)]
                       + coupling("base/0") + coupling("head0/0")
                       + coupling("head1/0") + sigmoid_head("disc", "disc/out")
                       + standardizer),
        }
        models = {
            "ffnn": FfnnModel(2, hidden=4, n_blocks=1, rng=Rng(1)),
            "cccpde": CccpDeModel(2, hidden=4, base_depth=1, head_depth=1,
                                  disc_blocks=1, rng=Rng(2)),
        }
        assert FORMAT_VERSION == 3
        for name, model in models.items():
            path = tmp_path / f"{name}.bin"
            save_model(model, path)
            assert path.read_bytes()[8:12] == FORMAT_VERSION.to_bytes(4, "little")
            kind, arrays = read_state(path)
            layout = [(n, a.dtype.name, a.ndim) for n, a in arrays]
            assert (kind, layout) == expected[name], name
            sizes = type(model).sizes_of(dict(arrays))
            assert [(n, a.shape) for n, a in arrays] == list(
                type(model).layout(**sizes)), name

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
        # formats 1 and 2 are refused too: no reader for them is kept
        model = small_model(dim=2, seed=36)
        path = tmp_path / "model.bin"
        for version in (1, 2, 99):
            save_model(model, path)
            blob = bytearray(path.read_bytes())
            blob[8:12] = version.to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            with pytest.raises(ModelVersionError, match=f"version {version};"):
                load_model(path)

    def test_truncated_file_is_truncation_error(self, tmp_path):
        model = small_model(dim=2, seed=37)
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ModelTruncatedError):
            load_model(path)

    @pytest.mark.parametrize("shape", [(2**21, 2**21, 2**21),
                                       (2**31, 2**31, 4)],
                             ids=["2**63-values", "2**64-values"])
    def test_overflowing_shape_is_truncation_error(self, tmp_path, shape):
        # a header whose value count passes 2**63 asks for more bytes than
        # the file holds; the count must not wrap in a fixed-width int
        body = (struct.pack("<BIH", 2, 1, 1) + b"x"  # kind, count, name
                + struct.pack(f"<BB{len(shape)}I", 0, len(shape), *shape))
        blob = MAGIC + struct.pack("<IQ", FORMAT_VERSION, 20 + len(body) + 4)
        path = tmp_path / "model.bin"
        path.write_bytes(blob + body + struct.pack(
            "<I", zlib.crc32(blob + body)))
        with pytest.raises(ModelTruncatedError, match="file ends \\d+ bytes"):
            read_state(path)

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

    def rewrite_and_load(self, path, kind, arrays):
        write_state(path, kind, arrays)
        return load_model(path)

    def test_untouched_file_loads(self, tmp_path):
        path, (kind, arrays) = self.stored(tmp_path)
        model = self.rewrite_and_load(path, kind, arrays)
        assert np.array_equal(model.standardizer.std, [2.0, 0.5])

    def test_missing_array(self, tmp_path):
        path, (kind, arrays) = self.stored(tmp_path)
        arrays = [(n, a) for n, a in arrays if n != "disc/out/bias"]
        with pytest.raises(ModelFormatError, match=re.escape("disc/out/bias")):
            self.rewrite_and_load(path, kind, arrays)

    def test_extra_array(self, tmp_path):
        path, (kind, arrays) = self.stored(tmp_path)
        arrays.append(("disc/out/extra", np.zeros(3)))
        with pytest.raises(ModelFormatError, match=re.escape("disc/out/extra")):
            self.rewrite_and_load(path, kind, arrays)

    def test_duplicate_array(self, tmp_path):
        path, (kind, arrays) = self.stored(tmp_path)
        arrays.append(arrays[3])
        with pytest.raises(ModelFormatError, match=re.escape(arrays[3][0])):
            self.rewrite_and_load(path, kind, arrays)

    def test_reordered_arrays(self, tmp_path):
        # two arrays of one shape, swapped: every name and shape is right,
        # but the i-th stored array must be the i-th of the layout
        path, (kind, arrays) = self.stored(tmp_path)
        names = [n for n, _ in arrays]
        i, j = names.index("disc/0/norm/gain"), names.index("disc/0/norm/bias")
        arrays[i], arrays[j] = arrays[j], arrays[i]
        with pytest.raises(ModelFormatError, match=re.escape(
                f"array {i} is 'disc/0/norm/bias'; the layout expects "
                "'disc/0/norm/gain'")):
            self.rewrite_and_load(path, kind, arrays)

    def test_refusal_costs_no_more_than_reading(self, tmp_path):
        """20,000 extra `base/{i}/perm` names claim a base 20,002 layers
        deep. The file is refused where it first leaves the layout, and
        the loader's traced peak stays within twice that of reading the
        file, so no layout of the claimed depth is built."""
        path, (kind, arrays) = self.stored(tmp_path)
        perm = np.arange(2, dtype=np.int64)
        write_state(path, kind, arrays + [(f"base/{i}/perm", perm)
                                          for i in range(2, 20_002)])
        peaks, refusal = [], None
        for step in (lambda: read_state(path), lambda: load_model(path)):
            tracemalloc.start()
            try:
                step()
            except ModelFormatError as exc:
                refusal = str(exc)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks
        first = [n for n, _ in arrays].index("head0/0/perm")
        assert refusal == (f"array {first} is 'head0/0/perm'; the layout "
                           "expects 'base/2/perm'")

    def test_wrong_shape(self, tmp_path):
        path, (kind, arrays) = self.stored(tmp_path)
        name = "base/1/scale/0/weight"
        arrays = [(n, a[:, :-1] if n == name else a) for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(name)):
            self.rewrite_and_load(path, kind, arrays)

    @pytest.mark.parametrize("name, dtype", [
        ("head0/0/perm", np.float64), ("disc/out/bias", np.int64),
    ])
    def test_wrong_dtype(self, tmp_path, name, dtype):
        # an array in the other stored dtype is refused, not cast
        path, (kind, arrays) = self.stored(tmp_path)
        arrays = [(n, a.astype(dtype) if n == name else a) for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(f"{name}' is")):
            self.rewrite_and_load(path, kind, arrays)

    @staticmethod
    def refuse_builds(monkeypatch):
        """From here on, building either model fails the test, so a refusal
        must come from the checks that run before the constructor."""
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} was built before "
                                 "its arrays were checked")
        for cls in (FfnnModel, CccpDeModel):
            monkeypatch.setattr(cls, "__init__", refuse)

    @both_models
    def test_missing_metadata(self, tmp_path, monkeypatch, build):
        """Format 3 has no metadata: `dropout_rate` is an array, and every
        size is read from an array's shape. A file without one of these
        arrays is refused by its name before any model is built: a size
        array as missing, `dropout_rate` where the layout expects it."""
        path = tmp_path / "model.bin"
        save_model(build(), path)
        kind, arrays = read_state(path)
        self.refuse_builds(monkeypatch)
        for name in ("dropout_rate", "standardizer/mean",
                     "disc/out/weight" if kind == 2 else "out/weight"):
            with pytest.raises(ModelFormatError, match="(missing array|the "
                               f"layout expects) {re.escape(repr(name))}"):
                self.rewrite_and_load(path, kind,
                                      [(n, a) for n, a in arrays if n != name])

    @pytest.mark.parametrize("key, value", [
        ("n_classes", 1.0), ("n_classes", 2.0), ("n_classes", 3.0),
        ("has_standardizer", 1.0), ("dropout", 0.0), ("hidden", 6.0),
        ("disc_blocks", 2.0),
    ])
    def test_unexpected_metadata(self, tmp_path, monkeypatch, key, value):
        # format-1 and format-2 metadata keys, stored as arrays: the file
        # holds each fact once, in the arrays the layout names
        path, (kind, arrays) = self.stored(tmp_path)
        assert key not in dict(arrays)
        self.refuse_builds(monkeypatch)
        with pytest.raises(ModelFormatError, match=re.escape(
                f"array {len(arrays)} is '{key}'; the layout expects the "
                "end of the file")):
            self.rewrite_and_load(path, kind,
                                  arrays + [(key, np.array([value]))])

    @pytest.mark.parametrize("build", [
        lambda: small_model(dim=2, seed=38, head_depth=2),
        lambda: FfnnModel(2, hidden=4, n_blocks=2, rng=Rng(39)),
    ], ids=["cccpde", "ffnn"])
    def test_sizes_must_be_whole_and_in_range(self, tmp_path, monkeypatch,
                                              build):
        """Sizes are read from array shapes, so they are whole numbers; they
        are in range when every stored shape matches the layout they imply.
        Each crafted file is refused by an array's name before any model is
        built, so none allocates the hidden x hidden weights its sigmoid
        head's output weight claims."""
        path = tmp_path / "model.bin"
        save_model(build(), path)
        kind, arrays = read_state(path)
        out = "disc/out/weight" if kind == 2 else "out/weight"

        def replaced(name, arr):
            return [(n, arr if n == name else a) for n, a in arrays]

        crafted = [
            (replaced(out, np.zeros((1_000_000, 1))),
             r"array '\S+' is float64 of shape \(\d+, \d+\), expected "
             r"float64 of shape \(\d+, 1000000\)"),
            (replaced(out, np.zeros((2**31, 0))),
             r"array '\S+' is float64 of shape \(\d+, \d+\), expected "
             r"float64 of shape \(\d+, 2147483648\)"),
            (replaced("dropout_rate", np.array([np.nan])),
             re.escape("array dropout_rate is not finite")),
            (replaced("dropout_rate", np.zeros(2)),
             re.escape("array 'dropout_rate' is float64 of shape (2,)")),
        ]
        if kind == 2:
            # head1 one layer deeper than head0
            crafted.append((arrays + [
                (n.replace("head1/1/", "head1/2/"), a) for n, a in arrays
                if n.startswith("head1/1/")],
                re.escape(f"array {len(arrays)} is 'head1/2/perm'; the "
                          "layout expects the end of the file")))
        else:
            # a gap in block/{i}: the blocks counted stop at the gap
            crafted.append(([(n.replace("block/1/", "block/2/"), a)
                             for n, a in arrays],
                            re.escape("array 5 is 'block/2/dense/weight'; "
                                      "the layout expects 'out/weight'")))
        self.refuse_builds(monkeypatch)
        for crafted_arrays, message in crafted:
            with pytest.raises(ModelFormatError, match=message):
                self.rewrite_and_load(path, kind, crafted_arrays)

    @both_models
    def test_dropout_rate_out_of_range(self, tmp_path, build):
        # a finite (1,) array passes the layout; the constructor refuses it
        path = tmp_path / "model.bin"
        save_model(build(), path)
        kind, arrays = read_state(path)
        for rate in (1.0, -0.5):
            with pytest.raises(ModelFormatError, match=re.escape(
                    f"dropout must lie in [0, 1), got {rate}")):
                self.rewrite_and_load(path, kind, [
                    (n, np.array([rate]) if n == "dropout_rate" else a)
                    for n, a in arrays])

    @both_models
    def test_every_array_checked(self, tmp_path, build):
        """Each stored float array in turn written as nan and inf, and the
        standardizer std and class counts also as 0 and -1."""
        path = tmp_path / "model.bin"
        save_model(build(), path)
        kind, arrays = read_state(path)
        floats = [i for i, (_, a) in enumerate(arrays) if a.dtype == np.float64]
        assert len(floats) > 5
        for i in floats:
            name, arr = arrays[i]
            bad = [np.nan, np.inf, -np.inf]
            if name in ("standardizer/std", "class_counts"):
                bad += [0.0, -1.0]
            for value in bad:
                broken = arr.copy()
                broken.flat[-1] = value
                with pytest.raises(ModelFormatError,
                                   match=re.escape(f"array {name} is not")):
                    self.rewrite_and_load(
                        path, kind,
                        arrays[:i] + [(name, broken)] + arrays[i + 1:])

    def test_perm_not_a_permutation(self, tmp_path):
        path, (kind, arrays) = self.stored(tmp_path)
        name = "head1/0/perm"
        arrays = [(n, np.zeros(2, dtype=np.int64) if n == name else a)
                  for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(name)):
            self.rewrite_and_load(path, kind, arrays)

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
        kind, arrays = read_state(path)
        arrays = [(n, np.array(values) if n == name else a)
                  for n, a in arrays]
        with pytest.raises(ModelFormatError, match=re.escape(name)):
            self.rewrite_and_load(path, kind, arrays)

    @pytest.mark.parametrize("name, values", [
        *(("class_counts", [v, 100.0]) for v in (np.nan, np.inf, 0.0, -1.0)),
        *(("class_priors", [v, 0.5]) for v in (np.nan, np.inf, 0.0, -1.0)),
        ("class_priors", [0.25, 1.5]),
    ], ids=["counts-nan", "counts-inf", "counts-zero", "counts-negative",
            "priors-nan", "priors-inf", "priors-zero", "priors-negative",
            "priors-above-one"])
    def test_class_arrays_out_of_range(self, tmp_path, name, values):
        """Bad class counts are refused; so is a stored `class_priors` of any
        value, which the model derives from the counts instead."""
        path, (kind, arrays) = self.stored(tmp_path)
        if name == "class_counts":
            arrays = [(n, np.array(values) if n == name else a)
                      for n, a in arrays]
            expected = f"array {name} is not"
        else:
            expected = (f"array {len(arrays)} is 'class_priors'; the layout "
                        "expects the end of the file")
            arrays.append((name, np.array(values)))
        with pytest.raises(ModelFormatError, match=re.escape(expected)):
            self.rewrite_and_load(path, kind, arrays)
