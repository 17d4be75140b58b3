"""Acceptance gate: one test per criterion, each printing a PASS line.

Long-running artifacts (trained models, reports, ROC comparisons) come from
session fixtures in conftest so the expensive experiments run once.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import cccpde.evaluate as ev
from cccpde.bayes import beta_cdf, beta_quantile
from cccpde.cli import main as cli_main
from cccpde.flow import FlowStack, gaussian_logpdf
from cccpde.model import load_model, save_model
from cccpde.nn import (
    ACTIVATION_TAGS,
    DenseBlock,
    DenseLayer,
    LayerNorm,
    MLP,
    activation,
    activation_backward,
    activation_cache,
    bce_with_logits,
    gaussian_nll_loss,
)
from cccpde.numerics import Rng

from helpers import (
    auc_bruteforce,
    finite_diff_grad,
    input_grad_err,
    numerical_coupling_logdet,
    random_coupling,
    rel_err,
    rng_randint_below,
    worst_param_grad_err,
)
from test_bayes import beta_cdf_oracle

mp.mp.dps = 30


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_invertibility():
    t0 = time.monotonic()
    worst = 0.0
    for depth in (1, 2, 3):
        for dim in (2, 4, 8):
            rng = Rng(5000 + 10 * depth + dim)
            stack = FlowStack.build(dim, depth, 8, rng,
                                    zero_init_outputs=False)
            x = Rng(6000 + dim).normals(1000 * dim).reshape(1000, dim)
            z, _ = stack.forward(x)
            worst = max(worst, float(np.abs(stack.inverse(z) - x).max()))
    elapsed = time.monotonic() - t0
    check("criterion 1: invertibility", worst < 1e-8 and elapsed < 10.0,
          f"worst roundtrip {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_jacobian_oracle():
    rng = Rng(7000)
    worst = 0.0
    for i in range(50):
        dim = 2 + rng_randint_below(rng, 5)  # 2..6
        layer = random_coupling(dim, 6, rng)
        x = rng.normals(dim)
        _, log_det = layer.forward(x[None, :])
        oracle = numerical_coupling_logdet(layer, x)
        worst = max(worst, abs(float(log_det[0]) - oracle))
    check("criterion 2: coupling log-det vs numerical Jacobian",
          worst < 1e-4, f"worst |delta| {worst:.2e}")


def test_criterion_03_gradient_oracle():
    t0 = time.monotonic()
    rng = Rng(7100)
    worst = 0.0

    layer = DenseLayer(4, 3, rng)
    x = rng.normals(20).reshape(5, 4)
    w = rng.normals(15).reshape(5, 3)
    worst = max(worst, input_grad_err(layer.forward, layer.backward, x, w))

    norm = LayerNorm(5)
    norm.gain.value[...] = 1.0 + 0.2 * rng.normals(5)
    xn = rng.normals(20).reshape(4, 5)
    wn = rng.normals(20).reshape(4, 5)
    worst = max(worst, input_grad_err(norm.forward, norm.backward, xn, wn))

    for tag in ACTIVATION_TAGS:
        xa = 4.0 * rng.uniforms(64) - 2.0
        xa = xa[np.abs(xa) > 1e-3]
        fd = finite_diff_grad(lambda v: float(activation(tag, v).sum()),
                              xa.copy(), 1e-6)
        cache = activation_cache(tag, xa, activation(tag, xa))
        worst = max(worst, rel_err(fd, activation_backward(
            tag, cache, np.ones_like(xa))))

    block = DenseBlock(3, 4, 0.0, rng)
    xb = rng.normals(15).reshape(5, 3)
    wb = rng.normals(20).reshape(5, 4)
    worst = max(worst, input_grad_err(lambda v: block.forward(v),
                                      block.backward, xb, wb))

    # dropout path with the mask held fixed
    mask = (rng.uniforms(30) > 0.3).astype(float).reshape(6, 5)
    xd = rng.normals(30).reshape(6, 5)
    wd = rng.normals(30).reshape(6, 5)
    fd = finite_diff_grad(
        lambda v: float(((v * mask / 0.7) * wd).sum()), xd.copy(), 1e-6)
    worst = max(worst, rel_err(fd, wd * mask / 0.7))

    net = MLP([3, 5, 2], rng, output_activation="tanh")
    xm = rng.normals(12).reshape(4, 3)
    wm = rng.normals(8).reshape(4, 2)

    def net_backward():
        net.forward(xm)
        net.backward(wm)

    worst = max(worst, worst_param_grad_err(
        net.params(), net_backward,
        lambda: float((net.forward(xm) * wm).sum())))

    stack = FlowStack.build(4, 2, 6, rng, zero_init_outputs=False)
    xf = rng.normals(20).reshape(5, 4)

    def stack_backward():
        z, _ = stack.forward(xf)
        stack.backward(z / 5.0, np.full(5, -0.2))

    def stack_nll():
        z, log_det = stack(xf)
        return float(-(gaussian_logpdf(z) + log_det).mean())

    worst = max(worst, worst_param_grad_err(
        stack.params(), stack_backward, stack_nll))

    logits = 8.0 * (rng.uniforms(16) - 0.5)
    y = (rng.uniforms(16) > 0.5).astype(float)
    _, grad_l = bce_with_logits(logits, y)
    fd = finite_diff_grad(lambda v: bce_with_logits(v, y)[0], logits.copy(), 1e-6)
    worst = max(worst, rel_err(fd, grad_l))

    mu = rng.normals(12)
    log_var = 0.5 * rng.normals(12)
    target = rng.normals(12)
    _, g_mu, g_lv = gaussian_nll_loss(mu, log_var, target)
    fd_mu = finite_diff_grad(
        lambda v: gaussian_nll_loss(v, log_var, target)[0], mu.copy(), 1e-6)
    fd_lv = finite_diff_grad(
        lambda v: gaussian_nll_loss(mu, v, target)[0], log_var.copy(), 1e-6)
    worst = max(worst, rel_err(fd_mu, g_mu), rel_err(fd_lv, g_lv))

    from cccpde.model import CccpDeModel

    model = CccpDeModel(4, 2, hidden=6, base_depth=2, head_depth=1,
                        disc_blocks=2, dropout_rate=0.0, rng=Rng(7200))
    xj = Rng(7300).normals(32).reshape(8, 4)
    yj = np.array([0, 1, 0, 1, 1, 0, 1, 0])

    def joint_backward():
        model.loss_and_grads(xj, yj)

    joint_err = worst_param_grad_err(
        model.params(), joint_backward,
        lambda: model.eval_loss(xj, yj), h=1e-6)

    elapsed = time.monotonic() - t0
    check("criterion 3: gradient oracle",
          worst < 1e-5 and joint_err < 1e-4 and elapsed < 60.0,
          f"layers/losses {worst:.2e}, joint {joint_err:.2e}, {elapsed:.1f}s")


def test_criterion_04_beta_machinery():
    shapes = (0.5, 1.0, 2.0, 50.0)
    grid = [(a, b, 0.3) for a in shapes for b in shapes]
    grid += [(2.0, 5.0, x) for x in (0.05, 0.5, 0.9, 0.99)]
    worst_cdf = max(abs(beta_cdf(x, a, b) - beta_cdf_oracle(x, a, b))
                    for a, b, x in grid)
    worst_mass = 0.0
    tail = 0.5 * (1.0 - 0.95)
    for a, b in ((0.5, 0.5), (1.0, 1.0), (2.0, 7.0), (50.0, 50.0),
                 (200.0, 3.0)):
        lo, hi = beta_quantile(np.array([tail, 1 - tail]), a, b)
        worst_mass = max(worst_mass,
                         abs(beta_cdf(hi, a, b) - beta_cdf(lo, a, b) - 0.95))
    lo, hi = beta_quantile(np.array([tail, 1 - tail]), 1.0, 1.0)
    uniform_ok = abs(lo - 0.025) < 1e-9 and abs(hi - 0.975) < 1e-9
    check("criterion 4: beta machinery",
          worst_cdf < 1e-8 and worst_mass < 1e-8 and uniform_ok,
          f"cdf {worst_cdf:.2e}, mass {worst_mass:.2e}, "
          f"uniform interval ({lo:.10f}, {hi:.10f})")


def test_criterion_05_auc_oracle():
    rng = Rng(7400)
    worst = 0.0
    for i in range(200):
        n = 2 + rng_randint_below(rng, 199)
        if i % 2 == 0:
            scores = np.round(rng.uniforms(n) * 8.0) / 8.0  # force ties
        else:
            scores = rng.normals(n)
        labels = (rng.uniforms(n) > 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(ev.roc_auc(scores, labels).auc
                               - auc_bruteforce(scores, labels)))
    check("criterion 5: AUC equals pair counting", worst < 1e-12,
          f"worst |delta| {worst:.2e}")


def test_criterion_06_density_normalization(separable_bundle):
    t0 = time.monotonic()
    model = separable_bundle["model"]
    train_ds = separable_bundle["train"]
    worst = 0.0
    for k in range(2):
        rows = train_ds.features[train_ds.labels == k]
        mean, std = rows.mean(axis=0), rows.std(axis=0)
        span_x = np.linspace(mean[0] - 6 * std[0], mean[0] + 6 * std[0], 240)
        span_y = np.linspace(mean[1] - 6 * std[1], mean[1] + 6 * std[1], 240)
        points = np.column_stack([np.tile(span_x, 240),
                                  np.repeat(span_y, 240)])
        log_p = model.log_densities(points)[:, k]
        cell = (span_x[1] - span_x[0]) * (span_y[1] - span_y[0])
        worst = max(worst, abs(float(np.exp(log_p).sum()) * cell - 1.0))
    elapsed = separable_bundle["seconds"] + time.monotonic() - t0
    check("criterion 6: class densities integrate to one",
          worst < 5e-3 and elapsed < 120.0,
          f"worst |integral-1| {worst:.2e}, {elapsed:.1f}s incl training")


def test_criterion_07_filtering_experiment(composite_bundle):
    t0 = time.monotonic()
    curves = composite_bundle["curves"]
    rejected = composite_bundle["rejected"]
    test_ds = composite_bundle["test"]
    scorers = composite_bundle["scorers"]

    all_improved = all(filtered.auc >= full.auc
                       for full, filtered in curves.values())
    credible_gain = float(np.mean([filtered.auc - full.auc
                                   for full, filtered in curves.values()]))
    control_gains = []
    for seed in range(20):
        rng = Rng(90_000 + seed)
        keep = np.sort(rng.permutation(test_ds.n_rows)[rejected.size:])
        gains = [ev.roc_auc(np.asarray(scores)[keep],
                            test_ds.labels[keep]).auc - curves[name][0].auc
                 for name, scores in scorers.items()]
        control_gains.append(float(np.mean(gains)))
    control_mean = float(np.mean(control_gains))
    elapsed = composite_bundle["seconds"] + time.monotonic() - t0
    summary = ", ".join(
        f"{name} {full.auc:.3f}->{filtered.auc:.3f}"
        for name, (full, filtered) in sorted(curves.items()))
    check("criterion 7: credible-set filtering beats random rejection",
          all_improved and credible_gain > control_mean and elapsed < 300.0,
          f"{summary}; gain {credible_gain:.4f} vs random {control_mean:.4f} "
          f"({rejected.size} rejected), {elapsed:.1f}s incl training")


def test_criterion_08_open_set_detection(openset_bundle):
    model = openset_bundle["model"]
    in_scores = ev.in_set_score(model, openset_bundle["test"].features)
    out_scores = ev.in_set_score(model, openset_bundle["heldout"].features)
    scores = np.concatenate([in_scores, out_scores])
    labels = np.concatenate([np.ones(in_scores.size, dtype=int),
                             np.zeros(out_scores.size, dtype=int)])
    auc = ev.roc_auc(scores, labels).auc
    check("criterion 8: in-set vs held-out AUC", auc >= 0.70,
          f"auc {auc:.4f} (target >= 0.70)")


def test_criterion_09_glm_demo(glm_bundle):
    mu = glm_bundle["grid_mu"]
    sigma = glm_bundle["grid_sigma"]
    fresh = glm_bundle["fresh_draws"]
    coverage = float(np.mean((fresh >= mu - 2 * sigma)
                             & (fresh <= mu + 2 * sigma)))
    # generator noise scale is 0.1 + 0.1|x|, averaging 0.25 over [-3, 3]
    median_sigma = float(np.median(sigma))
    sigma_ok = 0.75 * 0.25 <= median_sigma <= 1.25 * 0.25
    check("criterion 9: regression coverage and scale",
          0.88 <= coverage <= 0.99 and sigma_ok,
          f"coverage {coverage:.3f}, median sigma {median_sigma:.3f}")


def _run_pipeline(out_dir):
    data = out_dir / "data"
    assert cli_main(["gen-data", "--preset", "composite", "--out", str(data),
                     "--seed", "77", "--train-size", "400",
                     "--test-size", "400"]) == 0
    ffnn = out_dir / "ffnn.bin"
    cc = out_dir / "cc.bin"
    assert cli_main(["train", "--model", "ffnn", "--data",
                     str(data / "train.csv"), "--out", str(ffnn),
                     "--epochs", "4", "--seed", "78"]) == 0
    assert cli_main(["train", "--model", "cccpde", "--data",
                     str(data / "train.csv"), "--out", str(cc),
                     "--epochs", "4", "--seed", "79",
                     "--head-depth", "2"]) == 0
    assert cli_main(["eval", "--model", str(cc), "--ffnn", str(ffnn),
                     "--data", str(data / "test.csv"),
                     "--out", str(out_dir / "eval"),
                     "--volume", "8.0"]) == 0
    assert cli_main(["sample", "--model", str(cc), "--class-index", "0",
                     "--count", "25", "--out",
                     str(out_dir / "samples.csv"), "--seed", "80"]) == 0
    assert cli_main(["density-grid", "--model", str(cc), "--resolution", "40",
                     "--out", str(out_dir / "grid.csv")]) == 0
    assert cli_main(["glm-demo", "--out", str(out_dir / "glm"),
                     "--seed", "81", "--train-size", "300", "--epochs", "15",
                     "--grid-size", "60"]) == 0


def test_criterion_10_determinism(tmp_path):
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        _run_pipeline(out)
        runs.append({p.relative_to(out): p.read_bytes()
                     for p in sorted(out.rglob("*.csv"))})
    same_names = set(runs[0]) == set(runs[1])
    identical = same_names and all(runs[0][k] == runs[1][k] for k in runs[0])
    check("criterion 10: repeated runs are byte-identical",
          identical and len(runs[0]) >= 10,
          f"{len(runs[0])} CSV files compared")


def test_criterion_11_serialization(separable_bundle, tmp_path):
    model = separable_bundle["model"]
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    probes = Rng(7500).normals(200).reshape(100, 2) * 4.0
    dens_equal = np.array_equal(back.log_densities(probes),
                                model.log_densities(probes))
    score_equal = np.array_equal(back.forward(probes)[1],
                                 model.forward(probes)[1])
    check("criterion 11: save/load reproduces outputs bit-exactly",
          dens_equal and score_equal, "100 probes")
