"""Command-line entry point.

Subcommands cover the full pipeline: synthetic data generation, training
(baseline or density estimator), uncertainty-filtered evaluation with CSV
artifacts, generative sampling, density-grid export, and the 1-D
heteroscedastic regression demo.

Each subcommand declares its settings once, in a table of
`key: (default, type)`, every type int or float; every key is both a
`--key-name` flag and a config key. Settings resolve in three layers:
built-in defaults, then a flat `key = value` config file (`#` starts a
comment), then explicit flags. Every run writes its fully resolved
configuration next to its outputs, and makes no output path until its
work is done, so a failed run leaves none behind.
All randomness flows from one root seed, split per subsystem by fixed
labels (data/init/shuffle/sampling). Exit codes: 0 success, 2 usage
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .bayes import base_rate_prior, posterior_reports
from .data import (
    PRESETS,
    Dataset,
    gen_regression_1d,
    load_csv,
    preset_datasets,
    regression_true_mean,
    save_csv,
    write_csv,
)
from .errors import DomainError
from .model import (
    CccpDeModel,
    FfnnModel,
    TrainConfig,
    load_model,
    save_model,
    train,
    glm_fit_and_predict,
)
from .numerics import Rng, derive_seed


def _parse_config_file(path: str) -> dict[str, str]:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _convert(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise DomainError(
            f"config key {key!r} needs a {kind.__name__}, got {value!r}") from None


def _resolve(args) -> dict:
    """Defaults, overridden by config file, overridden by explicit flags."""
    file_cfg = _parse_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (default, kind) in args.settings.items():
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = _convert(key, file_cfg[key], kind)
        else:
            resolved[key] = default
    unknown = set(file_cfg) - set(args.settings)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return resolved


def _write_config_log(path, resolved: dict, extra: dict | None = None) -> None:
    entries = dict(resolved)
    if extra:
        entries.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


# -- subcommands ---------------------------------------------------------------

_GEN_SETTINGS = {"seed": (0, int), "train_size": (4000, int),
                 "test_size": (4000, int)}


def _cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    datasets = preset_datasets(args.preset, cfg["seed"],
                               cfg["train_size"], cfg["test_size"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in datasets.items():
        save_csv(ds, out / f"{name}.csv")
    _write_config_log(out / "config_used.txt", cfg,
                      {"preset": args.preset, "out": out})
    print(f"wrote {', '.join(sorted(datasets))} under {out}")
    return 0


_TRAIN_SETTINGS = {
    "seed": (0, int), "epochs": (30, int), "batch_size": (128, int),
    "learning_rate": (1e-3, float), "hidden": (64, int),
    "base_depth": (3, int), "head_depth": (1, int), "disc_blocks": (3, int),
    "ffnn_blocks": (4, int), "dropout": (0.05, float),
}


def _cmd_train(args) -> int:
    cfg = _resolve(args)
    dataset = load_csv(args.data)
    config = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                         learning_rate=cfg["learning_rate"])
    init_rng = Rng(derive_seed(cfg["seed"], "init"))
    if args.model == "ffnn":
        model = FfnnModel(dataset.dim, cfg["hidden"], cfg["ffnn_blocks"],
                          cfg["dropout"], init_rng)
    else:
        model = CccpDeModel(dataset.dim, 2, cfg["hidden"],
                            cfg["base_depth"], cfg["head_depth"],
                            cfg["disc_blocks"], cfg["dropout"], init_rng)
    trace = train(model, dataset, config, Rng(derive_seed(cfg["seed"], "shuffle")))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    write_csv(out.with_suffix(".trace.csv"), ["epoch", "loss"],
              [np.arange(1, len(trace) + 1), trace])
    _write_config_log(out.with_suffix(".config.txt"), cfg,
                      {"model": args.model, "data": args.data, "out": out})
    print(f"trained {args.model} on {dataset.n_rows} rows; "
          f"final loss {trace[-1]:.6f}; model at {out}")
    return 0


_EVAL_SETTINGS = {
    "threshold": (0.1, float), "mass": (0.95, float),
    "base_rate": (0.5, float), "prior_strength": (2.0, float),
    "volume": (None, float),
}


def _default_volume(model: CccpDeModel) -> float:
    # a (0.05 * per-dimension training std) hypercube
    return float(np.prod(0.05 * model.standardizer.std))


def _load_density_model(path) -> CccpDeModel:
    model = load_model(path)
    if not isinstance(model, CccpDeModel):
        raise DomainError(f"{path} is not a density-estimator model")
    return model


def _cmd_eval(args) -> int:
    cfg = _resolve(args)
    model = _load_density_model(args.model)
    dataset = load_csv(args.data)
    prior = base_rate_prior(cfg["base_rate"], cfg["prior_strength"])

    log_d, sigmoid_scores = model.forward(dataset.features)
    with np.errstate(divide="ignore"):
        log_priors = np.log(model.class_priors)
    _, ratio_scores = ev.ratio_test_classify(log_d, log_priors)

    volume = cfg["volume"] if cfg["volume"] is not None else _default_volume(model)
    batch = posterior_reports(log_d, model.class_counts, prior, volume,
                              cfg["threshold"], cfg["mass"])

    scorers = {"sigmoid": sigmoid_scores, "ratio": ratio_scores}
    ffnn_scores = np.full(dataset.n_rows, np.nan)
    if args.ffnn:
        baseline = load_model(args.ffnn)
        if not isinstance(baseline, FfnnModel):
            raise DomainError(f"{args.ffnn} is not a feed-forward baseline model")
        ffnn_scores = baseline.score(dataset.features)
        scorers["ffnn"] = ffnn_scores

    curves, retained, rejected = ev.filtered_roc_comparison(
        dataset.labels, scorers, batch)
    if any(full is None for full, _ in curves.values()):
        print("warning: test set lacks a class; writing no ROC curves",
              file=sys.stderr)
    elif any(filtered is None for _, filtered in curves.values()):
        print("warning: retained set lacks a class; emitting unfiltered "
              "curves only (raise --volume or --threshold)", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = {"sigmoid": "", "ratio": "_ratio", "ffnn": "_ffnn"}
    ev.write_reports_csv(out / "reports.csv", dataset.labels, ffnn_scores,
                         sigmoid_scores, batch)
    for name, (full, filtered) in curves.items():
        if full is not None:
            ev.write_roc_csv(full, out / f"roc{suffix[name]}.csv")
        if filtered is not None:
            ev.write_roc_csv(filtered, out / f"roc{suffix[name]}_filtered.csv")
    _write_config_log(out / "config_used.txt", cfg, {
        "model": args.model, "ffnn": args.ffnn, "data": args.data,
        "out": out, "resolved_volume": volume,
        "prior": f"Beta({prior.a}, {prior.b})",
    })
    for name, (full, filtered) in sorted(curves.items()):
        if filtered is not None:
            print(f"{name}: auc {full.auc:.4f} -> retained auc {filtered.auc:.4f}")
        elif full is not None:
            print(f"{name}: auc {full.auc:.4f}")
    print(f"retained {retained.size}, rejected {rejected.size} "
          f"of {dataset.n_rows} (threshold {cfg['threshold']})")
    return 0


_SAMPLE_SETTINGS = {"seed": (0, int), "count": (10, int),
                    "class_index": (0, int)}


def _cmd_sample(args) -> int:
    cfg = _resolve(args)
    model = _load_density_model(args.model)
    rng = Rng(derive_seed(cfg["seed"], "sampling"))
    samples = model.sample_class(cfg["class_index"], rng, cfg["count"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    labels = np.full(cfg["count"], cfg["class_index"], dtype=np.int64)
    save_csv(Dataset(samples, labels, name="samples"), out)
    _write_config_log(out.with_suffix(".config.txt"), cfg,
                      {"model": args.model, "out": out})
    print(f"wrote {cfg['count']} class-{cfg['class_index']} samples to {out}")
    return 0


_GRID_SETTINGS = {"resolution": (100, int)}


def _cmd_density_grid(args) -> int:
    cfg = _resolve(args)
    model = _load_density_model(args.model)
    if args.bounds is not None:
        bounds = tuple(args.bounds)
    else:
        mean, std = model.standardizer.mean, model.standardizer.std
        bounds = (mean[0] - 6 * std[0], mean[0] + 6 * std[0],
                  mean[1] - 6 * std[1], mean[1] + 6 * std[1])
    _, _, points, log_d, total = ev.density_grid(model, bounds,
                                                 cfg["resolution"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ev.write_density_grid_csv(out, points, log_d, total)
    _write_config_log(out.with_suffix(".config.txt"), cfg, {
        "model": args.model, "out": out,
        "bounds": ",".join(repr(float(b)) for b in bounds),
    })
    print(f"wrote {cfg['resolution'] ** 2} grid rows to {out}")
    return 0


_GLM_SETTINGS = {"seed": (0, int), "train_size": (2000, int),
                 "epochs": (150, int), "batch_size": (128, int),
                 "learning_rate": (1e-3, float), "hidden": (64, int),
                 "grid_size": (200, int)}


def _cmd_glm_demo(args) -> int:
    cfg = _resolve(args)
    if cfg["grid_size"] < 1:
        raise DomainError(f"grid size must be >= 1, got {cfg['grid_size']}")
    x, y = gen_regression_1d(cfg["train_size"], derive_seed(cfg["seed"], "data"))
    config = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                         learning_rate=cfg["learning_rate"])
    init_rng = Rng(derive_seed(cfg["seed"], "init"))
    _, _, model = glm_fit_and_predict(x, y, config, init_rng, cfg["hidden"])
    grid = np.linspace(-3.0, 3.0, cfg["grid_size"])
    mu, sigma = model.predict(grid)
    truth = regression_true_mean(grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "glm_demo.csv", ["x", "mu", "sigma", "y_true"],
              [grid, mu, sigma, truth])
    _write_config_log(out / "config_used.txt", cfg, {"out": out})
    print(f"wrote regression demo ({cfg['grid_size']} grid rows) under {out}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_settings(p, func, settings: dict) -> None:
    """Add `--config` and one flag per settings key; `func` runs the command."""
    p.add_argument("--config", help="key = value config file")
    for key, (_, kind) in settings.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=kind, dest=key)
    p.set_defaults(func=func, settings=settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cccpde",
        description="Class-conditional density estimation with "
                    "credible-interval uncertainty and abstention.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic preset dataset")
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _cmd_gen_data, _GEN_SETTINGS)

    p = sub.add_parser("train", help="train a model on a dataset CSV")
    p.add_argument("--model", required=True, choices=("ffnn", "cccpde"))
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="model file to write")
    _add_settings(p, _cmd_train, _TRAIN_SETTINGS)

    p = sub.add_parser("eval", help="uncertainty-filtered evaluation")
    p.add_argument("--model", required=True, help="density-estimator model file")
    p.add_argument("--ffnn", help="optional baseline model file")
    p.add_argument("--data", required=True, help="test CSV")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _cmd_eval, _EVAL_SETTINGS)

    p = sub.add_parser("sample", help="draw samples from one class head")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="samples CSV to write")
    _add_settings(p, _cmd_sample, _SAMPLE_SETTINGS)

    p = sub.add_parser("density-grid", help="export 2-D log-density grid")
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", type=float, nargs=4,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--out", required=True, help="grid CSV to write")
    _add_settings(p, _cmd_density_grid, _GRID_SETTINGS)

    p = sub.add_parser("glm-demo", help="heteroscedastic 1-D regression demo")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _cmd_glm_demo, _GLM_SETTINGS)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures exit 1; argparse exits 2 itself
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
