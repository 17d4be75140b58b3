"""Command-line entry point.

Subcommands cover the full pipeline: synthetic data generation, training
(baseline or density estimator), uncertainty-filtered evaluation with CSV
artifacts, generative sampling, density-grid export, and the 1-D
heteroscedastic regression demo.

Each subcommand declares its settings once, in a table of
`key: (default, type)`, every type int or float; each key is a
`--key-name` flag with that default. Flags are the only way to set a
setting. Every run logs what it parsed, plus the values it derived, next
to its outputs, and makes no output path until its work is done, so a
failed run leaves none behind.
All randomness flows from one root seed, split per subsystem by fixed
labels (data/init/shuffle/sampling). Exit codes: 0 success, 2 usage
error, 1 runtime error. Only full flag names parse: an abbreviation such
as `--epoch` is a usage error.

Every process pays for its imports before any work, so this module's top
imports only argparse, os, sys and pathlib, and each `_cmd_*` imports what it
runs at its own top. `--help` and usage errors thus load neither numpy
nor a library module (the parser reads the preset names from
`cccpde.presets`); `gen-data` loads no model code, and `train`, `sample`
and `glm-demo` load neither `bayes` nor `evaluate`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _write_config_log(path, args, **derived) -> None:
    """Log every parsed argument and each derived value, sorted by key."""
    entries = {key: value for key, value in vars(args).items()
               if key not in ("command", "func")}
    entries.update(derived)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


# -- subcommands ---------------------------------------------------------------

_GEN_SETTINGS = {"seed": (0, int), "train_size": (4000, int),
                 "test_size": (4000, int)}


def _cmd_gen_data(args) -> int:
    from .data import preset_datasets, save_csv

    datasets = preset_datasets(args.preset, args.seed,
                               args.train_size, args.test_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in datasets.items():
        save_csv(ds, out / f"{name}.csv")
    _write_config_log(out / "config_used.txt", args)
    print(f"wrote {', '.join(sorted(datasets))} under {out}")
    return 0


_TRAIN_SETTINGS = {
    "seed": (0, int), "epochs": (30, int), "batch_size": (128, int),
    "learning_rate": (1e-3, float), "hidden": (64, int),
    "base_depth": (3, int), "head_depth": (1, int), "disc_blocks": (3, int),
    "ffnn_blocks": (4, int), "dropout": (0.05, float),
}


def _cmd_train(args) -> int:
    import numpy as np

    from .data import load_csv, write_csv
    from .model import CccpDeModel, FfnnModel, TrainConfig, save_model, train
    from .numerics import Rng, derive_seed

    dataset = load_csv(args.data)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                         learning_rate=args.learning_rate)
    init_rng = Rng(derive_seed(args.seed, "init"))
    if args.model == "ffnn":
        model = FfnnModel(dataset.dim, args.hidden, args.ffnn_blocks,
                          args.dropout, init_rng)
    else:
        model = CccpDeModel(dataset.dim, 2, args.hidden,
                            args.base_depth, args.head_depth,
                            args.disc_blocks, args.dropout, init_rng)
    trace, final_loss = train(model, dataset, config,
                              Rng(derive_seed(args.seed, "shuffle")))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    write_csv(out.with_suffix(".trace.csv"), ["epoch", "loss"],
              [np.arange(1, len(trace) + 1), trace])
    out.with_suffix(".final_loss.txt").write_text(
        f"final_loss = {final_loss!r}\n", encoding="utf-8")
    _write_config_log(out.with_suffix(".config.txt"), args)
    print(f"trained {args.model} on {dataset.n_rows} rows; "
          f"final loss {final_loss:.6f}; model at {out}")
    return 0


_EVAL_SETTINGS = {
    "threshold": (0.1, float), "mass": (0.95, float),
    "base_rate": (0.5, float), "prior_strength": (2.0, float),
    "volume": (None, float),
}


def _default_volume(model: CccpDeModel) -> float:
    import numpy as np

    # a (0.05 * per-dimension training std) hypercube
    return float(np.prod(0.05 * model.standardizer.std))


def _load_density_model(path) -> CccpDeModel:
    from .errors import DomainError
    from .model import CccpDeModel, load_model

    model = load_model(path)
    if not isinstance(model, CccpDeModel):
        raise DomainError(f"{path} is not a density-estimator model")
    return model


def _cmd_eval(args) -> int:
    import numpy as np

    from . import evaluate as ev
    from .bayes import base_rate_prior, posterior_reports
    from .data import load_csv
    from .errors import DomainError
    from .model import FfnnModel, load_model

    model = _load_density_model(args.model)
    dataset = load_csv(args.data)
    prior = base_rate_prior(args.base_rate, args.prior_strength)

    log_d, sigmoid_scores = model.forward(dataset.features)
    with np.errstate(divide="ignore"):
        log_priors = np.log(model.class_priors)
    _, ratio_scores = ev.ratio_test_classify(log_d, log_priors)

    volume = args.volume if args.volume is not None else _default_volume(model)
    batch = posterior_reports(log_d, model.class_counts, prior, volume,
                              args.threshold, args.mass)

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
    _write_config_log(out / "config_used.txt", args, resolved_volume=volume,
                      prior=f"Beta({prior.a}, {prior.b})")
    for name, (full, filtered) in sorted(curves.items()):
        if filtered is not None:
            print(f"{name}: auc {full.auc:.4f} -> retained auc {filtered.auc:.4f}")
        elif full is not None:
            print(f"{name}: auc {full.auc:.4f}")
    print(f"retained {retained.size}, rejected {rejected.size} "
          f"of {dataset.n_rows} (threshold {args.threshold})")
    return 0


_SAMPLE_SETTINGS = {"seed": (0, int), "count": (10, int),
                    "class_index": (0, int)}


def _cmd_sample(args) -> int:
    import numpy as np

    from .data import Dataset, save_csv
    from .numerics import Rng, derive_seed

    model = _load_density_model(args.model)
    rng = Rng(derive_seed(args.seed, "sampling"))
    samples = model.sample_class(args.class_index, rng, args.count)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    labels = np.full(args.count, args.class_index, dtype=np.int64)
    save_csv(Dataset(samples, labels, name="samples"), out)
    _write_config_log(out.with_suffix(".config.txt"), args)
    print(f"wrote {args.count} class-{args.class_index} samples to {out}")
    return 0


_GRID_SETTINGS = {"resolution": (100, int)}


def _cmd_density_grid(args) -> int:
    from . import evaluate as ev

    model = _load_density_model(args.model)
    if args.bounds is not None:
        bounds = tuple(args.bounds)
    else:
        mean, std = model.standardizer.mean, model.standardizer.std
        bounds = (mean[0] - 6 * std[0], mean[0] + 6 * std[0],
                  mean[1] - 6 * std[1], mean[1] + 6 * std[1])
    _, _, points, log_d, total = ev.density_grid(model, bounds,
                                                 args.resolution)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ev.write_density_grid_csv(out, points, log_d, total)
    _write_config_log(out.with_suffix(".config.txt"), args,
                      bounds=",".join(repr(float(b)) for b in bounds))
    print(f"wrote {args.resolution ** 2} grid rows to {out}")
    return 0


_GLM_SETTINGS = {"seed": (0, int), "train_size": (2000, int),
                 "epochs": (150, int), "batch_size": (128, int),
                 "learning_rate": (1e-3, float), "hidden": (64, int),
                 "grid_size": (200, int)}


def _cmd_glm_demo(args) -> int:
    import numpy as np

    from .data import gen_regression_1d, regression_true_mean, write_csv
    from .errors import DomainError
    from .model import TrainConfig, glm_fit_and_predict
    from .numerics import Rng, derive_seed

    if args.grid_size < 1:
        raise DomainError(f"grid size must be >= 1, got {args.grid_size}")
    x, y = gen_regression_1d(args.train_size, derive_seed(args.seed, "data"))
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                         learning_rate=args.learning_rate)
    init_rng = Rng(derive_seed(args.seed, "init"))
    model = glm_fit_and_predict(x, y, config, init_rng, args.hidden)
    grid = np.linspace(-3.0, 3.0, args.grid_size)
    mu, sigma = model.predict(grid)
    truth = regression_true_mean(grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "glm_demo.csv", ["x", "mu", "sigma", "y_true"],
              [grid, mu, sigma, truth])
    _write_config_log(out / "config_used.txt", args)
    print(f"wrote regression demo ({args.grid_size} grid rows) under {out}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_settings(p, func, settings: dict) -> None:
    """Add one `--key-name` flag per settings key, defaulting from the table."""
    for key, (default, kind) in settings.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=kind, default=default)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    from .presets import PRESETS

    parser = argparse.ArgumentParser(
        prog="cccpde", allow_abbrev=False,
        description="Class-conditional density estimation with "
                    "credible-interval uncertainty and abstention.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic preset dataset",
                       allow_abbrev=False)
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _cmd_gen_data, _GEN_SETTINGS)

    p = sub.add_parser("train", help="train a model on a dataset CSV",
                       allow_abbrev=False)
    p.add_argument("--model", required=True, choices=("ffnn", "cccpde"))
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="model file to write")
    _add_settings(p, _cmd_train, _TRAIN_SETTINGS)

    p = sub.add_parser("eval", help="uncertainty-filtered evaluation",
                       allow_abbrev=False)
    p.add_argument("--model", required=True, help="density-estimator model file")
    p.add_argument("--ffnn", help="optional baseline model file")
    p.add_argument("--data", required=True, help="test CSV")
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _cmd_eval, _EVAL_SETTINGS)

    p = sub.add_parser("sample", help="draw samples from one class head",
                       allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="samples CSV to write")
    _add_settings(p, _cmd_sample, _SAMPLE_SETTINGS)

    p = sub.add_parser("density-grid", help="export 2-D log-density grid",
                       allow_abbrev=False)
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", type=float, nargs=4,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--out", required=True, help="grid CSV to write")
    _add_settings(p, _cmd_density_grid, _GRID_SETTINGS)

    p = sub.add_parser("glm-demo", help="heteroscedastic 1-D regression demo",
                       allow_abbrev=False)
    p.add_argument("--out", required=True, help="output directory")
    _add_settings(p, _cmd_glm_demo, _GLM_SETTINGS)

    return parser


def main(argv=None) -> int:
    # one BLAS thread unless set, before any subcommand imports numpy
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
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
