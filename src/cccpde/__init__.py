"""Class-conditional coupling-flow density estimation with conjugate-prior
uncertainty, abstention, and open-set scoring.

The package-level names below resolve on first use (PEP 562): `import
cccpde` loads no submodule and no numpy, and `cccpde.X` imports the one
submodule that defines X, so `cccpde.X is cccpde.<module>.X`.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "bayes": ("BetaPosterior", "PosteriorBatch", "base_rate_prior",
              "beta_cdf", "beta_quantile", "posterior_report",
              "posterior_reports", "pseudo_counts"),
    "data": ("Dataset", "Standardizer", "gen_mixture", "gen_regression_1d",
             "load_csv", "preset_datasets", "save_csv"),
    "evaluate": ("NO_SUPPORT", "RocCurve", "density_grid",
                 "filter_by_uncertainty", "filtered_roc_comparison",
                 "in_set_score", "ratio_test_classify", "roc_auc"),
    "flow": ("CouplingLayer", "FlowStack", "gaussian_logpdf"),
    "model": ("CccpDeModel", "FfnnModel", "GlmRegressor", "TrainConfig",
              "glm_fit_and_predict", "load_model", "save_model", "train"),
    "nn": ("AdamState", "DenseBlock", "DenseLayer", "LayerNorm", "MLP",
           "Param", "SigmoidHead", "activation", "bce_with_logits", "dropout",
           "gaussian_nll_loss"),
    "numerics": ("Rng", "derive_seed", "log_gamma", "logsumexp"),
}

# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
