"""The package's public surface, and the names the benchmark imports from it.

The benchmark under `bench/` is run against this source tree, so every
name and keyword it takes from `cccpde` must keep resolving; these checks
read the bench files with `ast` instead of running them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cccpde

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = {
    "AdamState", "BetaPosterior", "CccpDeModel", "CouplingLayer", "Dataset",
    "DenseBlock", "DenseLayer", "FfnnModel", "FlowStack", "GlmRegressor",
    "LayerNorm", "MLP", "NO_SUPPORT", "Param", "PosteriorBatch", "Rng",
    "RocCurve", "SigmoidHead", "Standardizer", "TrainConfig", "activation",
    "base_rate_prior", "bce_with_logits", "beta_cdf", "beta_quantile",
    "density_grid", "derive_seed", "dropout", "filter_by_uncertainty",
    "filtered_roc_comparison", "gaussian_logpdf", "gaussian_nll_loss",
    "gen_mixture", "gen_regression_1d", "glm_fit_and_predict", "in_set_score",
    "load_csv", "load_model", "log_gamma", "logsumexp", "posterior_report",
    "posterior_reports", "preset_datasets", "pseudo_counts",
    "ratio_test_classify", "roc_auc", "save_csv", "save_model", "train",
}

# names the runtime no longer ships (test oracles, test-only helpers and
# retired API), by module or class
REMOVED = {
    "bayes": ["beta_update", "mc_count_estimate", "ball_volume",
              "UncertaintyReport", "credible_interval", "_check_mass"],
    "numerics": ["finite_diff_grad"],
    "numerics.Rng": ["random", "randint_below"],
    "nn": ["activation_grad"],
    "data": ["split"],
    "evaluate": ["_write_rows"],
    "flow.FlowStack": ["log_density"],
    # the detector is binary
    "errors": ["UnsupportedError"],
    "data.Dataset": ["n_classes"],
    "model.CccpDeModel": ["_check_labels", "record_class_stats", "to_state",
                          "from_state"],
    # one posterior path: every posterior is a PosteriorBatch
    "bayes.PosteriorBatch": ["row"],
    # model file format 2: one schema table beside save_model/load_model
    "model": ["_build", "_ARRAY_RULES"],
    "model.FfnnModel": ["to_state", "from_state"],
}


def test_public_names_are_the_trimmed_list():
    names = {name for name, value in vars(cccpde).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_test_only_names_are_gone(owner):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"cccpde.{module}")
    if cls:
        obj = getattr(obj, cls)
    assert [name for name in REMOVED[owner] if hasattr(obj, name)] == []


def test_cccpde_model_second_positional_is_n_classes():
    # bench/micro.py calls CccpDeModel(dim, 2, ...); without this slot the 2
    # would bind to `hidden`, and the signature check below would still pass
    params = list(inspect.signature(cccpde.CccpDeModel).parameters)
    assert params[:3] == ["dim", "n_classes", "hidden"]


def test_joint_loss_takes_no_weights():
    # the loss is the fixed sum flow NLL + BCE; REMOVED above sees only
    # class attributes, not parameters
    params = inspect.signature(cccpde.CccpDeModel).parameters
    assert not {"flow_weight", "disc_weight"} & set(params)
    assert len(params) == 8
    loss = inspect.signature(cccpde.SigmoidHead.loss_and_grads).parameters
    assert list(loss) == ["self", "x", "y", "rng"]


def cccpde_bindings(tree: ast.Module) -> dict:
    """Local name -> the cccpde object it is bound to by the file's imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "cccpde":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(mod, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "cccpde":
                    continue
                mod = importlib.import_module(alias.name)
                if alias.asname:
                    bound[alias.asname] = mod
                else:
                    bound["cccpde"] = importlib.import_module("cccpde")
    return bound


def dotted(node):
    """('a', 'b', 'c') for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return (node.id, *reversed(parts))
    return None


@pytest.mark.parametrize("name", ["micro.py", "child.py"])
def test_bench_imports_resolve(name):
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    bound = cccpde_bindings(tree)
    assert bound, f"{name} imports nothing from cccpde"
    for node in ast.walk(tree):
        chain = dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            obj = bound[chain[0]]
            for attr in chain[1:]:
                assert hasattr(obj, attr), f"{name}: {'.'.join(chain)}"
                obj = getattr(obj, attr)
                if not inspect.ismodule(obj):
                    break
        # a direct call of an imported callable must bind to its signature
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in bound \
                and not any(isinstance(a, ast.Starred) for a in node.args) \
                and all(k.arg for k in node.keywords):
            signature = inspect.signature(bound[node.func.id])
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
