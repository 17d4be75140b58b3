import os
import sys
import time
import warnings

# small-matrix workloads run fastest single-threaded, and a fixed thread
# count keeps repeated runs bit-identical
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))

# On a failing @given test, hypothesis's pytest plugin imports its patching
# module, whose libcst import raises mypy_extensions' DeprecationWarning;
# under the suite's error::DeprecationWarning filter that ends the session
# with INTERNALERROR instead of a failure report. Importing it once here,
# with that warning ignored for this import alone, keeps failures reportable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cccpde.bayes import BetaPosterior, posterior_reports  # noqa: E402
from cccpde.data import preset_datasets  # noqa: E402
from cccpde.model import CccpDeModel, FfnnModel, TrainConfig, train  # noqa: E402
from cccpde.numerics import Rng, derive_seed  # noqa: E402
import cccpde.evaluate as ev  # noqa: E402


@pytest.fixture(scope="session")
def separable_bundle():
    """CCCP-DE trained on cleanly separable 2-D clusters."""
    t0 = time.monotonic()
    sets = preset_datasets("separable", 123, 2000, 2000)
    model = CccpDeModel(2, 2, hidden=64, rng=Rng(derive_seed(10, "init")))
    trace, _ = train(model, sets["train"], TrainConfig(epochs=20),
                     Rng(derive_seed(10, "shuffle")))
    return {
        "model": model,
        "train": sets["train"],
        "test": sets["test"],
        "trace": trace,
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def composite_bundle():
    """Intrinsic-uncertainty experiment: composite data, both models,
    credible-interval reports, and the shared-rejection ROC comparison."""
    t0 = time.monotonic()
    sets = preset_datasets("composite", 2024, 4000, 4000)
    tr, te = sets["train"], sets["test"]

    ffnn = FfnnModel(2, 64, 4, 0.05, Rng(derive_seed(1, "init")))
    train(ffnn, tr, TrainConfig(epochs=20), Rng(derive_seed(1, "shuffle")))

    model = CccpDeModel(2, 2, hidden=64, head_depth=2,
                        rng=Rng(derive_seed(2, "init")))
    train(model, tr, TrainConfig(epochs=30), Rng(derive_seed(2, "shuffle")))

    log_d, sigmoid_scores = model.forward(te.features)
    _, ratio_scores = ev.ratio_test_classify(
        log_d, np.log(model.class_priors))
    ffnn_scores = ffnn.score(te.features)

    volume = 0.6  # explicit neighborhood volume for this experiment
    threshold = 0.1
    batch = posterior_reports(log_d, model.class_counts,
                              BetaPosterior(1.0, 1.0), volume, threshold)
    scorers = {"ffnn": ffnn_scores, "sigmoid": sigmoid_scores,
               "ratio": ratio_scores}
    curves, retained, rejected = ev.filtered_roc_comparison(
        te.labels, scorers, batch)
    return {
        "ffnn": ffnn, "model": model, "train": tr, "test": te,
        "log_densities": log_d, "scorers": scorers, "batch": batch,
        "curves": curves, "retained": retained, "rejected": rejected,
        "volume": volume, "threshold": threshold,
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def glm_bundle():
    """Heteroscedastic regression demo bundle: model plus grid predictions."""
    import time as _time

    from cccpde.data import (gen_regression_1d, regression_true_mean,
                             regression_true_std)
    from cccpde.model import glm_fit_and_predict

    t0 = _time.monotonic()
    x, y = gen_regression_1d(2000, derive_seed(5, "data"))
    config = TrainConfig(epochs=150, batch_size=128)
    model = glm_fit_and_predict(x, y, config, Rng(derive_seed(5, "init")))
    grid = np.linspace(-3.0, 3.0, 400)
    grid_mu, grid_sigma = model.predict(grid)
    fresh = (regression_true_mean(grid)
             + Rng(derive_seed(6, "data")).normals(grid.size)
             * regression_true_std(grid))
    return {
        "x": x, "y": y, "model": model,
        "grid": grid, "grid_mu": grid_mu, "grid_sigma": grid_sigma,
        "fresh_draws": fresh, "seconds": _time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def openset_bundle():
    """Open-set experiment: model trained without the held-out cluster."""
    t0 = time.monotonic()
    sets = preset_datasets("openset", 777, 2000, 2000)
    model = CccpDeModel(2, 2, hidden=64, rng=Rng(derive_seed(3, "init")))
    train(model, sets["train"], TrainConfig(epochs=20),
          Rng(derive_seed(3, "shuffle")))
    return {
        "model": model,
        "train": sets["train"],
        "test": sets["test"],
        "heldout": sets["heldout"],
        "seconds": time.monotonic() - t0,
    }
