"""Class-conditional coupling-flow density estimation with conjugate-prior
uncertainty, abstention, and open-set scoring."""

from .bayes import (
    BetaPosterior,
    PosteriorBatch,
    UncertaintyReport,
    base_rate_prior,
    beta_cdf,
    beta_quantile,
    credible_interval,
    posterior_report,
    posterior_reports,
    pseudo_counts,
)
from .data import (
    Dataset,
    Standardizer,
    gen_mixture,
    gen_regression_1d,
    load_csv,
    preset_datasets,
    save_csv,
)
from .evaluate import (
    NO_SUPPORT,
    RocCurve,
    density_grid,
    filter_by_uncertainty,
    filtered_roc_comparison,
    in_set_score,
    ratio_test_classify,
    roc_auc,
)
from .flow import CouplingLayer, FlowStack, gaussian_logpdf
from .model import (
    CccpDeModel,
    FfnnModel,
    GlmRegressor,
    TrainConfig,
    glm_fit_and_predict,
    load_model,
    save_model,
    train,
)
from .nn import (
    AdamState,
    DenseBlock,
    DenseLayer,
    LayerNorm,
    MLP,
    Param,
    SigmoidHead,
    activation,
    bce_with_logits,
    dropout,
    gaussian_nll_loss,
)
from .numerics import (
    Rng,
    derive_seed,
    log_gamma,
    logsumexp,
)

__version__ = "0.1.0"
