"""costbench: cost-sensitive classification with polyhedral embedding surrogates.

Build a convex piecewise-linear surrogate from any cost matrix, train small
models against it and against cost-agnostic baselines, verify the surrogate's
embedding and link-separation properties numerically, and reproduce seeded
benchmark tables end to end.
"""

from .costs import (
    CostMatrix,
    SimplexDist,
    accuracy,
    bayes_optimal_reports,
    binary_alpha_matrix,
    confusion,
    cost_sensitive_loss,
    german_credit_deferral_matrix,
    german_credit_matrix,
    load_cost_matrix,
    severity_three_class_matrix,
    stock_matrices,
    synthetic_cost_matrix,
    zero_one_matrix,
)
from .embedding import (
    EmbeddingSurrogate,
    build_embedding_surrogate,
    link_many,
    surrogate_values,
    verify_alpha_separation,
    verify_embedding,
)
from .losses import (
    BoundLoss,
    class_weights,
    postprocess_search,
)
from .models import (
    ModelSpec,
    TrainConfig,
    TrainedModel,
    evaluate,
    forward,
    gradient_check,
    init_model,
    train,
)
from .data import (
    Dataset,
    load_uci,
    sample_synthetic,
    subsample_and_split,
)
from .diagnostics import embedding_regret_profile, monte_carlo_bayes_csl
from .harness import ExperimentConfig, aggregate, emit_table, run_experiment

__version__ = "0.1.0"
