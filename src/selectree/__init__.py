"""selectree: top-k screening of high-order interaction features over an
implicit itemset tree, with exact post-selection inference for the selected
coefficients."""

from .itemsets import (
    Dataset,
    Itemset,
    ModelConfig,
    TraversalMetrics,
    feature_column,
    total_feature_count,
    walk_tree,
)
from .screening import ScreeningResult, marginal_screen
from .experiments import (
    PerfRow,
    StudySummary,
    SyntheticSpec,
    gen_synthetic,
    naive_ols_inference,
    run_fpr_study,
    run_perf_study,
    run_tpr_study,
    split_inference,
    trial_rng,
)
from .inference import (
    ActiveConstraint,
    Contrast,
    DegenerateTruncationError,
    FeatureInference,
    InferenceReport,
    InternalConsistencyError,
    SingularGramError,
    TruncationInterval,
    contrast_for_coefficient,
    infer,
    selective_interval,
    selective_pvalue,
    trunc_norm_cdf,
    truncation_points,
    truncation_windows,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "Itemset",
    "ModelConfig",
    "TraversalMetrics",
    "feature_column",
    "total_feature_count",
    "walk_tree",
    "ScreeningResult",
    "marginal_screen",
    "PerfRow",
    "StudySummary",
    "SyntheticSpec",
    "gen_synthetic",
    "naive_ols_inference",
    "run_fpr_study",
    "run_perf_study",
    "run_tpr_study",
    "split_inference",
    "trial_rng",
    "ActiveConstraint",
    "Contrast",
    "DegenerateTruncationError",
    "FeatureInference",
    "InferenceReport",
    "InternalConsistencyError",
    "SingularGramError",
    "TruncationInterval",
    "contrast_for_coefficient",
    "infer",
    "selective_interval",
    "selective_pvalue",
    "trunc_norm_cdf",
    "truncation_points",
    "truncation_windows",
    "__version__",
]
