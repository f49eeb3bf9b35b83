"""Adaptive-sampling SGD: log-time weighted sampling, multiplicative example
reweighting, stability probes, and generalization-bound evaluators."""

from .adaptive import (
    DivergenceError,
    SamplerConfig,
    TrainTrace,
    conditional_kl,
    kl_from_utility_sum,
    train,
    train_many,
    utilities,
)
from .bounds import (
    BoundReport,
    EnumeratedDivergence,
    enumerate_posterior_divergence,
    gen_bound_chisq,
    gen_bound_derandomized,
    gen_bound_kl,
    gen_bound_sgd_strongly_convex,
    kl_from_utility_advantage,
    sgd_stability_convex,
    sgd_stability_initial_risk,
    sgd_stability_nonconvex,
    sgd_stability_strongly_convex,
)
from .data import load_csv, save_csv, synth_data
from .model import (
    Dataset,
    RegularityConstants,
    default_domain_radius,
    project,
    regularity_constants,
    softmax,
    zeros_hypothesis,
)
from .optim import StepSchedule, UpdateRuleState, apply_update, step_size
from .weight_tree import WeightTree

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "Dataset",
    "DivergenceError",
    "EnumeratedDivergence",
    "RegularityConstants",
    "SamplerConfig",
    "StepSchedule",
    "TrainTrace",
    "UpdateRuleState",
    "WeightTree",
    "apply_update",
    "conditional_kl",
    "default_domain_radius",
    "enumerate_posterior_divergence",
    "gen_bound_chisq",
    "gen_bound_derandomized",
    "gen_bound_kl",
    "gen_bound_sgd_strongly_convex",
    "kl_from_utility_advantage",
    "kl_from_utility_sum",
    "load_csv",
    "project",
    "regularity_constants",
    "save_csv",
    "softmax",
    "sgd_stability_convex",
    "sgd_stability_initial_risk",
    "sgd_stability_nonconvex",
    "sgd_stability_strongly_convex",
    "step_size",
    "synth_data",
    "train",
    "train_many",
    "utilities",
    "zeros_hypothesis",
]
