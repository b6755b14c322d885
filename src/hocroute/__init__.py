"""Uncertainty-aware model routing from snapshot-calibrated predictors.

Decomposes a weak model's expected loss into irreducible and reducible
parts via per-bin snapshot mixtures, then makes predict / route / abstain
decisions for any bounded proper loss and penalty configuration without
recalibration.
"""

from .core import (
    ABSTAIN,
    PREDICT,
    InvalidInputError,
    LabelDistribution,
    RoutingConfig,
    RoutingDecision,
    SnapshotBatch,
    SnapshotExample,
    UnsupportedDiagnosticError,
    UnsupportedLossError,
    ground_truth,
    route_action,
    snapshot_mean,
)
from .losses import LossSpec, entropy, expected_loss, pointwise_loss
from .partition import PartitionSpec, assign, fit, partition_quality
from .calibrator import (
    CalibratedRouterModel,
    TaggedMixture,
    aggregate_wasserstein,
    calibrate,
    estimate_decomposition,
    wasserstein_error,
)
from .router import OracleSpec, Router, decide, simulated_costs, tree_decide
from .baselines import (
    RankedPolicy,
    bucket_optimal_scores,
    pointwise_optimal_scores,
    total_uncertainty_scores,
)
from .synthetic import SyntheticDataset, eval_ground_truth, fit_weak_predictor, generate
from .evaluation import CostSweep, RoutingCurve, cost_sweep, multi_loss_report, routing_curve

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "PREDICT",
    "CalibratedRouterModel",
    "CostSweep",
    "InvalidInputError",
    "LabelDistribution",
    "LossSpec",
    "OracleSpec",
    "PartitionSpec",
    "RankedPolicy",
    "Router",
    "RoutingConfig",
    "RoutingCurve",
    "RoutingDecision",
    "SnapshotBatch",
    "SnapshotExample",
    "SyntheticDataset",
    "TaggedMixture",
    "UnsupportedDiagnosticError",
    "UnsupportedLossError",
    "aggregate_wasserstein",
    "assign",
    "bucket_optimal_scores",
    "calibrate",
    "cost_sweep",
    "decide",
    "entropy",
    "estimate_decomposition",
    "eval_ground_truth",
    "expected_loss",
    "fit",
    "fit_weak_predictor",
    "generate",
    "ground_truth",
    "multi_loss_report",
    "partition_quality",
    "pointwise_loss",
    "pointwise_optimal_scores",
    "route_action",
    "routing_curve",
    "simulated_costs",
    "snapshot_mean",
    "total_uncertainty_scores",
    "tree_decide",
    "wasserstein_error",
]
