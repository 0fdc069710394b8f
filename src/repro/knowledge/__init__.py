"""Background-knowledge modeling: kernels, bandwidths, prior beliefs, rule mining."""

from repro.knowledge.association import (
    AssociationRule,
    mine_negative_rules,
    mine_positive_rules,
    rule_violation_mass,
)
from repro.knowledge.backend import (
    DEFAULT_MAX_CELLS,
    EstimatorConfig,
    FactoredPriorBackend,
)
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import (
    biweight_kernel,
    epanechnikov_kernel,
    gaussian_kernel,
    get_kernel,
    kernel_names,
    register_kernel,
    triangular_kernel,
    uniform_kernel,
)
from repro.knowledge.prior import (
    BatchedKernelPriorEstimator,
    PriorBeliefs,
    kernel_prior,
    mle_prior,
    overall_prior,
    uniform_prior,
)
from repro.knowledge.selection import (
    BandwidthScore,
    cross_validation_score,
    select_bandwidth,
)

__all__ = [
    "AssociationRule",
    "Bandwidth",
    "BandwidthScore",
    "BatchedKernelPriorEstimator",
    "DEFAULT_MAX_CELLS",
    "EstimatorConfig",
    "FactoredPriorBackend",
    "PriorBeliefs",
    "cross_validation_score",
    "select_bandwidth",
    "biweight_kernel",
    "epanechnikov_kernel",
    "gaussian_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_prior",
    "mine_negative_rules",
    "mine_positive_rules",
    "mle_prior",
    "overall_prior",
    "register_kernel",
    "rule_violation_mass",
    "triangular_kernel",
    "uniform_kernel",
    "uniform_prior",
]
