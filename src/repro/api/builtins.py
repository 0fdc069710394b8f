"""Built-in registry entries: the paper's models, algorithms, estimators, measures.

Importing this module (which :mod:`repro.api` does eagerly) populates the four
registries of :mod:`repro.api.registry` with everything the paper evaluates:

* **models** - (B,t)-privacy and its skyline variant, the three baseline
  models (distinct/probabilistic/entropy l-diversity, t-closeness) and plain
  k-anonymity;
* **algorithms** - Mondrian generalization and Anatomy bucketization;
* **prior estimators** - the kernel-regression estimator plus the Section II-D
  baselines (uniform, overall-distribution, maximum-likelihood);
* **measures** - the paper's smoothed-JS measure and the classical
  alternatives it is compared against.

Model factories are keyword-only and validate their inputs, so the CLI and
sweep grids can hold one parameter superset and let each model pick what it
understands (see :meth:`repro.api.registry.Registry.build_filtered`).
"""

from __future__ import annotations

import numpy as np

from repro.anonymize.anatomy import anatomy_partition
from repro.anonymize.mondrian import MondrianAnonymizer, spilled_value_matrix
from repro.api.registry import (
    register_algorithm,
    register_measure,
    register_model,
    register_prior_estimator,
)
from repro.data.distance import attribute_distance_matrix
from repro.data.source import as_source
from repro.data.table import MicrodataTable
from repro.exceptions import AnonymizationError, KnowledgeError, PrivacyModelError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import (
    BatchedKernelPriorEstimator,
    kernel_prior,
    mle_prior,
    overall_prior,
    uniform_prior,
)
from repro.privacy.measures import (
    DistanceMeasure,
    EMDDistance,
    HierarchicalEMD,
    JSDivergence,
    KLDivergence,
    SmoothedJSDivergence,
    sensitive_distance_measure,
)
from repro.privacy.models import (
    BTPrivacy,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    PrivacyModel,
    ProbabilisticLDiversity,
    SkylineBTPrivacy,
    TCloseness,
)


def _integral(value: float | int, parameter: str, model: str) -> int:
    number = float(value)
    if not number.is_integer():
        raise PrivacyModelError(
            f"{model} requires an integer {parameter}, got {value!r}"
        )
    return int(number)


# ---------------------------------------------------------------------------
# Privacy models
# ---------------------------------------------------------------------------


@register_model("bt", aliases=("(B,t)-privacy", "bt-privacy"))
def build_bt(
    *,
    b: float | Bandwidth = 0.3,
    t: float = 0.2,
    kernel: str = "epanechnikov",
    measure: DistanceMeasure | None = None,
    inference: str = "omega",
    smoothing_bandwidth: float = 0.5,
) -> BTPrivacy:
    """(B,t)-privacy: bound the knowledge gain of the Adv(B) adversary by t."""
    return BTPrivacy(
        b,
        t,
        kernel=kernel,
        measure=measure,
        inference=inference,
        smoothing_bandwidth=smoothing_bandwidth,
    )


@register_model("skyline-bt", aliases=("skyline-(B,t)-privacy",))
def build_skyline_bt(
    *,
    points: list[tuple[float | Bandwidth, float]] | None = None,
    b: float | Bandwidth = 0.3,
    t: float = 0.2,
    kernel: str = "epanechnikov",
    inference: str = "omega",
) -> SkylineBTPrivacy:
    """Skyline (B,t)-privacy: enforce several (B_i, t_i) pairs at once."""
    skyline = list(points) if points is not None else [(b, t)]
    return SkylineBTPrivacy(skyline, kernel=kernel, inference=inference)


@register_model("distinct-l", aliases=("distinct-l-diversity",))
def build_distinct_l(*, l: float = 4) -> DistinctLDiversity:
    """Distinct l-diversity: at least l distinct sensitive values per group."""
    return DistinctLDiversity(_integral(l, "l", "distinct-l"))


@register_model("probabilistic-l", aliases=("probabilistic-l-diversity",))
def build_probabilistic_l(*, l: float = 4.0) -> ProbabilisticLDiversity:
    """Probabilistic l-diversity: most frequent sensitive share at most 1/l."""
    return ProbabilisticLDiversity(l)


@register_model("entropy-l", aliases=("entropy-l-diversity",))
def build_entropy_l(*, l: float = 4.0) -> EntropyLDiversity:
    """Entropy l-diversity: group sensitive entropy at least log(l)."""
    return EntropyLDiversity(l)


@register_model("t-closeness")
def build_t_closeness(*, t: float = 0.2, use_hierarchy: bool = True) -> TCloseness:
    """t-closeness: group sensitive distribution within EMD t of the table's."""
    return TCloseness(t, use_hierarchy=use_hierarchy)


@register_model("k-anonymity")
def build_k_anonymity(*, k: float = 4) -> KAnonymity:
    """k-anonymity: every group holds at least k tuples (identity disclosure)."""
    return KAnonymity(_integral(k, "k", "k-anonymity"))


# ---------------------------------------------------------------------------
# Anonymization algorithms
# ---------------------------------------------------------------------------
#
# An algorithm takes the (already prepared) privacy requirement and returns
# the partition plus a method string for the release; the wrapper in
# repro.anonymize.anonymizer adds the timing and builds the release object.


@register_algorithm("mondrian")
def run_mondrian(
    table: MicrodataTable,
    requirement: PrivacyModel,
    *,
    split_strategy: str = "widest",
    spill: bool = False,
) -> tuple[list[np.ndarray], str]:
    """Mondrian multidimensional generalization (the paper's algorithm).

    Runs frontier-synchronously (one batched requirement check per round,
    groups in deterministic left-to-right tree order) with the ``"widest"``
    (default) or ``"round_robin"`` split strategy.

    ``spill=True`` builds the value matrix chunk by chunk into an unlinked
    temp-file memmap (:func:`~repro.anonymize.mondrian.spilled_value_matrix`)
    instead of resident RAM; the partition is identical, only the recursion's
    working set shrinks to the frontier's row indices plus the touched pages.
    """
    mondrian = MondrianAnonymizer(requirement, split_strategy=split_strategy)
    values = spilled_value_matrix(as_source(table)) if spill else None
    groups = mondrian.partition(table, prepare=False, values=values)
    return groups, f"mondrian[{requirement.describe()}]"


@register_algorithm("anatomy")
def run_anatomy(
    table: MicrodataTable,
    requirement: PrivacyModel,
    *,
    anatomy_l: int | None = None,
) -> tuple[list[np.ndarray], str]:
    """Anatomy bucketization (l-diversity only; other requirement misses are surfaced)."""
    if anatomy_l is None:
        raise AnonymizationError("anatomy requires the anatomy_l parameter")
    groups = anatomy_partition(table, anatomy_l)
    bad_groups = [group for group in groups if not requirement.is_satisfied(group)]
    method = f"anatomy[l={anatomy_l}]"
    if bad_groups:
        # Anatomy targets l-diversity only; surface (don't hide) any requirement misses.
        method = f"anatomy[l={anatomy_l}, {len(bad_groups)} groups exceed model]"
    return groups, method


def _validate_anatomy_options(table: MicrodataTable, *, anatomy_l: int | None = None) -> None:
    # Hook called by anonymize() before the expensive model preparation, so a
    # missing anatomy_l fails fast instead of after minutes of kernel estimation.
    if anatomy_l is None:
        raise AnonymizationError("anatomy requires the anatomy_l parameter")


run_anatomy.validate = _validate_anatomy_options


# ---------------------------------------------------------------------------
# Prior estimators
# ---------------------------------------------------------------------------
#
# Estimators share the signature (table, **params); parameters they do not
# declare are filtered out by Registry.build_filtered, so the kernel
# estimator's bandwidth knobs do not leak into the parameter-free baselines.


@register_prior_estimator("kernel")
def estimate_kernel_prior(
    table: MicrodataTable,
    *,
    b: float | Bandwidth = 0.3,
    config: EstimatorConfig | None = None,
    estimator: BatchedKernelPriorEstimator | None = None,
):
    """Nadaraya-Watson kernel regression prior (Section II-B, the paper's estimator).

    ``estimator`` is a :class:`~repro.knowledge.prior.BatchedKernelPriorEstimator`
    already fitted on ``table`` (a session passes its one fit per kernel);
    the prior is then one contraction on it and ``config`` is not read.
    Without one, a backend is fitted from ``config`` (kernel, cell budget -
    ``0`` selects the flat reference sweep - and contraction threads;
    results are bitwise identical at any thread count).
    """
    if estimator is None:
        return kernel_prior(table, b, config=config)
    if estimator.backend.table is not table:
        raise KnowledgeError("the estimator must be fitted on the table it estimates")
    return estimator.prior_for_table([b])[0]


@register_prior_estimator("uniform")
def estimate_uniform_prior(table: MicrodataTable):
    """The ignorant adversary assumed by l-diversity (inconsistent with the data)."""
    return uniform_prior(table)


@register_prior_estimator("overall")
def estimate_overall_prior(table: MicrodataTable):
    """The t-closeness adversary: the overall sensitive distribution everywhere."""
    return overall_prior(table)


@register_prior_estimator("mle")
def estimate_mle_prior(table: MicrodataTable):
    """Maximum-likelihood estimator conditioning on the exact QI combination."""
    return mle_prior(table)


# ---------------------------------------------------------------------------
# Distance measures
# ---------------------------------------------------------------------------
#
# Measure factories take the table so they can build the sensitive-attribute
# ground-distance matrix when they need one.


@register_measure("smoothed-js")
def build_smoothed_js(
    table: MicrodataTable,
    *,
    bandwidth: float = 0.5,
    kernel: str = "epanechnikov",
) -> SmoothedJSDivergence:
    """The paper's measure: kernel smoothing over the sensitive domain, then JS."""
    return sensitive_distance_measure(table, bandwidth=bandwidth, kernel=kernel)


@register_measure("js")
def build_js(table: MicrodataTable) -> JSDivergence:
    """Jensen-Shannon divergence (no semantic awareness)."""
    return JSDivergence()


@register_measure("kl")
def build_kl(table: MicrodataTable) -> KLDivergence:
    """Kullback-Leibler divergence (fails zero-probability definability)."""
    return KLDivergence()


@register_measure("emd")
def build_emd(table: MicrodataTable) -> EMDDistance:
    """Earth Mover's Distance over the sensitive ground-distance matrix."""
    return EMDDistance(ground_distance=attribute_distance_matrix(table.sensitive_domain()))


@register_measure("hierarchical-emd")
def build_hierarchical_emd(table: MicrodataTable) -> DistanceMeasure:
    """Closed-form EMD over the sensitive taxonomy (falls back to EMD without one)."""
    domain = table.sensitive_domain()
    taxonomy = domain.attribute.taxonomy
    if taxonomy is None:
        return EMDDistance(ground_distance=attribute_distance_matrix(domain))
    leaf_order = [str(value) for value in domain.values.tolist()]
    return HierarchicalEMD(taxonomy, leaf_order)
