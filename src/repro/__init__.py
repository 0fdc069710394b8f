"""repro: a reproduction of "Modeling and Integrating Background Knowledge in
Data Anonymization" (Li, Li & Zhang, ICDE 2009).

The package is organised around the paper's pipeline:

* :mod:`repro.data` - microdata tables, generalization hierarchies, semantic
  distances, and a synthetic Adult-like dataset generator;
* :mod:`repro.knowledge` - kernel-regression estimation of the adversary's
  prior beliefs, parameterised by the bandwidth ``B`` (plus association-rule
  mining baselines);
* :mod:`repro.inference` - exact Bayesian posterior inference and the
  linear-time Omega-estimate;
* :mod:`repro.privacy` - distance measures (including the paper's smoothed-JS
  measure), privacy models (l-diversity, t-closeness, (B,t)-privacy, skyline
  (B,t)-privacy) and the background-knowledge attack;
* :mod:`repro.anonymize` - Mondrian generalization and Anatomy bucketization;
* :mod:`repro.utility` - utility metrics and aggregate-query workloads;
* :mod:`repro.api` - the registry-driven pipeline layer: plugin registries,
  cached :class:`Session` s, the fluent :class:`Pipeline` and parameter sweeps;
* :mod:`repro.experiments` - runners that regenerate every figure of the
  paper's evaluation.

Quickstart - anonymize, audit and report in one fluent run::

    from repro import Pipeline, generate_adult

    table = generate_adult(5000)
    bundle = (
        Pipeline(table)
        .model("bt", b=0.3, t=0.2)   # (B,t)-privacy from the model registry
        .with_k(4)                    # conjoin k-anonymity
        .audit(b_prime=0.3)           # replay the background-knowledge attack
        .run()
    )
    print(bundle.release.n_groups, "groups,",
          bundle.attack.vulnerable_tuples, "vulnerable tuples")

Repeated runs share the expensive kernel prior estimation through a session::

    from repro import Session, expand_grid

    session = Session(table)
    outcome = session.sweep(expand_grid(model=["bt", "distinct-l", "t-closeness"],
                                        b=0.3, t=[0.1, 0.2], l=4, k=4))
    print(outcome.render())
    assert session.stats.prior_estimations == 1   # estimated once, reused everywhere

The classic one-call API is unchanged::

    from repro import BTPrivacy, anonymize

    result = anonymize(table, BTPrivacy(b=0.3, t=0.2), k=4)
"""

from repro.anonymize import (
    AnonymizationResult,
    AnonymizedRelease,
    MondrianAnonymizer,
    anatomy_partition,
    anonymize,
)
from repro.audit import (
    SkylineAdversary,
    SkylineAuditEngine,
    SkylineAuditEntry,
    SkylineAuditReport,
    audit_skyline,
)
from repro.api import (
    ALGORITHMS,
    MEASURES,
    MODELS,
    PRIOR_ESTIMATORS,
    Pipeline,
    ReleaseBundle,
    Session,
    SweepOutcome,
    SweepSpec,
    expand_grid,
    register_algorithm,
    register_measure,
    register_model,
    register_prior_estimator,
)
from repro.data import (
    Attribute,
    AttributeKind,
    AttributeRole,
    MicrodataTable,
    Schema,
    Taxonomy,
    adult_schema,
    generate_adult,
)
from repro.exceptions import (
    AnonymizationError,
    AuditError,
    DataError,
    ExperimentError,
    HierarchyError,
    InferenceError,
    KnowledgeError,
    PrivacyModelError,
    ReproError,
    SchemaError,
    StreamError,
    UtilityError,
)
from repro.inference import exact_posterior, omega_posterior, posterior_for_groups
from repro.knowledge import (
    Bandwidth,
    BatchedKernelPriorEstimator,
    EstimatorConfig,
    FactoredPriorBackend,
    PriorBeliefs,
    kernel_prior,
    mle_prior,
    overall_prior,
    uniform_prior,
)
from repro.stream import (
    IncrementalPublisher,
    PartitionTree,
    ReleaseStore,
    StreamDelta,
    StreamVersion,
)
from repro.privacy import (
    BTPrivacy,
    BackgroundKnowledgeAttack,
    CompositeModel,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    ProbabilisticLDiversity,
    SkylineBTPrivacy,
    SmoothedJSDivergence,
    TCloseness,
    sensitive_distance_measure,
    tuple_disclosure_risks,
    worst_case_disclosure_risk,
)
from repro.utility import (
    QueryWorkloadGenerator,
    average_relative_error,
    discernibility_metric,
    global_certainty_penalty,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "AnonymizationError",
    "AnonymizationResult",
    "AnonymizedRelease",
    "Attribute",
    "AttributeKind",
    "AttributeRole",
    "AuditError",
    "BTPrivacy",
    "BackgroundKnowledgeAttack",
    "Bandwidth",
    "BatchedKernelPriorEstimator",
    "CompositeModel",
    "DataError",
    "EstimatorConfig",
    "FactoredPriorBackend",
    "MEASURES",
    "MODELS",
    "PRIOR_ESTIMATORS",
    "Pipeline",
    "ReleaseBundle",
    "Session",
    "SweepOutcome",
    "SweepSpec",
    "DistinctLDiversity",
    "EntropyLDiversity",
    "ExperimentError",
    "HierarchyError",
    "IncrementalPublisher",
    "InferenceError",
    "KAnonymity",
    "KnowledgeError",
    "MicrodataTable",
    "MondrianAnonymizer",
    "PartitionTree",
    "PriorBeliefs",
    "PrivacyModelError",
    "ProbabilisticLDiversity",
    "QueryWorkloadGenerator",
    "ReleaseStore",
    "ReproError",
    "Schema",
    "SchemaError",
    "SkylineAdversary",
    "SkylineAuditEngine",
    "SkylineAuditEntry",
    "SkylineAuditReport",
    "SkylineBTPrivacy",
    "SmoothedJSDivergence",
    "StreamDelta",
    "StreamError",
    "StreamVersion",
    "TCloseness",
    "Taxonomy",
    "UtilityError",
    "adult_schema",
    "anatomy_partition",
    "anonymize",
    "audit_skyline",
    "average_relative_error",
    "discernibility_metric",
    "exact_posterior",
    "expand_grid",
    "generate_adult",
    "global_certainty_penalty",
    "kernel_prior",
    "mle_prior",
    "omega_posterior",
    "overall_prior",
    "posterior_for_groups",
    "register_algorithm",
    "register_measure",
    "register_model",
    "register_prior_estimator",
    "sensitive_distance_measure",
    "tuple_disclosure_risks",
    "uniform_prior",
    "worst_case_disclosure_risk",
    "__version__",
]
