"""Experiment runners: one function per table/figure of the paper's evaluation.

Every function takes a :class:`~repro.data.table.MicrodataTable` (typically a
synthetic Adult-like table from :func:`repro.data.adult.generate_adult`) and
returns an :class:`~repro.experiments.results.ExperimentResult` whose series
mirror the curves of the corresponding figure:

=========================  =====================================================
function                   paper artefact
=========================  =====================================================
:func:`figure_1a`          Fig. 1(a)  vulnerable tuples vs adversary bandwidth b'
:func:`figure_1b`          Fig. 1(b)  vulnerable tuples vs privacy parameters
:func:`figure_2`           Fig. 2     accuracy of the Omega-estimate
:func:`figure_3a`          Fig. 3(a)  continuity of worst-case disclosure risk in b
:func:`figure_3b`          Fig. 3(b)  continuity over the (b1, b2) grid
:func:`figure_4a`          Fig. 4(a)  anonymization time of the four models
:func:`figure_4b`          Fig. 4(b)  kernel-estimation time vs b and input size
:func:`figure_5a`          Fig. 5(a)  Discernibility Metric
:func:`figure_5b`          Fig. 5(b)  Global Certainty Penalty
:func:`figure_6a`          Fig. 6(a)  query error vs query dimension qd
:func:`figure_6b`          Fig. 6(b)  query error vs selectivity sel
=========================  =====================================================

Absolute numbers differ from the paper (different hardware, Python instead of
Java, a synthetic Adult-like dataset), but the qualitative shapes - who wins,
monotonicity, continuity - are what these runners are meant to reproduce.
"""

from __future__ import annotations

import time

import numpy as np

from repro.anonymize.anonymizer import AnonymizationResult
from repro.api.session import Session
from repro.api.sweep import SweepSpec
from repro.data.adult import generate_adult
from repro.data.table import MicrodataTable
from repro.exceptions import ExperimentError
from repro.experiments.config import MODEL_NAMES, TABLE_V, PrivacyParameters, build_models
from repro.experiments.results import ExperimentResult
from repro.inference.exact import exact_posterior, group_sensitive_counts
from repro.inference.omega import omega_posterior
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import kernel_prior
from repro.privacy.disclosure import worst_case_disclosure_risk
from repro.privacy.models import BTPrivacy
from repro.utility.metrics import discernibility_metric, global_certainty_penalty
from repro.utility.query import QueryWorkloadGenerator, average_relative_error

DEFAULT_B_PRIME_VALUES = (0.2, 0.3, 0.4, 0.5)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
#
# Every runner accepts an optional Session; passing one shared session (as the
# CLI ``figure`` command does) reuses the kernel prior estimations - the
# dominant cost of the (B,t) experiments - across parameter sets, adversaries
# and figures.


def four_model_releases(
    table: MicrodataTable,
    parameters: PrivacyParameters,
    *,
    with_k_anonymity: bool = True,
    session: Session | None = None,
) -> dict[str, AnonymizationResult]:
    """Anonymize ``table`` with the four Section V models under one parameter set."""
    session = session or Session(table)
    models = build_models(parameters, with_k_anonymity=with_k_anonymity)
    specs = [
        SweepSpec(label=name, model=models[name], utility=False) for name in MODEL_NAMES
    ]
    outcome = session.sweep(specs)
    return {row.label: row.bundle.result for row in outcome.rows}


def _attack_counts(
    session: Session,
    releases: dict[str, AnonymizationResult],
    b_prime: float,
    threshold: float,
) -> dict[str, int]:
    """Vulnerable-tuple counts of one adversary against a set of releases."""
    counts: dict[str, int] = {}
    for name, result in releases.items():
        outcome = session.attack(
            result.release.groups, b_prime=b_prime, threshold=threshold
        )
        counts[name] = outcome.vulnerable_tuples
    return counts


# ---------------------------------------------------------------------------
# Figure 1: effects of probabilistic background knowledge
# ---------------------------------------------------------------------------


def figure_1a(
    table: MicrodataTable,
    parameters: PrivacyParameters,
    *,
    b_prime_values: tuple[float, ...] = DEFAULT_B_PRIME_VALUES,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 1(a): vulnerable tuples vs the adversary's bandwidth ``b'``."""
    session = session or Session(table)
    releases = four_model_releases(table, parameters, session=session)
    result = ExperimentResult(
        experiment_id="Figure 1(a)",
        title=f"Probabilistic background-knowledge attack, {parameters.describe()}",
        x_label="b' value",
        y_label="number of vulnerable tuples",
    )
    counts_per_model: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    for b_prime in b_prime_values:
        counts = _attack_counts(session, releases, b_prime, parameters.t)
        for name in MODEL_NAMES:
            counts_per_model[name].append(float(counts[name]))
    for name in MODEL_NAMES:
        result.add_series(name, list(b_prime_values), counts_per_model[name])
    return result


def figure_1b(
    table: MicrodataTable,
    *,
    parameter_sets: tuple[PrivacyParameters, ...] = TABLE_V,
    b_prime: float = 0.3,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 1(b): vulnerable tuples vs the privacy parameter set (fixed ``b' = 0.3``)."""
    result = ExperimentResult(
        experiment_id="Figure 1(b)",
        title=f"Probabilistic background-knowledge attack, adversary b'={b_prime:g}",
        x_label="privacy parameter",
        y_label="number of vulnerable tuples",
    )
    session = session or Session(table)
    counts_per_model: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    for parameters in parameter_sets:
        releases = four_model_releases(table, parameters, session=session)
        counts = _attack_counts(session, releases, b_prime, parameters.t)
        for name in MODEL_NAMES:
            counts_per_model[name].append(float(counts[name]))
    labels = [parameters.name for parameters in parameter_sets]
    for name in MODEL_NAMES:
        result.add_series(name, labels, counts_per_model[name])
    return result


# ---------------------------------------------------------------------------
# Figure 2: accuracy of the Omega-estimate
# ---------------------------------------------------------------------------


def figure_2(
    table: MicrodataTable,
    *,
    group_sizes: tuple[int, ...] = (3, 5, 8, 10, 15),
    b_values: tuple[float, ...] = DEFAULT_B_PRIME_VALUES,
    repeats: int = 100,
    seed: int = 42,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 2: average distance error of the Omega-estimate vs group size ``N``.

    For each ``N`` the experiment samples ``repeats`` random groups, runs both
    exact inference and the Omega-estimate, and reports
    ``rho = mean_j |D[Pexa, Ppri] - D[Pome, Ppri]|`` averaged over the runs.
    """
    if repeats <= 0:
        raise ExperimentError("repeats must be positive")
    rng = np.random.default_rng(seed)
    session = session or Session(table)
    measure = session.measure("smoothed-js")
    sensitive_codes = session.sensitive_codes()
    m = table.sensitive_domain().size
    result = ExperimentResult(
        experiment_id="Figure 2",
        title="Accuracy of the Omega-estimate",
        x_label="N value",
        y_label="aggregate distance error",
    )
    for b in b_values:
        priors = session.priors(b)
        errors_per_size: list[float] = []
        for group_size in group_sizes:
            errors = []
            for _ in range(repeats):
                indices = rng.choice(table.n_rows, size=group_size, replace=False)
                prior = priors.for_group(indices)
                counts = group_sensitive_counts(sensitive_codes[indices], m)
                exact = exact_posterior(prior, counts)
                omega = omega_posterior(prior, counts)
                exact_distances = measure.rowwise(prior, exact)
                omega_distances = measure.rowwise(prior, omega)
                errors.append(float(np.abs(exact_distances - omega_distances).mean()))
            errors_per_size.append(float(np.mean(errors)))
        result.add_series(f"b={b:g}", list(group_sizes), errors_per_size)
    return result


# ---------------------------------------------------------------------------
# Figure 3: continuity of the worst-case disclosure risk
# ---------------------------------------------------------------------------


def figure_3a(
    table: MicrodataTable,
    *,
    table_b_values: tuple[float, ...] = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
    adversary_b_values: tuple[float, ...] = DEFAULT_B_PRIME_VALUES,
    t: float = 0.25,
    k: int = 3,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 3(a): worst-case disclosure risk vs the publisher's bandwidth ``b``."""
    session = session or Session(table)
    measure = session.measure("smoothed-js")
    sensitive_codes = session.sensitive_codes()
    releases = {}
    for b in table_b_values:
        releases[b] = session.anonymize(BTPrivacy(b, t), k=k).release
    result = ExperimentResult(
        experiment_id="Figure 3(a)",
        title=f"Continuity of worst-case disclosure risk (t={t:g}, k={k})",
        x_label="b value",
        y_label="worst-case disclosure risk",
    )
    for b_prime in adversary_b_values:
        priors = session.priors(b_prime)
        risks = [
            worst_case_disclosure_risk(priors, sensitive_codes, releases[b].groups, measure)
            for b in table_b_values
        ]
        result.add_series(f"b'={b_prime:g}", list(table_b_values), risks)
    return result


def figure_3b(
    table: MicrodataTable,
    *,
    b1_values: tuple[float, ...] = DEFAULT_B_PRIME_VALUES,
    b2_values: tuple[float, ...] = DEFAULT_B_PRIME_VALUES,
    adversary_b: float = 0.3,
    t: float = 0.25,
    k: int = 3,
    first_block_size: int = 3,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 3(b): worst-case disclosure risk over the ``(b1, b2)`` grid.

    The publisher's bandwidth assigns ``b1`` to the first ``first_block_size``
    QI attributes and ``b2`` to the rest; the adversary uses a uniform
    ``b' = adversary_b``.
    """
    qi_names = list(table.quasi_identifier_names)
    if not 1 <= first_block_size < len(qi_names):
        raise ExperimentError("first_block_size must leave both attribute blocks non-empty")
    first_block = qi_names[:first_block_size]
    second_block = qi_names[first_block_size:]
    session = session or Session(table)
    measure = session.measure("smoothed-js")
    sensitive_codes = session.sensitive_codes()
    priors = session.priors(adversary_b)
    result = ExperimentResult(
        experiment_id="Figure 3(b)",
        title=f"Continuity over (b1, b2), adversary b'={adversary_b:g}",
        x_label="b2 value",
        y_label="worst-case disclosure risk",
    )
    for b1 in b1_values:
        risks = []
        for b2 in b2_values:
            bandwidth = Bandwidth.split(first_block, b1, second_block, b2)
            release = session.anonymize(BTPrivacy(bandwidth, t), k=k).release
            risks.append(
                worst_case_disclosure_risk(priors, sensitive_codes, release.groups, measure)
            )
        result.add_series(f"b1={b1:g}", list(b2_values), risks)
    return result


# ---------------------------------------------------------------------------
# Figure 4: efficiency
# ---------------------------------------------------------------------------


def figure_4a(
    table: MicrodataTable,
    *,
    parameter_sets: tuple[PrivacyParameters, ...] = TABLE_V,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 4(a): Mondrian anonymization time (seconds) for the four models.

    As in the paper, the time to estimate background knowledge is *not*
    included for the (B,t) model; it is reported separately by
    :func:`figure_4b`.
    """
    session = session or Session(table)
    result = ExperimentResult(
        experiment_id="Figure 4(a)",
        title="Anonymization time of the four privacy models",
        x_label="privacy parameter",
        y_label="efficiency (sec)",
    )
    times_per_model: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    for parameters in parameter_sets:
        releases = four_model_releases(table, parameters, session=session)
        for name in MODEL_NAMES:
            times_per_model[name].append(releases[name].partition_seconds)
    labels = [parameters.name for parameters in parameter_sets]
    for name in MODEL_NAMES:
        result.add_series(name, labels, times_per_model[name])
    return result


def figure_4b(
    *,
    input_sizes: tuple[int, ...] = (10_000, 15_000, 20_000, 25_000),
    b_values: tuple[float, ...] = DEFAULT_B_PRIME_VALUES,
    seed: int = 2009,
) -> ExperimentResult:
    """Figure 4(b): kernel background-knowledge estimation time vs ``b`` and input size."""
    result = ExperimentResult(
        experiment_id="Figure 4(b)",
        title="Kernel estimation time of background knowledge",
        x_label="b value",
        y_label="efficiency (sec)",
    )
    for size in input_sizes:
        table = generate_adult(size, seed=seed)
        times = []
        for b in b_values:
            start = time.perf_counter()
            kernel_prior(table, b)
            times.append(time.perf_counter() - start)
        result.add_series(f"input-size={size}", list(b_values), times)
    return result


# ---------------------------------------------------------------------------
# Figure 5: general utility measures
# ---------------------------------------------------------------------------


def _general_utility(
    table: MicrodataTable,
    parameter_sets: tuple[PrivacyParameters, ...],
    metric: str,
    session: Session | None = None,
) -> dict[str, list[float]]:
    session = session or Session(table)
    values: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    for parameters in parameter_sets:
        releases = four_model_releases(table, parameters, session=session)
        for name in MODEL_NAMES:
            release = releases[name].release
            if metric == "dm":
                values[name].append(discernibility_metric(release))
            else:
                values[name].append(global_certainty_penalty(release))
    return values


def figure_5a(
    table: MicrodataTable,
    *,
    parameter_sets: tuple[PrivacyParameters, ...] = TABLE_V,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 5(a): Discernibility Metric of the four models."""
    values = _general_utility(table, parameter_sets, "dm", session=session)
    result = ExperimentResult(
        experiment_id="Figure 5(a)",
        title="Discernibility metric (DM)",
        x_label="privacy parameter",
        y_label="discernibility metric",
    )
    labels = [parameters.name for parameters in parameter_sets]
    for name in MODEL_NAMES:
        result.add_series(name, labels, values[name])
    return result


def figure_5b(
    table: MicrodataTable,
    *,
    parameter_sets: tuple[PrivacyParameters, ...] = TABLE_V,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 5(b): Global Certainty Penalty of the four models."""
    values = _general_utility(table, parameter_sets, "gcp", session=session)
    result = ExperimentResult(
        experiment_id="Figure 5(b)",
        title="Global certainty penalty (GCP)",
        x_label="privacy parameter",
        y_label="GCP cost",
    )
    labels = [parameters.name for parameters in parameter_sets]
    for name in MODEL_NAMES:
        result.add_series(name, labels, values[name])
    return result


# ---------------------------------------------------------------------------
# Figure 6: aggregate query answering
# ---------------------------------------------------------------------------


def figure_6a(
    table: MicrodataTable,
    parameters: PrivacyParameters,
    *,
    qd_values: tuple[int, ...] = (2, 3, 4, 5, 6),
    selectivity: float = 0.07,
    n_queries: int = 200,
    seed: int = 7,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 6(a): average relative query error vs query dimension ``qd``."""
    releases = four_model_releases(table, parameters, session=session)
    result = ExperimentResult(
        experiment_id="Figure 6(a)",
        title=f"Aggregate query error vs query dimension, {parameters.describe()}",
        x_label="qd value",
        y_label="aggregate relative error (%)",
    )
    errors_per_model: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    for qd in qd_values:
        generator = QueryWorkloadGenerator(
            table, query_dimension=qd, selectivity=selectivity, seed=seed
        )
        queries = generator.generate(n_queries)
        for name in MODEL_NAMES:
            errors_per_model[name].append(
                average_relative_error(releases[name].release, queries)
            )
    for name in MODEL_NAMES:
        result.add_series(name, list(qd_values), errors_per_model[name])
    return result


def figure_6b(
    table: MicrodataTable,
    parameters: PrivacyParameters,
    *,
    selectivity_values: tuple[float, ...] = (0.03, 0.05, 0.07, 0.1, 0.12),
    query_dimension: int = 3,
    n_queries: int = 200,
    seed: int = 7,
    session: Session | None = None,
) -> ExperimentResult:
    """Figure 6(b): average relative query error vs query selectivity ``sel``."""
    releases = four_model_releases(table, parameters, session=session)
    result = ExperimentResult(
        experiment_id="Figure 6(b)",
        title=f"Aggregate query error vs selectivity, {parameters.describe()}",
        x_label="sel value",
        y_label="aggregate relative error (%)",
    )
    errors_per_model: dict[str, list[float]] = {name: [] for name in MODEL_NAMES}
    for selectivity in selectivity_values:
        generator = QueryWorkloadGenerator(
            table, query_dimension=query_dimension, selectivity=selectivity, seed=seed
        )
        queries = generator.generate(n_queries)
        for name in MODEL_NAMES:
            errors_per_model[name].append(
                average_relative_error(releases[name].release, queries)
            )
    for name in MODEL_NAMES:
        result.add_series(name, list(selectivity_values), errors_per_model[name])
    return result
