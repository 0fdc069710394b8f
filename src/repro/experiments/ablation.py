"""Ablation experiments for the design choices called out in DESIGN.md.

These are not figures from the paper; they probe the sensitivity of the
reproduction to choices the paper makes (or claims are unimportant):

* :func:`ablation_kernel_choice` - the paper argues (Section II-C) that the
  kernel function matters far less than the bandwidth; this experiment
  measures the worst-case disclosure risk of (B,t)-private releases built
  with different kernels.
* :func:`ablation_distance_measure` - how the choice of distance measure
  (JS, EMD, the paper's smoothed JS) changes the measured disclosure risk of
  one release.
* :func:`ablation_inference_method` - accuracy/latency trade-off of the
  Omega-estimate against exact inference as the group size grows.
* :func:`ablation_mondrian_split` - widest-dimension vs round-robin
  dimension selection in Mondrian (utility impact).
"""

from __future__ import annotations

import time

import numpy as np

from repro.anonymize.anonymizer import anonymize
from repro.data.table import MicrodataTable
from repro.exceptions import ExperimentError
from repro.experiments.config import PrivacyParameters
from repro.experiments.results import ExperimentResult
from repro.inference.exact import exact_posterior, group_sensitive_counts
from repro.inference.omega import omega_posterior
from repro.knowledge.kernels import kernel_names
from repro.knowledge.prior import kernel_prior
from repro.privacy.disclosure import tuple_disclosure_risks, worst_case_disclosure_risk
from repro.privacy.measures import (
    EMDDistance,
    JSDivergence,
    sensitive_distance_measure,
)
from repro.privacy.models import BTPrivacy
from repro.utility.metrics import discernibility_metric, global_certainty_penalty


def ablation_kernel_choice(
    table: MicrodataTable,
    parameters: PrivacyParameters,
    *,
    kernels: tuple[str, ...] = ("epanechnikov", "uniform", "triangular", "biweight", "gaussian"),
    adversary_b: float = 0.3,
) -> ExperimentResult:
    """Worst-case disclosure risk of (B,t)-private releases built with different kernels."""
    unknown = [name for name in kernels if name not in kernel_names()]
    if unknown:
        raise ExperimentError(f"unknown kernels requested: {unknown}")
    measure = sensitive_distance_measure(table)
    sensitive_codes = table.sensitive_codes()
    priors = kernel_prior(table, adversary_b)
    result = ExperimentResult(
        experiment_id="Ablation A1",
        title=f"Kernel choice for (B,t)-privacy, {parameters.describe()}",
        x_label="kernel",
        y_label="worst-case disclosure risk / groups",
    )
    risks, groups = [], []
    for kernel in kernels:
        model = BTPrivacy(parameters.b, parameters.t, kernel=kernel)
        release = anonymize(table, model, k=parameters.k).release
        risks.append(
            worst_case_disclosure_risk(priors, sensitive_codes, release.groups, measure)
        )
        groups.append(float(release.n_groups))
    result.add_series("worst-case risk", list(kernels), risks)
    result.add_series("number of groups", list(kernels), groups)
    return result


def ablation_distance_measure(
    table: MicrodataTable,
    parameters: PrivacyParameters,
    *,
    adversary_b: float = 0.3,
) -> ExperimentResult:
    """Average and worst-case risk of one release under different distance measures."""
    release = anonymize(table, BTPrivacy(parameters.b, parameters.t), k=parameters.k).release
    priors = kernel_prior(table, adversary_b)
    sensitive_codes = table.sensitive_codes()
    measures = {
        "smoothed-js (paper)": sensitive_distance_measure(table),
        "js": JSDivergence(),
        "emd (ordered)": EMDDistance(),
    }
    result = ExperimentResult(
        experiment_id="Ablation A2",
        title=f"Distance measures on one (B,t)-private release, {parameters.describe()}",
        x_label="measure",
        y_label="disclosure risk",
    )
    worst, mean = [], []
    for measure in measures.values():
        risks = tuple_disclosure_risks(priors, sensitive_codes, release.groups, measure)
        worst.append(float(risks.max()))
        mean.append(float(risks.mean()))
    result.add_series("worst-case risk", list(measures), worst)
    result.add_series("mean risk", list(measures), mean)
    return result


def ablation_inference_method(
    table: MicrodataTable,
    *,
    group_sizes: tuple[int, ...] = (3, 5, 8, 10, 12),
    b: float = 0.3,
    repeats: int = 25,
    seed: int = 11,
) -> ExperimentResult:
    """Latency of exact inference vs the Omega-estimate as group size grows."""
    if repeats <= 0:
        raise ExperimentError("repeats must be positive")
    rng = np.random.default_rng(seed)
    priors = kernel_prior(table, b)
    sensitive_codes = table.sensitive_codes()
    m = table.sensitive_domain().size
    result = ExperimentResult(
        experiment_id="Ablation A3",
        title=f"Inference cost: exact vs Omega-estimate (b={b:g})",
        x_label="group size",
        y_label="seconds per group",
    )
    exact_times, omega_times = [], []
    for group_size in group_sizes:
        exact_total = 0.0
        omega_total = 0.0
        for _ in range(repeats):
            indices = rng.choice(table.n_rows, size=group_size, replace=False)
            prior = priors.for_group(indices)
            counts = group_sensitive_counts(sensitive_codes[indices], m)
            start = time.perf_counter()
            exact_posterior(prior, counts)
            exact_total += time.perf_counter() - start
            start = time.perf_counter()
            omega_posterior(prior, counts)
            omega_total += time.perf_counter() - start
        exact_times.append(exact_total / repeats)
        omega_times.append(omega_total / repeats)
    result.add_series("exact inference", list(group_sizes), exact_times)
    result.add_series("omega-estimate", list(group_sizes), omega_times)
    return result


def ablation_mondrian_split(
    table: MicrodataTable,
    parameters: PrivacyParameters,
) -> ExperimentResult:
    """Utility impact of the Mondrian dimension-selection heuristic."""
    result = ExperimentResult(
        experiment_id="Ablation A4",
        title=f"Mondrian split strategy, {parameters.describe()}",
        x_label="strategy",
        y_label="utility cost",
    )
    strategies = ("widest", "round_robin")
    dm_values, gcp_values = [], []
    for strategy in strategies:
        release = anonymize(
            table,
            BTPrivacy(parameters.b, parameters.t),
            k=parameters.k,
            split_strategy=strategy,
        ).release
        dm_values.append(discernibility_metric(release))
        gcp_values.append(global_certainty_penalty(release))
    result.add_series("discernibility metric", list(strategies), dm_values)
    result.add_series("global certainty penalty", list(strategies), gcp_values)
    return result
