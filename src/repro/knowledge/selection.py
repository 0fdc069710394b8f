"""Bandwidth selection for the kernel prior estimator.

The paper leaves the choice of the bandwidth vector ``B`` to the data
publisher ("a set of well-chosen parameters").  This module provides two
data-driven helpers that make that choice reproducible:

* :func:`cross_validation_score` - the average held-out log-likelihood of the
  kernel prior at a candidate bandwidth (k-fold cross validation).  This is
  the standard likelihood cross-validation criterion for kernel regression:
  the bandwidth that maximises it is the one whose implied adversary best
  predicts unseen individuals' sensitive values, i.e. the *most realistic*
  consistent adversary.
* :func:`select_bandwidth` - grid search over candidate scalar bandwidths
  using that score.

These utilities extend the paper (they are not part of its evaluation), but
they slot directly into the skyline workflow: the publisher can anchor one
skyline point at the cross-validated bandwidth and add stricter/looser points
around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import BatchedKernelPriorEstimator

_EPSILON = 1e-12


@dataclass(frozen=True)
class BandwidthScore:
    """Cross-validation result for one candidate bandwidth."""

    b: float
    log_likelihood: float
    n_folds: int


def cross_validation_score(
    table: MicrodataTable,
    b: float | Bandwidth,
    *,
    n_folds: int = 5,
    kernel: str = "epanechnikov",
    seed: int = 0,
) -> float:
    """Average held-out log-likelihood of the kernel prior at bandwidth ``b``.

    The table is split into ``n_folds`` folds; for each fold the prior is
    estimated from the remaining folds and evaluated on the held-out tuples'
    actual sensitive values.  Larger is better.  Probabilities are floored at
    a tiny epsilon so that a single impossible-looking tuple does not send the
    score to minus infinity.
    """
    if n_folds < 2:
        raise KnowledgeError("cross validation requires at least 2 folds")
    if table.n_rows < 2 * n_folds:
        raise KnowledgeError(
            f"table of {table.n_rows} rows is too small for {n_folds}-fold cross validation"
        )
    bandwidth = (
        b if isinstance(b, Bandwidth) else Bandwidth.uniform(table.quasi_identifier_names, float(b))
    )
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(table.n_rows)
    folds = np.array_split(permutation, n_folds)
    sensitive_codes = table.sensitive_codes()

    config = EstimatorConfig(kernel=kernel)
    total = 0.0
    count = 0
    for fold in folds:
        held_out = np.sort(fold)
        training = np.sort(np.setdiff1d(permutation, fold))
        training_table = table.select(training)
        estimator = BatchedKernelPriorEstimator(config).fit(training_table)
        held_out_codes = np.column_stack(
            [
                training_table.domain(name).encode(table.column(name)[held_out].tolist())
                for name in table.quasi_identifier_names
            ]
        )
        priors = estimator.prior_for_codes(held_out_codes, bandwidth)
        probabilities = priors[np.arange(held_out.size), sensitive_codes[held_out]]
        total += float(np.log(np.maximum(probabilities, _EPSILON)).sum())
        count += held_out.size
    return total / count


def select_bandwidth(
    table: MicrodataTable,
    *,
    candidates: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0),
    n_folds: int = 5,
    kernel: str = "epanechnikov",
    seed: int = 0,
) -> tuple[float, list[BandwidthScore]]:
    """Grid-search the scalar bandwidth maximising the cross-validation score.

    Returns the best bandwidth and the full list of scores (so callers can
    inspect how flat the likelihood profile is before committing to one
    adversary profile).
    """
    if not candidates:
        raise KnowledgeError("select_bandwidth requires at least one candidate")
    scores = [
        BandwidthScore(
            b=float(candidate),
            log_likelihood=cross_validation_score(
                table, candidate, n_folds=n_folds, kernel=kernel, seed=seed
            ),
            n_folds=n_folds,
        )
        for candidate in candidates
    ]
    best = max(scores, key=lambda score: score.log_likelihood)
    return best.b, scores
