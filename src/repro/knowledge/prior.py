"""Estimating the adversary's prior belief function (Sections II-B and II-C).

The adversary's prior belief is a function ``Ppri : D[QI] -> Sigma`` mapping
every quasi-identifier combination to a probability distribution over the
sensitive domain.  The paper estimates it from the data itself with a
Nadaraya-Watson kernel regression:

.. math::

    \\hat P_{pri}(q) = \\frac{\\sum_{t_j \\in T} P(t_j) \\prod_i K_i(d_i(q_i, t_j[A_i]))}
                            {\\sum_{t_j \\in T} \\prod_i K_i(d_i(q_i, t_j[A_i]))}

where ``P(t_j)`` is the one-hot distribution of tuple ``t_j``'s sensitive
value and ``d_i`` is the normalised attribute distance of Section II-C.

All estimation is served by one shared engine - the factored count-tensor
contraction backend of :mod:`repro.knowledge.backend` - which deduplicates
quasi-identifier combinations, factors the kernel product into a solo
attribute times (hierarchically blocked) rest combinations, and supports
additive updates.  One estimator is a thin view over it:
:class:`BatchedKernelPriorEstimator` fits a table once and serves any number
of bandwidths (one ``Adv(B)`` or a whole skyline) in one pass, with optional
incremental ``append_rows`` / ``remove_rows`` / ``update_rows`` deltas for
full-lifecycle streaming publishers.  :func:`kernel_prior` is the one-call
form for a single bandwidth.  Every estimation setting (kernel, cell budget,
threads) arrives as one :class:`~repro.knowledge.backend.EstimatorConfig`.

Priors match (to floating-point round-off) the flat ``O(n^2 d)`` sweep of
the formula above, :func:`flat_kernel_prior`, which no configuration
reaches: it is kept only as the reference tests and benchmarks check the
backend against.

Three baseline adversaries from Section II-D are also provided:

* :func:`uniform_prior` - the "ignorant" adversary assumed by l-diversity
  (NOT consistent with the data; included for comparison only),
* :func:`overall_prior` - the t-closeness adversary whose prior is the overall
  sensitive distribution for every tuple,
* :func:`mle_prior` - the maximum-likelihood estimator that conditions on the
  exact QI combination (the limit of small bandwidths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.distance import attribute_distance_matrix
from repro.data.table import MicrodataTable
from repro.exceptions import KnowledgeError
from repro.knowledge.backend import EstimatorConfig, FactoredPriorBackend
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.kernels import get_kernel


@dataclass(frozen=True)
class PriorBeliefs:
    """Per-tuple prior beliefs of one adversary over one table.

    Attributes
    ----------
    matrix:
        ``(n_rows, m)`` row-stochastic matrix; row ``j`` is the adversary's
        prior distribution over the sensitive domain for tuple ``t_j``.
    sensitive_values:
        The sensitive domain ``D[S]`` in code order (length ``m``).
    description:
        Human-readable description of the adversary (e.g. ``"kernel b=0.3"``).
    """

    matrix: np.ndarray
    sensitive_values: tuple = field(default_factory=tuple)
    description: str = ""

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise KnowledgeError("prior belief matrix must be 2-dimensional")
        if np.any(matrix < -1e-12):
            raise KnowledgeError("prior belief matrix must be non-negative")
        row_sums = matrix.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-8):
            raise KnowledgeError("every prior belief row must sum to 1")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_rows(self) -> int:
        """Number of tuples covered by these beliefs."""
        return int(self.matrix.shape[0])

    @property
    def n_sensitive_values(self) -> int:
        """Size ``m`` of the sensitive domain."""
        return int(self.matrix.shape[1])

    def for_tuple(self, index: int) -> np.ndarray:
        """Prior distribution of tuple ``index``."""
        return self.matrix[index]

    def for_group(self, indices: np.ndarray) -> np.ndarray:
        """Prior distributions (rows) for a group of tuple indices."""
        return self.matrix[np.asarray(indices, dtype=np.int64)]


class BatchedKernelPriorEstimator:
    """The Nadaraya-Watson kernel prior estimator, for any number of bandwidths.

    One ``Adv(B)`` needs one prior belief function; auditing a release
    against a skyline ``{(B_1, t_1), ..., (B_p, t_p)}`` needs one per
    adversary.  This view shares one
    :class:`~repro.knowledge.backend.FactoredPriorBackend` fit across every
    bandwidth: distance matrices, QI deduplication and the count tensor are
    computed once, each bandwidth only pays its tiny kernel matrices and the
    chained contraction.  Results match the flat reference to floating-point
    round-off.

    Streams can mutate a fitted estimator with :meth:`append_rows`,
    :meth:`remove_rows` and :meth:`update_rows`: the count tensor is additive
    in rows, so the priors of the changed table are produced by folding the
    batch's (possibly negative, exactly-integer) count deltas into the
    factored state instead of re-sweeping all ``n`` rows.  With
    ``incremental=True`` the per-bandwidth contraction artefacts (block
    joints, the solo-contracted tensor and the per-query numerators) are
    cached between calls and only the queries whose compact-support kernel
    neighbourhood contains a changed row are recontracted.

    Parameters
    ----------
    config:
        The :class:`~repro.knowledge.backend.EstimatorConfig` (kernel, cell
        budget, contraction threads); ``None`` is the default configuration.
    incremental:
        Cache the per-bandwidth contraction state so :meth:`append_rows`
        updates it in place (costs memory proportional to the contracted
        tensor per distinct bandwidth; off by default).
    """

    def __init__(
        self,
        config: EstimatorConfig | None = None,
        *,
        incremental: bool = False,
    ):
        self.incremental = bool(incremental)
        self._backend = FactoredPriorBackend(config, incremental=incremental)
        self.config = self._backend.config

    @property
    def backend(self) -> FactoredPriorBackend:
        """The shared contraction backend this view delegates to."""
        return self._backend

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Attribute names of each rest block of the blocked contraction."""
        return self._backend.blocks

    # -- fitting --------------------------------------------------------------------
    def fit(self, table) -> "BatchedKernelPriorEstimator":
        """Precompute every bandwidth-independent artefact for ``table``.

        ``table`` is a resident :class:`~repro.data.table.MicrodataTable` or
        a chunked :class:`~repro.data.source.TableSource` (bitwise-identical
        streamed fit).
        """
        self._backend.fit(table)
        return self

    def append_rows(self, table: MicrodataTable) -> str:
        """Grow the fitted state to ``table`` (the previous table plus appended rows).

        Returns ``"incremental"`` when the factored state was updated in
        place, or ``"refit"`` when the backend fell back to a full
        :meth:`fit` (changed domains, or a breached growth guard).
        """
        return self._backend.append_rows(table)

    def remove_rows(self, table: MicrodataTable, removed: np.ndarray) -> str:
        """Shrink the fitted state to ``table`` (the fitted table minus ``removed``).

        ``removed`` holds row positions of the fitted table.  Counts are
        subtracted from the factored state exactly; returns ``"incremental"``
        or ``"refit"`` (changed domains, or emptied rest slots -
        see :meth:`~repro.knowledge.backend.FactoredPriorBackend.remove_rows`).
        """
        return self._backend.remove_rows(table, removed)

    def update_rows(self, table: MicrodataTable, positions: np.ndarray) -> str:
        """Fold in-place row corrections at ``positions`` into the fitted state.

        ``table`` has the fitted table's rows with the ones at ``positions``
        replaced (within the fitted domains).  Paired negative/positive count
        deltas are exact; returns ``"incremental"`` or ``"refit"`` (see
        :meth:`~repro.knowledge.backend.FactoredPriorBackend.update_rows`).
        """
        return self._backend.update_rows(table, positions)

    # -- estimation -----------------------------------------------------------------
    def prior_for_codes(self, query_codes: np.ndarray, b: float | Bandwidth) -> np.ndarray:
        """Priors of ``Adv(b)`` for query rows given as QI *code* combinations.

        ``query_codes`` is a ``(q, d)`` integer matrix in the fitted table's
        code space; the queries need not occur in the table.  Returns the
        ``(q, m)`` row-stochastic prior matrix.  Queries whose kernel weights
        are all zero (possible with compact-support kernels far away from
        any data) fall back to the overall sensitive distribution, the
        least-informative consistent belief.
        """
        return self._backend.matrix_for_codes(query_codes, b)

    def prior_for_table(
        self, bandwidths: Sequence[float | Bandwidth]
    ) -> list[PriorBeliefs]:
        """Prior beliefs of every ``Adv(B_i)`` on the fitted table, one pass.

        Returns one :class:`PriorBeliefs` per entry of ``bandwidths``, in
        order.  Identical bandwidths (common in ``|skyline| > 1`` grids) are
        computed once and share one matrix object.
        """
        table = self._backend.table
        if table is None:
            raise KnowledgeError("estimator is not fitted; call fit(table) first")
        resolved = [self._backend.resolve_bandwidth(b) for b in bandwidths]
        matrices = self._backend.matrices(resolved)
        sensitive_values = tuple(table.sensitive_domain().values.tolist())
        return [
            PriorBeliefs(
                matrix=matrix,
                sensitive_values=sensitive_values,
                description=f"kernel={self.config.kernel}, {bandwidth.describe()}",
            )
            for bandwidth, matrix in zip(resolved, matrices)
        ]


def kernel_prior(
    table,
    b: float | Bandwidth,
    *,
    config: EstimatorConfig | None = None,
) -> PriorBeliefs:
    """One-call helper: the priors of ``Adv(b)`` on ``table``.

    ``table`` is a :class:`~repro.data.table.MicrodataTable` or a chunked
    :class:`~repro.data.source.TableSource`.  ``b`` may be a scalar (applied
    uniformly to every QI attribute, the ``B' = (b', ..., b')`` adversary of
    Section V) or a full :class:`~repro.knowledge.bandwidth.Bandwidth`.
    ``config`` carries the estimation settings.
    """
    return BatchedKernelPriorEstimator(config).fit(table).prior_for_table([b])[0]


def flat_kernel_prior(
    table: MicrodataTable,
    b: float | Bandwidth,
    *,
    kernel: str = "epanechnikov",
    query_codes: np.ndarray | None = None,
) -> np.ndarray:
    """The ``O(n^2 d)`` Nadaraya-Watson sweep: the reference for every backend.

    Weighs every distinct query against every table row straight from the
    formula above, with no factorisation or blocking, and returns the
    ``(q, m)`` prior matrix.  ``query_codes`` (QI codes in the table's code
    space) defaults to the table's own rows; queries with no positive
    weight take the overall distribution, as in the backend.  No
    configuration reaches it; it exists so tests and benchmarks can check
    :class:`BatchedKernelPriorEstimator` against the definition.
    """
    names = table.quasi_identifier_names
    bandwidth = b if isinstance(b, Bandwidth) else Bandwidth.uniform(names, float(b))
    weights_of = [
        get_kernel(kernel)(attribute_distance_matrix(table.domain(name)), bandwidth[name])
        for name in names
    ]
    data = table.qi_code_matrix().astype(np.int64)
    queries = data if query_codes is None else np.atleast_2d(query_codes).astype(np.int64)
    queries, inverse = np.unique(queries, axis=0, return_inverse=True)
    one_hot = np.zeros((table.n_rows, table.sensitive_domain().size))
    one_hot[np.arange(table.n_rows), table.sensitive_codes()] = 1.0
    result = np.empty((queries.shape[0], one_hot.shape[1]))
    for start in range(0, queries.shape[0], 256):
        batch = queries[start : start + 256]
        weights = np.ones((batch.shape[0], table.n_rows))
        for column, attribute_weights in enumerate(weights_of):
            weights *= attribute_weights[batch[:, column]][:, data[:, column]]
        denominators = weights.sum(axis=1)
        rows = (weights @ one_hot) / np.where(denominators > 0.0, denominators, 1.0)[:, None]
        rows[denominators <= 0.0] = table.sensitive_distribution()
        result[start : start + batch.shape[0]] = rows
    return result[inverse]


def uniform_prior(table: MicrodataTable) -> PriorBeliefs:
    """The ignorant adversary: every sensitive value equally likely for every tuple.

    This belief is generally *inconsistent* with the data (Section II-D); it is
    provided so that experiments can contrast it with consistent adversaries.
    """
    m = table.sensitive_domain().size
    matrix = np.full((table.n_rows, m), 1.0 / m)
    return PriorBeliefs(
        matrix=matrix,
        sensitive_values=tuple(table.sensitive_domain().values.tolist()),
        description="uniform (ignorant adversary)",
    )


def overall_prior(table: MicrodataTable) -> PriorBeliefs:
    """The t-closeness adversary: the overall sensitive distribution for every tuple."""
    overall = table.sensitive_distribution()
    matrix = np.tile(overall, (table.n_rows, 1))
    return PriorBeliefs(
        matrix=matrix,
        sensitive_values=tuple(table.sensitive_domain().values.tolist()),
        description="overall distribution (t-closeness adversary)",
    )


def mle_prior(table: MicrodataTable) -> PriorBeliefs:
    """Maximum-likelihood prior: the sensitive distribution among identical QI tuples.

    This is the estimator the paper rejects in Section II-B (high variance, no
    knowledge parameter, no semantics); it is the limiting behaviour of the
    kernel estimator as every bandwidth shrinks to zero.
    """
    codes = table.qi_code_matrix()
    sensitive_codes = table.sensitive_codes()
    m = table.sensitive_domain().size
    unique_codes, inverse = np.unique(codes, axis=0, return_inverse=True)
    matrix = np.zeros((unique_codes.shape[0], m), dtype=np.float64)
    np.add.at(matrix, (inverse, sensitive_codes), 1.0)
    matrix /= matrix.sum(axis=1, keepdims=True)
    return PriorBeliefs(
        matrix=matrix[inverse],
        sensitive_values=tuple(table.sensitive_domain().values.tolist()),
        description="maximum-likelihood (exact QI conditioning)",
    )
