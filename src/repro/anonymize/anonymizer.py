"""High-level anonymization API.

:func:`anonymize` is the single entry point most library users need: it takes
a table and a privacy model, dispatches to the requested algorithm through the
:data:`repro.api.registry.ALGORITHMS` registry (Mondrian generalization by
default, Anatomy bucketization as an alternative, plus anything registered
with ``@register_algorithm``) and wraps the result in an
:class:`~repro.anonymize.partition.AnonymizedRelease`.

For composed anonymize -> audit -> report runs with cached preparation, see
the fluent :class:`repro.api.Pipeline`; this function remains the stable,
backward-compatible core it delegates to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.anonymize.partition import AnonymizedRelease
from repro.data.table import MicrodataTable
from repro.privacy.models import CompositeModel, KAnonymity, PrivacyModel


@dataclass
class AnonymizationResult:
    """A release plus timing information (used by the efficiency experiments)."""

    release: AnonymizedRelease
    model_description: str
    prepare_seconds: float
    partition_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time (preparation plus partitioning)."""
        return self.prepare_seconds + self.partition_seconds


def anonymize(
    table: MicrodataTable,
    model: PrivacyModel,
    *,
    algorithm: str = "mondrian",
    k: int | None = None,
    split_strategy: str | None = None,
    anatomy_l: int | None = None,
    **options,
) -> AnonymizationResult:
    """Anonymize ``table`` so every released group satisfies ``model``.

    Parameters
    ----------
    table:
        The microdata table to anonymize.
    model:
        The attribute-disclosure requirement (l-diversity, t-closeness,
        (B,t)-privacy, a composite, ...).
    algorithm:
        Name of a registered anonymization algorithm: ``"mondrian"``
        (generalization, default) or ``"anatomy"`` (bucketization; requires
        ``anatomy_l``).  Algorithms registered through
        :func:`repro.api.register_algorithm` are available here by name.
    k:
        Optional k-anonymity requirement conjoined with ``model`` (the paper
        enforces ``k`` together with each model to prevent identity
        disclosure).
    split_strategy:
        Mondrian split strategy: ``"widest"`` (default; the paper's
        widest-dimension heuristic) or ``"round_robin"`` (ablation).
    anatomy_l:
        Number of distinct sensitive values per Anatomy bucket.
    **options:
        Further options for a registered algorithm.  Unlike the two legacy
        keywords above (which are silently dropped by algorithms that do not
        take them, for backward compatibility), unknown explicit options
        raise an :class:`~repro.exceptions.AnonymizationError`.

    Returns
    -------
    AnonymizationResult
        The release and the wall-clock time spent preparing the model
        (e.g. kernel prior estimation) and partitioning the data.  The paper's
        Figure 4(a) reports the partitioning time only; Figure 4(b) reports
        the preparation (background-knowledge estimation) time.
    """
    # Imported lazily: repro.api imports this module to build pipelines on
    # top of it, so a module-level import would be circular.
    from repro.api import builtins as _builtins  # noqa: F401  (registers algorithms)
    from repro.api.registry import ALGORITHMS
    from repro.exceptions import AnonymizationError

    requirement: PrivacyModel = model
    if k is not None:
        requirement = CompositeModel([KAnonymity(k), model])

    runner = ALGORITHMS.get(algorithm)
    accepted = set(ALGORITHMS.keyword_parameters(algorithm))
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise AnonymizationError(
            f"algorithm {algorithm!r} does not accept option(s) {', '.join(unknown)}"
        )
    # The two legacy keywords are forwarded only when the caller actually set
    # them and the algorithm takes them, so algorithms keep their own defaults.
    legacy = {"split_strategy": split_strategy, "anatomy_l": anatomy_l}
    options.update(
        {
            name: value
            for name, value in legacy.items()
            if value is not None and name in accepted
        }
    )
    # Fail fast on invalid options before the (potentially expensive) model
    # preparation; algorithms opt in by attaching a `validate` callable.
    validator = getattr(runner, "validate", None)
    if validator is not None:
        validator(table, **options)

    start = time.perf_counter()
    requirement.prepare(table)
    prepared = time.perf_counter()
    groups, method = runner(table, requirement, **options)
    finished = time.perf_counter()
    return AnonymizationResult(
        release=AnonymizedRelease(table, groups, method=method),
        model_description=requirement.describe(),
        prepare_seconds=prepared - start,
        partition_seconds=finished - prepared,
    )
