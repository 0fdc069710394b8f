"""Sessions: cached preparation shared across anonymize -> audit -> report runs.

Estimating the adversary's background knowledge (the kernel prior regression)
dominates the cost of publishing under (B,t)-privacy - the paper's Figure 4(b)
reports it separately from the partitioning time for exactly that reason.  A
:class:`Session` binds one table and memoises every expensive preparation
artefact so repeated runs - parameter sweeps, figure reproductions, serving
many release requests for one dataset - pay the cost once:

* **one fitted kernel estimator per kernel** (a
  :class:`~repro.knowledge.prior.BatchedKernelPriorEstimator`, fitted on the
  first kernel-prior miss): every kernel prior the session hands out - to
  ``priors``, to the models ``anonymize`` builds, to ``attack``, to
  ``audit_skyline`` and to sweep cells - is one contraction on it, so the
  table's count tensor is built once per kernel, as in Section II-B, where
  every ``Adv(B)`` is the same regression under different kernel weights;
* **priors**, keyed by ``(estimator, kernel, bandwidth)`` over the
  parameters each estimator accepts (a contraction still costs 10-50 ms on
  50k rows, so it is memoised too);
* **distance measures** and **audit adversaries**, keyed by the parameters
  they accept.

Typical use::

    session = Session(table)
    bundle = session.pipeline().model("bt", b=0.3, t=0.2).with_k(4).audit().run()
    other  = session.pipeline().model("bt", b=0.3, t=0.1).with_k(4).audit().run()
    session.stats.prior_estimations   # 1 - the second run hit the cache

``session.stats`` counts estimations and cache hits, which the tests use to
assert that preparation really is shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

import numpy as np

from repro.anonymize.anonymizer import AnonymizationResult, anonymize
from repro.api.registry import MEASURES, MODELS, PRIOR_ESTIMATORS
from repro.audit.engine import SkylineAuditEngine, SkylineAuditReport
from repro.data.table import MicrodataTable
from repro.knowledge.backend import EstimatorConfig
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import BatchedKernelPriorEstimator, PriorBeliefs
from repro.obs.tracing import Tracer
from repro.privacy.disclosure import AttackResult, BackgroundKnowledgeAttack
from repro.privacy.measures import DistanceMeasure
from repro.privacy.models import BTPrivacy, PrivacyModel
from repro.stats import CounterSet

from repro.api import builtins as _builtins  # noqa: F401  (registers the built-in entries)


class SessionStats(CounterSet):
    """Counters for the session's preparation caches.

    A :class:`~repro.stats.CounterSet` with a fixed field list - the same
    counting primitive the serving daemon's metrics are built on, so there is
    exactly one counter implementation in the codebase.
    """

    _FIELDS = (
        "prior_estimations",
        "prior_cache_hits",
        "measure_builds",
        "measure_cache_hits",
        "attack_builds",
        "attack_cache_hits",
    )

    def __init__(self) -> None:
        super().__init__(self._FIELDS)


@dataclass(frozen=True)
class _PriorKey:
    estimator: str
    kernel: str | None
    bandwidth: tuple[tuple[str, float], ...] | None


class Session:
    """A cache-backed workspace for anonymizing and auditing one table.

    Parameters
    ----------
    table:
        The microdata table every pipeline, sweep and audit of this session
        works on.  A chunked :class:`~repro.data.source.TableSource` (e.g.
        from :func:`~repro.data.io.open_table`) is accepted and materialised
        through its memory-frugal codes-backed path.
    config:
        The :class:`~repro.knowledge.backend.EstimatorConfig` every prior
        estimation, audit engine and publisher of this session uses, fixed
        for the session's lifetime.  Its ``kernel`` is the default kernel
        for prior estimation, smoothing and the models built by name (the
        paper uses Epanechnikov throughout).  Only the kernel is part of the
        prior cache key: the cell budget and thread count are the same for
        every entry, and priors are bitwise identical at any thread count.
    jobs:
        Shorthand for ``config.jobs`` (``replace(config, jobs=jobs)``), the
        contraction thread count; ``None`` keeps the config's.
    """

    def __init__(
        self,
        table: MicrodataTable,
        *,
        config: EstimatorConfig | None = None,
        jobs: int | None = None,
    ):
        from repro.data.source import as_table

        self.table = as_table(table)
        config = config if config is not None else EstimatorConfig()
        self.config = config if jobs is None else replace(config, jobs=jobs)
        self.stats = SessionStats()
        self._priors: dict[_PriorKey, PriorBeliefs] = {}
        self._estimators: dict[str, BatchedKernelPriorEstimator] = {}
        self._measures: dict[tuple, DistanceMeasure] = {}
        self._attacks: dict[tuple, BackgroundKnowledgeAttack] = {}
        self._sensitive_codes: np.ndarray | None = None

    # -- cached preparation -----------------------------------------------------------
    def bandwidth(self, b: float | Bandwidth) -> Bandwidth:
        """Normalise a scalar ``b`` to a uniform per-QI :class:`Bandwidth`."""
        if isinstance(b, Bandwidth):
            return b
        return Bandwidth.uniform(self.table.quasi_identifier_names, float(b))

    def _estimator(self, kernel: str) -> BatchedKernelPriorEstimator:
        """The session's one fitted kernel estimator for ``kernel`` (fitted once)."""
        estimator = self._estimators.get(kernel)
        if estimator is None:
            config = replace(self.config, kernel=kernel)
            estimator = BatchedKernelPriorEstimator(config).fit(self.table)
            self._estimators[kernel] = estimator
        return estimator

    def priors(
        self,
        b: float | Bandwidth | None = None,
        *,
        estimator: str = "kernel",
        kernel: str | None = None,
    ) -> PriorBeliefs:
        """Prior beliefs of the ``Adv(b)`` adversary, estimated at most once.

        ``estimator`` names an entry of the prior-estimator registry
        (``"kernel"`` needs ``b``; the ``"uniform"``/``"overall"``/``"mle"``
        baselines ignore it).  Estimators that take a ``config`` get the
        session's, with ``kernel`` (default: the session's) swapped in;
        estimators that take an ``estimator`` get the session's fitted one
        for that kernel.
        """
        kernel = kernel or self.config.kernel
        # Parameters the estimator ignores must not fragment the cache: the
        # uniform/overall/mle baselines are keyed independently of b/kernel.
        accepted = set(PRIOR_ESTIMATORS.keyword_parameters(estimator))
        bandwidth = self.bandwidth(b) if b is not None and "b" in accepted else None
        takes_config = "config" in accepted
        key = _PriorKey(
            estimator=estimator,
            kernel=kernel if takes_config else None,
            bandwidth=bandwidth.items() if bandwidth is not None else None,
        )
        cached = self._priors.get(key)
        if cached is not None:
            self.stats.prior_cache_hits += 1
            return cached
        params: dict[str, Any] = {}
        if "b" in accepted:
            if bandwidth is None:
                raise PRIOR_ESTIMATORS.error_class(
                    f"prior estimator {estimator!r} requires a bandwidth b"
                )
            params["b"] = bandwidth
        if takes_config:
            params["config"] = replace(self.config, kernel=kernel)
        if "estimator" in accepted:
            params["estimator"] = self._estimator(kernel)
        priors = PRIOR_ESTIMATORS.get(estimator)(self.table, **params)
        self.stats.prior_estimations += 1
        self._priors[key] = priors
        return priors

    def sensitive_codes(self) -> np.ndarray:
        """The table's sensitive value codes (computed once)."""
        if self._sensitive_codes is None:
            self._sensitive_codes = self.table.sensitive_codes()
        return self._sensitive_codes

    def measure(
        self,
        name: str = "smoothed-js",
        *,
        bandwidth: float = 0.5,
        kernel: str | None = None,
    ) -> DistanceMeasure:
        """A distance measure from the measure registry (built at most once).

        Like :meth:`priors`, parameters the measure does not accept are
        dropped before they reach the cache key, so ``measure("js")`` and
        ``measure("js", bandwidth=0.9)`` share one entry.
        """
        kernel = kernel or self.config.kernel
        # Measure factories take the table as their positional argument; filter
        # the keyword superset down to what this measure accepts.
        accepted = set(MEASURES.keyword_parameters(name))
        params = {k: v for k, v in {"bandwidth": bandwidth, "kernel": kernel}.items() if k in accepted}
        key = (name, tuple(sorted(params.items())))
        cached = self._measures.get(key)
        if cached is not None:
            self.stats.measure_cache_hits += 1
            return cached
        measure = MEASURES.get(name)(self.table, **params)
        self.stats.measure_builds += 1
        self._measures[key] = measure
        return measure

    # -- model construction and preparation -------------------------------------------
    def build_model(self, model: str | PrivacyModel, **params: Any) -> PrivacyModel:
        """Resolve a model name through the registry (instances pass through).

        Models that take a ``kernel`` default to the *session's* kernel
        (instead of the factory default), so the adversary a session enforces
        is the one it audits; an explicit ``kernel`` parameter still wins.
        """
        if isinstance(model, PrivacyModel):
            if params:
                raise MODELS.error_class(
                    "model parameters can only be given with a model *name*, "
                    "not an already-constructed instance"
                )
            return model
        if model in MODELS and "kernel" in MODELS.keyword_parameters(model):
            params = {"kernel": self.config.kernel, **params}
        return MODELS.build(model, **params)

    def prepare_model(self, model: PrivacyModel) -> PrivacyModel:
        """Inject cached priors and measures into every (B,t) component of ``model``.

        After this, ``model.prepare(table)`` skips the kernel estimation (the
        dominant preparation cost) for components whose priors the session has
        already computed.
        """
        domain_size = self.table.sensitive_domain().size
        for component in model.components():
            if isinstance(component, BTPrivacy) and not component.has_priors:
                priors = self.priors(component.b, kernel=component.kernel)
                component.set_priors(priors, self.sensitive_codes(), domain_size)
                if component.measure is None:
                    component.measure = self.measure(
                        "smoothed-js",
                        bandwidth=component.smoothing_bandwidth,
                        kernel=component.kernel,
                    )
        return model

    # -- workflows --------------------------------------------------------------------
    def anonymize(
        self,
        model: str | PrivacyModel,
        *,
        params: Mapping[str, Any] | None = None,
        k: int | None = None,
        algorithm: str = "mondrian",
        **options: Any,
    ) -> AnonymizationResult:
        """:func:`repro.anonymize.anonymizer.anonymize` with cached preparation.

        ``prepare_seconds`` includes the session-side preparation (prior
        estimation on a cache miss, ~0 on a hit), so the reported timings
        stay comparable with the plain :func:`anonymize` call.
        """
        requirement = self.build_model(model, **(params or {}))
        start = time.perf_counter()
        self.prepare_model(requirement)
        injected = time.perf_counter() - start
        result = anonymize(self.table, requirement, algorithm=algorithm, k=k, **options)
        result.prepare_seconds += injected
        return result

    def attack(
        self,
        groups: list[np.ndarray],
        *,
        b_prime: float = 0.3,
        threshold: float,
        kernel: str | None = None,
        method: str = "omega",
    ) -> AttackResult:
        """Audit a release with ``Adv(b')``, reusing cached priors and adversaries."""
        kernel = kernel or self.config.kernel
        key = (float(b_prime), kernel, method)
        adversary = self._attacks.get(key)
        if adversary is None:
            adversary = BackgroundKnowledgeAttack(
                self.table,
                b_prime,
                kernel=kernel,
                method=method,
                measure=self.measure("smoothed-js", kernel=kernel),
                priors=self.priors(b_prime, kernel=kernel),
            )
            self.stats.attack_builds += 1
            self._attacks[key] = adversary
        else:
            self.stats.attack_cache_hits += 1
        return adversary.attack(groups, threshold)

    def audit_skyline(
        self,
        groups: list[np.ndarray],
        skyline: Iterable[tuple[float | Bandwidth, float]],
        *,
        method: str = "omega",
        kernel: str | None = None,
    ) -> SkylineAuditReport:
        """Audit a release against a whole skyline ``{(B_i, t_i)}`` in one pass.

        Priors already held by the session (from anonymization or earlier
        audits) are reused; the engine contracts the remaining bandwidths in
        one pass on the session's fitted estimator, and they enter the
        session cache, so a later ``session.attack(b_prime=B_i)`` is a cache
        hit.
        """
        kernel = kernel or self.config.kernel
        points = [(self.bandwidth(b), float(t)) for b, t in skyline]
        keys = [_PriorKey("kernel", kernel, bandwidth.items()) for bandwidth, _ in points]
        cached = [self._priors.get(key) for key in keys]
        self.stats.prior_cache_hits += sum(prior is not None for prior in cached)
        missing = any(prior is None for prior in cached)
        engine = SkylineAuditEngine(
            self.table,
            points,
            config=replace(self.config, kernel=kernel),
            method=method,
            measure=self.measure("smoothed-js", kernel=kernel),
            priors=cached,
            estimator=self._estimator(kernel) if missing else None,
        )
        # Duplicate missing bandwidths are contracted once and counted once.
        for key, prior in zip(keys, engine.priors):
            if key not in self._priors:
                self._priors[key] = prior
                self.stats.prior_estimations += 1
        return engine.audit(groups)

    def stream(
        self,
        model: str | PrivacyModel,
        *,
        params: Mapping[str, Any] | None = None,
        skyline: Iterable[tuple[float | Bandwidth, float]] | None = None,
        k: int | None = None,
        method: str = "omega",
        split_strategy: str = "widest",
        refine_factor: float = 1.5,
        compact_drift: float = 0.5,
        store_dir: str | None = None,
        tracer: Tracer | None = None,
    ) -> "IncrementalPublisher":
        """An :class:`~repro.stream.IncrementalPublisher` seeded with this table.

        The session's table becomes version 0 of a full-lifecycle stream: the
        returned publisher has already published the seed release and accepts
        ``append(batch)``, ``delete(rows)`` and ``update(rows, batch)`` calls
        that republish incrementally (exact additive/negative prior deltas,
        dirty-leaf re-splits and merge-ups, delta skyline audits, periodic
        full-refine compaction once ``compact_drift`` worth of deferred
        maintenance accumulates).  The publisher's prior state is incremental
        and therefore private to the stream: it fits its own estimator rather
        than share the session's.

        ``skyline`` defaults to the ``(b, t)`` pairs of the model's (B,t)
        components, mirroring :meth:`Pipeline.audit_skyline`; the publisher
        estimates under the session's config.  ``store_dir`` makes
        the publisher's :class:`~repro.stream.ReleaseStore` disk-backed, so
        :meth:`~repro.stream.IncrementalPublisher.resume` can later continue
        the stream from the directory.  ``tracer`` hands the publisher a
        specific :class:`~repro.obs.tracing.Tracer` (e.g. a disabled one, or
        one whose root span should enclose the whole stream).
        """
        from repro.stream import IncrementalPublisher

        requirement = self.build_model(model, **(params or {}))
        publisher = IncrementalPublisher(
            self.table,
            requirement,
            skyline=skyline,
            k=k,
            config=self.config,
            method=method,
            split_strategy=split_strategy,
            refine_factor=refine_factor,
            compact_drift=compact_drift,
            store_path=store_dir,
            tracer=tracer,
        )
        publisher.publish()
        return publisher

    def pipeline(self) -> "Pipeline":
        """A fluent :class:`~repro.api.pipeline.Pipeline` bound to this session."""
        from repro.api.pipeline import Pipeline

        return Pipeline(session=self)

    def sweep(
        self,
        specs: Iterable["SweepSpec | Mapping[str, Any]"],
        *,
        on_error: str = "raise",
    ) -> "SweepOutcome":
        """Run a grid of pipeline configurations (see :mod:`repro.api.sweep`)."""
        from repro.api.sweep import run_sweep

        return run_sweep(self, specs, on_error=on_error)
